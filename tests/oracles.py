"""Independent brute-force reference implementations used only by tests.

Everything here recomputes results from raw record fields with plain
loops, deliberately avoiding the library's own caching, counting, and
grouping code paths, so agreement between the two is meaningful.
"""

import csv
import io
import math
from datetime import datetime, timezone

EARTH_RADIUS_M = 6371000.0


def haversine_m(lat1, lon1, lat2, lon2):
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def rolled_tuple(record, level_index, table):
    """Rollup re-derived straight from a TaxonRecord's raw fields.

    Special labels map to a sentinel carrying their canonical id; taxa map
    to the contiguous name prefix truncated at the requested level index.
    """
    if record.special_kind == "blank":
        return ("#special", "blank", table.blank_label_id)
    if record.special_kind == "unknown":
        return ("#special", "unknown", table.unknown_label_id)
    return lineage(record)[: level_index + 1]


def lineage(record):
    """A TaxonRecord's names from class down, up to the first missing one."""
    names = []
    for name in (record.class_name, record.order_name, record.family_name,
                 record.genus_name, record.species_name):
        if name is None:
            break
        names.append(name)
    return tuple(names)


def display_name(rolled):
    return rolled[-1]


def rolled_ranking(entries, table, level_index):
    """Deduplicated rolled ranking; unresolvable labels are dropped."""
    ranking = []
    for label, _score in entries:
        if label not in table.records:
            continue
        rolled = rolled_tuple(table.records[label], level_index, table)
        if rolled not in ranking:
            ranking.append(rolled)
    return ranking


def topk_hits(entries_by_image, truth, table, k, level_index):
    """Number of truth images whose rolled truth is in the rolled top-k."""
    hits = 0
    for image_id, label_id in truth.items():
        entries = entries_by_image.get(image_id)
        if entries is None:
            continue
        want = rolled_tuple(table.records[label_id], level_index, table)
        if want in rolled_ranking(entries, table, level_index)[:k]:
            hits += 1
    return hits


def per_class_counts(entries_by_image, truth, table, level_index):
    """(tp, predicted, actual) per rolled display name, via full rescans.

    A true positive requires full rolled identity between the assigned
    top-1 label and the truth, not just an equal display name.
    """
    truth_rolled = {
        image_id: rolled_tuple(table.records[label_id], level_index, table)
        for image_id, label_id in truth.items()
    }
    assigned_rolled = {}
    for image_id in truth:
        entries = entries_by_image.get(image_id)
        if entries is None:
            continue
        top_label = entries[0][0]
        if top_label in table.records:
            assigned_rolled[image_id] = rolled_tuple(
                table.records[top_label], level_index, table
            )

    names = {display_name(rolled) for rolled in truth_rolled.values()}
    names.update(display_name(rolled) for rolled in assigned_rolled.values())

    counts = {}
    for name in names:
        tp = predicted = actual = 0
        for image_id in truth:
            truth_name = display_name(truth_rolled[image_id])
            guess = assigned_rolled.get(image_id)
            if guess is not None and display_name(guess) == name:
                predicted += 1
                if guess == truth_rolled[image_id]:
                    tp += 1
            if truth_name == name:
                actual += 1
        counts[name] = (tp, predicted, actual)
    return counts


def skew_curve(counts):
    """(key, count, cumulative fraction) by descending count, key tiebreak."""
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    out = []
    running = 0
    for key, count in ordered:
        running += count
        out.append((key, count, running / total))
    return out


def burst_components(images, max_gap_seconds):
    """Union-find closure over every image pair within the gap.

    Quadratic on purpose: any two images of one deployment whose
    timestamps differ by at most the gap must transitively share a group.
    """
    groups = {}
    for image in images:
        groups.setdefault(image.deployment_id, []).append(image)

    components = []
    for dep_id in sorted(groups):
        members = sorted(groups[dep_id], key=lambda im: (im.timestamp, im.image_id))
        parent = list(range(len(members)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                gap = abs((members[i].timestamp - members[j].timestamp).total_seconds())
                if gap <= max_gap_seconds:
                    root_i, root_j = find(i), find(j)
                    if root_i != root_j:
                        parent[root_i] = root_j

        by_root = {}
        for i, image in enumerate(members):
            by_root.setdefault(find(i), []).append(image.image_id)
        components.extend(sorted(by_root.values(), key=lambda ids: ids[0]))
    return components


def burst_rows(images, max_gap_seconds):
    """The text of ``sequences.csv`` for ``images``, grouped one deployment at a time.

    Images are gathered per deployment, deployments taken in sorted id
    order, and each deployment's images sorted by time, then id. A group is
    cut wherever the gap to the previous image exceeds the gap bound; its
    id is its deployment id, a colon and its start time.
    """
    def text(value):
        return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")

    by_deployment = {}
    for image in images:
        by_deployment.setdefault(image.deployment_id, []).append(image)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sequence_id", "deployment_id", "start_time", "end_time",
                     "n_images", "image_ids"])
    for dep_id in sorted(by_deployment):
        members = sorted(by_deployment[dep_id], key=lambda im: (im.timestamp, im.image_id))
        start = 0
        for index in range(1, len(members) + 1):
            is_cut = index == len(members) or (
                (members[index].timestamp - members[index - 1].timestamp).total_seconds()
                > max_gap_seconds
            )
            if is_cut:
                chunk = members[start:index]
                writer.writerow([f"{dep_id}:{text(chunk[0].timestamp)}", dep_id,
                                 text(chunk[0].timestamp), text(chunk[-1].timestamp),
                                 len(chunk), " ".join(im.image_id for im in chunk)])
                start = index
    return out.getvalue()


def point_in_any_box(latitude, longitude, boxes):
    for lat_min, lat_max, lon_min, lon_max in boxes:
        if lat_min <= latitude <= lat_max and lon_min <= longitude <= lon_max:
            return True
    return False


def duplicate_count(keys):
    seen = set()
    duplicates = 0
    for key in keys:
        if key in seen:
            duplicates += 1
        seen.add(key)
    return duplicates


def timestamp_rule(text, field_name, optional=True):
    """The ISO-8601 timestamp rule as one plain sequence of steps, for any text.

    Returns ``(value, problem)``: an aware UTC datetime or None, and None or
    the ``(detail, is_warning)`` of the issue the row gets. A trailing ``Z``
    or ``z`` means UTC, a naive value is assumed UTC with a warning, and an
    empty optional field is None without an issue.
    """
    if optional and not text:
        return None, None
    iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        value = datetime.fromisoformat(iso)
        naive = value.tzinfo is None
        value = value.replace(tzinfo=timezone.utc) if naive else value.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        cleared = ", cleared" if optional else ""
        return None, (f"unparseable {field_name} {text!r}{cleared}", False)
    if naive:
        return value, (f"{field_name} has no timezone, assumed UTC", True)
    return value, None


def burst_rule(text):
    """The burst_index rule as one plain sequence of steps, for any stripped cell text.

    Returns ``(value, detail)``: the index or None, and None or the detail
    of the issue the row gets. An empty cell is None without an issue; text
    ``int`` cannot read, or a negative value, is cleared with an issue.
    """
    if not text:
        return None, None
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        return None, f"burst_index {text!r} is not a nonnegative integer, cleared"
    return value, None


def csv_rows(text, width):
    """``(rows, problems)`` of a CSV text after its header, one ``next()`` at a time.

    ``rows`` holds ``(row_number, stripped cells)`` for each record of
    ``width`` cells, ``problems`` holds ``(row_number, detail)`` for each
    record csv cannot read or that has another non-zero width. The header is
    row 1 and every later record counts; blank ones are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows, problems = [], []
    row_number = 1
    while True:
        row_number += 1
        try:
            row = next(reader)
        except StopIteration:
            return rows, problems
        except csv.Error as exc:
            problems.append((row_number, str(exc)))
            continue
        if not row:
            continue
        if len(row) == width:
            rows.append((row_number, [cell.strip() for cell in row]))
        else:
            problems.append((row_number, f"expected {width} columns, got {len(row)}"))


def sequence_fusion(records, groups):
    """``(sequence_id, ranked entries)`` per group with a predicted member, holding every record.

    ``groups`` holds ``(sequence_id, image_ids)`` pairs. The first record of
    each image id wins, even one with no entries, which leaves that member
    unpredicted. Each member's scores are divided by its first entry's score
    (0.0 when that is not > 0) and summed per label in member order, then in
    entry order; the sums are divided by the member count and ranked by
    descending mean, ties by label.
    """
    by_image = {}
    for image_id, entries in records:
        by_image.setdefault(image_id, entries)
    fused = []
    for sequence_id, image_ids in groups:
        members = [by_image[iid] for iid in image_ids if by_image.get(iid)]
        if not members:
            continue
        sums = {}
        for entries in members:
            top_score = entries[0][1]
            for label, score in entries:
                normalized = score / top_score if top_score > 0 else 0.0
                sums[label] = sums.get(label, 0.0) + normalized
        means = {label: value / len(members) for label, value in sums.items()}
        fused.append((sequence_id,
                      tuple(sorted(means.items(), key=lambda item: (-item[1], item[0])))))
    return fused
