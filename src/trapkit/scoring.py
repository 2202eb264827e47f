"""Score externally produced ranked predictions against ground truth.

A prediction file carries one line per image: the image id followed by
`label:score` entries sorted by descending score. The harness computes
top-k accuracy at any taxonomic level, per-class precision/recall from
the top-1 confusion, dedicated blank-class metrics, geographic-range
filtering of ecologically impossible labels, and a transparent mean-score
aggregator over burst sequences.

Two reporting rules are deliberate and differ from common shortcuts:
images that have ground truth but no prediction count as top-k misses
(and are reported as skipped) instead of being silently excluded, and a
0/0 precision or recall is reported as undefined (None) rather than
coerced to zero.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, islice
from operator import attrgetter, sub
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from ._util import positive, read_rows, record_issue, write_rows
from .report import Issue, IssueKind, Severity
from .taxonomy import BLANK, Level, RolledLabel, TaxonomyTable, rollup

RANGE_MAP_COLUMNS = ["label_id", "lat_min", "lat_max", "lon_min", "lon_max"]

METRICS_COLUMNS = ["metric", "label_id_or_overall", "value"]


# A prediction is one image's exact ``(image_id, entries)`` tuple; its entries rank at least one
# ``(label, score)`` pair, by descending score.
Prediction = tuple[str, tuple[tuple[str, float], ...]]


class ClassMetrics(NamedTuple):
    precision: float | None
    recall: float | None
    support: int


class MetricsReport(NamedTuple):
    level: Level
    topk: dict[int, float]
    topk_nonblank: dict[int, float | None]
    per_class: dict[str, ClassMetrics]
    blank_precision: float | None
    blank_recall: float | None
    evaluated: int
    skipped: int
    unresolved_predictions: int = 0
    duplicate_predictions: int = 0
    unmatched_predictions: int = 0


def iter_predictions(
    stream: IO[str], issues: list[Issue], first_line: int = 1
) -> Iterable[Prediction]:
    """Stream `image_id label:score ...` lines as ``(image_id, entries)`` pairs.

    Malformed lines, such as an id with no entry or a score that is not a finite number, are
    appended to ``issues`` with their line number and dropped, so each record ranks at least one
    label. Records whose scores are not nonincreasing are re-sorted (stable) and flagged; duplicate
    labels within a record keep the highest-ranked occurrence and are flagged. Lines are numbered
    from ``first_line``.
    """
    for line_number, line in enumerate(stream, start=first_line):
        parts = line.split()
        if not parts:
            continue
        image_id = parts[0]
        malformed = None if len(parts) > 1 else "no ranked entries"
        scores: dict[str, float] = {}
        for token in parts[1:]:
            label, sep, score_text = token.rpartition(":")
            if not sep or not label:
                malformed = f"bad entry {token!r}"
                break
            try:
                score = float(score_text)
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                malformed = f"bad score in {token!r}"
                break
            scores.setdefault(label, score)
        if malformed is not None:
            issues.append(record_issue(IssueKind.MALFORMED_PREDICTION, image_id, line_number,
                                       malformed, unit="line"))
            continue
        if len(scores) < len(parts) - 1:
            issues.append(record_issue(IssueKind.DUPLICATE_ID, image_id, line_number,
                                       "duplicate labels in record, highest rank kept",
                                       Severity.WARNING, unit="line"))
        entries = tuple(scores.items())
        values = list(scores.values())
        if values != sorted(values, reverse=True):
            issues.append(record_issue(IssueKind.UNSORTED_SCORES, image_id, line_number,
                                       "scores not nonincreasing, re-sorted",
                                       Severity.WARNING, unit="line"))
            entries = tuple(sorted(entries, key=lambda entry: -entry[1]))
        yield image_id, entries


def write_predictions(records: Iterable[Prediction], stream: IO[str]) -> int:
    """Write one `image_id label:score ...` line per record; returns the line count."""
    count = 0
    for image_id, entries in records:
        tokens = " ".join([f"{label}:{score!r}" for label, score in entries])
        stream.write(f"{image_id} {tokens}\n")
        count += 1
    return count


def evaluate(
    predictions: Iterable[Prediction],
    truth: Mapping[str, str],
    table: TaxonomyTable,
    ks: Sequence[int] = (1, 3),
    level: Level = Level.SPECIES,
) -> MetricsReport:
    """Single pass over predictions producing the full metrics report.

    ``truth`` maps image id to ground-truth label id and defines the
    evaluation scope: predictions for other images are counted as
    unmatched and ignored, truth images with no prediction are counted
    as misses and reported as skipped. Top-k accuracy for every ``k``,
    per-class precision/recall from the top-1 confusion and the blank
    metrics all come from this one pass.
    """
    ks = tuple(sorted({positive("k", int(k)) for k in ks}))
    if not ks:
        raise ValueError("no k values given")
    if not truth:
        raise ValueError("truth mapping is empty, nothing to evaluate")
    level = Level(level)

    cache = {label_id: rollup(label_id, level, table) for label_id in table.records}
    support: dict[str, int] = {}
    nonblank_total = 0
    for label_id in truth.values():
        rolled = cache.get(label_id)
        if rolled is None:  # a label the table lacks, which raises
            table.resolve(label_id)
        support[rolled.name] = support.get(rolled.name, 0) + 1
        if rolled.special != BLANK:
            nonblank_total += 1

    hits = {k: 0 for k in ks}
    nonblank_hits = {k: 0 for k in ks}
    true_positives: dict[str, int] = {}
    predicted: dict[str, int] = {}
    unresolved = 0
    seen: set[str] = set()
    duplicates = 0
    unmatched = 0
    for image_id, entries in predictions:
        label_id = truth.get(image_id)
        if label_id is None:
            unmatched += 1
            continue
        if image_id in seen:
            duplicates += 1
            continue
        seen.add(image_id)
        truth_label = cache[label_id]

        # The rank is the number of distinct rolled labels ranked above the truth;
        # every entry the taxonomy cannot resolve counts, even after the hit.
        rank = None
        above: set[RolledLabel] = set()
        for label, _ in entries:
            rolled = cache.get(label)
            if rolled is None:
                unresolved += 1
            elif rank is None:
                if rolled == truth_label:
                    rank = len(above)
                else:
                    above.add(rolled)
        if rank is not None:
            for k in ks:
                if rank < k:
                    hits[k] += 1
                    if truth_label.special != BLANK:
                        nonblank_hits[k] += 1

        assigned = cache.get(entries[0][0])
        if assigned is not None:
            predicted[assigned.name] = predicted.get(assigned.name, 0) + 1
            if assigned == truth_label:
                true_positives[truth_label.name] = true_positives.get(truth_label.name, 0) + 1

    evaluated = len(truth)
    per_class: dict[str, ClassMetrics] = {}
    for name in sorted(set(support) | set(predicted)):
        tp = true_positives.get(name, 0)
        n_predicted = predicted.get(name, 0)
        n_actual = support.get(name, 0)
        per_class[name] = ClassMetrics(
            precision=tp / n_predicted if n_predicted else None,
            recall=tp / n_actual if n_actual else None,
            support=n_actual,
        )

    blank = per_class.get(cache[table.blank_label_id].name)

    return MetricsReport(
        level=level,
        topk={k: hits[k] / evaluated for k in ks},
        topk_nonblank={
            k: (nonblank_hits[k] / nonblank_total if nonblank_total else None)
            for k in ks
        },
        per_class=per_class,
        blank_precision=blank.precision if blank else None,
        blank_recall=blank.recall if blank else None,
        evaluated=evaluated,
        skipped=evaluated - len(seen),
        unresolved_predictions=unresolved,
        duplicate_predictions=duplicates,
        unmatched_predictions=unmatched,
    )


def geofilter(
    entries: Sequence[tuple[str, float]],
    latitude: float,
    longitude: float,
    range_map: Mapping[str, Sequence[tuple[float, float, float, float]]],
    unknown_label_id: str,
) -> tuple[tuple[str, float], ...]:
    """Drop predicted labels whose allowed geographic range excludes the site.

    A label's boxes are ``(lat_min, lat_max, lon_min, lon_max)`` tuples, bounds inclusive; labels
    absent from the range map are unrestricted. Survivors keep their relative order and scores.
    If nothing survives, a single entry ``(unknown_label_id, 0.0)`` is emitted so the ranking never
    goes empty; callers pass the taxonomy's designated ``unknown_label_id``.
    """
    survivors = []
    for entry in entries:
        boxes = range_map.get(entry[0])
        if boxes is None:
            survivors.append(entry)
            continue
        for lat_min, lat_max, lon_min, lon_max in boxes:
            if lat_min <= latitude <= lat_max and lon_min <= longitude <= lon_max:
                survivors.append(entry)
                break
    if not survivors:
        survivors.append((unknown_label_id, 0.0))
    return tuple(survivors)


def parse_range_map(
    stream: IO[str],
) -> tuple[dict[str, list[tuple[float, float, float, float]]], list[Issue]]:
    """Read `label_id,lat_min,lat_max,lon_min,lon_max` rows (repeatable per label).

    Each label's boxes are plain ``(lat_min, lat_max, lon_min, lon_max)`` tuples in file order.
    Rows with non-finite or unordered bounds, or an empty label, are reported and dropped.
    """
    boxes: dict[str, list[tuple[float, float, float, float]]] = {}
    issues: list[Issue] = []
    for row_number, (label, *texts) in read_rows(stream, RANGE_MAP_COLUMNS, "range map", issues):
        try:
            bounds = tuple(map(float, texts))
        except ValueError:
            bounds = (math.nan,)
        if not all(map(math.isfinite, bounds)):
            issues.append(record_issue(IssueKind.BAD_COORDINATE, label, row_number,
                                       "box bounds are not all finite numbers"))
            continue
        lat_min, lat_max, lon_min, lon_max = bounds
        if lat_min > lat_max or lon_min > lon_max:
            issues.append(record_issue(IssueKind.BAD_COORDINATE, label, row_number,
                                       "box minimum exceeds maximum"))
            continue
        if not label:
            issues.append(record_issue(IssueKind.MISSING_FIELD, label, row_number,
                                       "empty label_id"))
            continue
        boxes.setdefault(label, []).append(bounds)
    return boxes, issues


class HeldPredictions:
    """The first prediction of each burst member, held as columns for ``sequence_aggregate``.

    Members are numbered in group order: ``ordinal`` maps each member's image
    id to its number, and ``sizes`` holds each group's member count. Neither
    is ever changed, so a store for a later part of the predictions may share
    them (see ``join``). Member ``m``'s labels are ``codes[starts[m]:stops[m]]``,
    as codes into ``labels`` (numbered in first-seen order), and its scores,
    each divided by its own top score (0.0 each when that is not > 0), are
    ``scores[starts[m]:stops[m]]``. ``starts[m] == stops[m]`` for a member
    with no record held. The offsets take 32 bits: 2**32 held entries would
    take 51 GB.
    """

    __slots__ = ("ordinal", "sizes", "starts", "stops", "codes", "scores", "labels")

    def __init__(self, ordinal: Mapping[str, int], sizes: array):
        self.ordinal = ordinal
        self.sizes = sizes
        self.starts = array("I", [0]) * sum(sizes)
        self.stops = array("I", self.starts)
        self.codes = array("I")
        self.scores = array("d")
        self.labels: dict[str, int] = {}

    @classmethod
    def of(cls, groups: Sequence[Sequence]) -> HeldPredictions:
        """An empty store for the members of ``groups``, each a sequence of image records."""
        image_ids = map(attrgetter("image_id"), chain.from_iterable(groups))
        return cls(dict(zip(image_ids, count())), array("I", map(len, groups)))

    def read(self, predictions: Iterable[Prediction]) -> None:
        """Hold the first record of each member not held yet.

        A record for an image in no group, or for a member already held, is
        dropped as soon as it is read.
        """
        ordinal, starts, stops = self.ordinal, self.starts, self.stops
        codes, scores, label_codes = self.codes, self.scores, self.labels
        for image_id, entries in predictions:
            member = ordinal.get(image_id)
            if member is None or stops[member]:
                continue  # in no group, or held already
            top_score = entries[0][1]
            starts[member] = len(codes)
            codes.fromlist([label_codes.setdefault(label, len(label_codes))
                            for label, _ in entries])
            scores.fromlist([score / top_score for _, score in entries] if top_score > 0
                            else [0.0] * len(entries))
            stops[member] = len(codes)

    def columns(self) -> tuple:
        """The held members, their starts and stops, the codes, scores and labels; see ``join``.

        The codes and scores come as their arrays' bytes: an array pickles
        through one more copy of its bytes.
        """
        held = self.stops  # nonzero exactly for a held member
        return (array("I", compress(range(len(held)), held)),
                array("I", compress(self.starts, held)), array("I", compress(held, held)),
                self.codes.tobytes(), self.scores.tobytes(), list(self.labels))

    def join(self, columns: tuple) -> None:
        """Hold what another store's ``columns`` hold for each member not held here.

        The other store read later records of the same members, so a member
        held here keeps its record. Its codes are renumbered into this
        store's labels, and its codes and scores are appended once.
        """
        members, starts, stops, codes, scores, labels = columns
        label_codes = self.labels
        table = [label_codes.setdefault(label, len(label_codes)) for label in labels]
        offset = len(self.codes)
        self.codes.extend(map(table.__getitem__, memoryview(codes).cast("I")))
        self.scores.frombytes(scores)
        mine_starts, mine_stops = self.starts, self.stops
        for member, start, stop in zip(members, starts, stops):
            if not mine_stops[member]:
                mine_starts[member] = offset + start
                mine_stops[member] = offset + stop

    def halfway(self) -> int:
        """The group that holds the middle held entry, number ``total // 2`` in member order.

        Fusing the groups before it takes about as long as fusing the groups
        from it on. 0 when no entry is held.
        """
        # the entries held by each member and all members before it
        held = array("I", accumulate(map(sub, self.stops, self.starts)))
        if not held or not held[-1]:
            return 0
        return bisect_right(array("I", accumulate(self.sizes)), bisect_right(held, held[-1] // 2))


def sequence_aggregate(
    held: HeldPredictions,
    ids,
    issues: list[Issue],
    first: int = 0,
    last: int | None = None,
) -> Iterable[Prediction]:
    """Yield one fused, ranked record per burst group from ``first`` up to ``last``, in order.

    The normalized scores ``held`` holds for a group's members are averaged
    per label across the group's predicted members (absent labels contribute
    zero), in member order, and labels are re-ranked by descending mean with
    ties broken by label id. A group with no predicted member yields
    nothing. Nor does a group whose normalizing or summing overflows,
    leaving a mean that is not finite: it is appended to ``issues`` as one
    ``malformed_prediction`` keyed by its sequence id and naming each such
    label. ``ids`` is the ``stats.SequenceIds`` of every group; another count
    of ids than of groups raises ``ValueError``.

    Groups are walked by their sizes and ids by their offsets, so fusing
    touches no image record and no id string: a forked process that fuses
    copies none of their pages.
    """
    sizes = held.sizes
    if len(ids) != len(sizes):
        raise ValueError(f"{len(ids)} sequence ids for {len(sizes)} groups")
    labels = list(held.labels)
    codes, scores = held.codes, held.scores
    text, ends = ids.text, ids.ends
    member = sum(sizes[:first])
    bounds = zip(islice(held.starts, member, None), islice(held.stops, member, None))
    for group, size in enumerate(sizes[first:last], first):
        sums: dict[int, float] = {}
        predicted = 0
        for start, stop in islice(bounds, size):
            if start != stop:
                predicted += 1
                for code, normalized in zip(codes[start:stop], scores[start:stop]):
                    sums[code] = sums.get(code, 0.0) + normalized
        if not predicted:
            continue
        key = text[ends[group]:ends[group + 1]]
        if not all(map(math.isfinite, sums.values())):
            overflowed = sorted(labels[code] for code, value in sums.items()
                                if not math.isfinite(value))
            issues.append(Issue(IssueKind.MALFORMED_PREDICTION, key,
                                f"mean score of {', '.join(map(repr, overflowed))} is not finite, "
                                "fused record dropped"))
            continue
        ranked = sorted([(-value / predicted, labels[code]) for code, value in sums.items()])
        yield key, tuple([(label, -negated) for negated, label in ranked])


def _value_text(value):
    return "undefined" if value is None else value


def write_metrics(report: MetricsReport, stream: IO[str]) -> None:
    """Machine-readable `metric,label_id_or_overall,value` rows."""
    rows = [METRICS_COLUMNS, ["level", "overall", report.level.name.lower()]]
    for k in sorted(report.topk):
        rows.append([f"top{k}_accuracy", "overall", _value_text(report.topk[k])])
    for k in sorted(report.topk_nonblank):
        rows.append([
            f"top{k}_accuracy_nonblank", "overall", _value_text(report.topk_nonblank[k])
        ])
    rows.append(["evaluated_images", "overall", report.evaluated])
    rows.append(["skipped_images", "overall", report.skipped])
    rows.append(["unresolved_predictions", "overall", report.unresolved_predictions])
    rows.append(["blank_precision", "overall", _value_text(report.blank_precision)])
    rows.append(["blank_recall", "overall", _value_text(report.blank_recall)])
    for name, metrics in report.per_class.items():
        rows.append(["precision", name, _value_text(metrics.precision)])
        rows.append(["recall", name, _value_text(metrics.recall)])
        rows.append(["support", name, metrics.support])
    write_rows(stream, rows)


def summarize_metrics(report: MetricsReport) -> str:
    lines = [f"evaluation at {report.level.name.lower()} level:"]
    for k in sorted(report.topk):
        lines.append(f"  top-{k} accuracy          {report.topk[k]:.4f}")
    for k in sorted(report.topk_nonblank):
        value = report.topk_nonblank[k]
        text = f"{value:.4f}" if value is not None else "undefined"
        lines.append(f"  top-{k} accuracy (nonblank) {text}")
    blank_p = "undefined" if report.blank_precision is None else f"{report.blank_precision:.4f}"
    blank_r = "undefined" if report.blank_recall is None else f"{report.blank_recall:.4f}"
    lines.append(f"  blank precision          {blank_p}")
    lines.append(f"  blank recall             {blank_r}")
    lines.append(f"  evaluated images         {report.evaluated}")
    lines.append(f"  skipped (no prediction)  {report.skipped}")
    if report.unmatched_predictions:
        lines.append(f"  unmatched predictions    {report.unmatched_predictions}")
    if report.duplicate_predictions:
        lines.append(f"  duplicate predictions    {report.duplicate_predictions}")
    if report.unresolved_predictions:
        lines.append(f"  unresolved pred labels   {report.unresolved_predictions}")
    return "\n".join(lines)
