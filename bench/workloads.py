"""Seeded input generators for the three benchmark workloads.

Each generator writes a complete input set (taxonomy, range map,
predictions, and one deployments/images pair per source) into a directory
and returns the expectations it planted: which images survive
unification, how many issues of each kind `ingest` must report, the rank
of every image's true label in its prediction (after rollup to the
evaluation level), and how many burst sequences the images form. The
checker compares the program's artifacts against these expectations; the
program itself only ever sees the generated files.

Scales are chosen so one eight-command pipeline takes a few seconds on a
2-core machine, which lets a run repeat the pipeline and report medians.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

ISSUE_KINDS = [
    "orphan_image",
    "bad_coordinate",
    "bad_timestamp",
    "unknown_label",
    "duplicate_id",
    "missing_field",
    "tree_inconsistency",
    "malformed_prediction",
    "unsorted_scores",
]

METERS_PER_DEGREE = 111320.0
CELL_SIZE_M = 10.0
MAX_GAP_SECONDS = 60

TAXONOMY_HEADER = "label_id,class_name,order_name,family_name,genus_name,species_name,special_kind\n"
DEPLOYMENTS_HEADER = "deployment_id,project_id,latitude,longitude,camera_model,start_time,end_time,notes\n"
IMAGES_HEADER = "image_id,deployment_id,timestamp,label_id,burst_index,source_id\n"
RANGE_MAP_HEADER = "label_id,lat_min,lat_max,lon_min,lon_max\n"

EPOCH = datetime(2016, 1, 1, tzinfo=timezone.utc)


@dataclass
class Expected:
    """What the generator planted, in the terms the checker compares."""

    source_names: list[str]
    deployments: int
    issues: dict[str, int]
    # kept image id -> label id, deployment id
    truth: dict[str, str]
    image_deployment: dict[str, str]
    # canonical (first-occurrence) coordinates of every unified deployment
    deployment_coords: dict[str, tuple[float, float]]
    blank_labels: set[str]
    unknown_labels: set[str]
    # kept image id -> 0-based rank of the true label in the rolled, deduplicated
    # ranking; images whose ranking misses the truth or that have no parseable
    # prediction line are absent
    rank: dict[str, int]
    # kept image ids that have a parseable prediction line
    predicted: set[str]
    # image ids of every parseable prediction line, in file order
    prediction_ids: list[str]
    bursts: int
    predicted_bursts: int


@dataclass
class Workload:
    name: str
    jobs: int
    eval_flags: list[str]
    sources: list[tuple[str, Path, Path]]  # (name, deployments.csv, images.csv)
    taxonomy: Path
    predictions: Path
    range_map: Path
    expected: Expected = field(repr=False)


def zipf_weights(n, exponent):
    weights = [1.0 / (i ** exponent) for i in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def timestamp_text(seconds: int, naive: bool = False) -> str:
    text = (EPOCH + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%S")
    return text if naive else text + "Z"


def grid_cell(latitude: float, longitude: float) -> tuple[int, int]:
    """The README's binning rule: 111320 m per degree on both axes."""
    return (
        math.floor(longitude * METERS_PER_DEGREE / CELL_SIZE_M),
        math.floor(latitude * METERS_PER_DEGREE / CELL_SIZE_M),
    )


def count_bursts(times: dict[str, tuple[str, int]], predicted: set[str]) -> tuple[int, int]:
    """(burst count, bursts with a predicted member) from integer timestamps.

    ``times`` maps image id to (deployment id, seconds). A burst ends where
    the gap to the deployment's next image exceeds MAX_GAP_SECONDS.
    """
    by_deployment: dict[str, list[tuple[int, str]]] = {}
    for image_id, (dep_id, seconds) in times.items():
        by_deployment.setdefault(dep_id, []).append((seconds, image_id))
    bursts = 0
    with_prediction = 0
    for members in by_deployment.values():
        members.sort()
        previous = None
        has_prediction = False
        for seconds, image_id in members:
            if previous is not None and seconds - previous > MAX_GAP_SECONDS:
                bursts += 1
                with_prediction += has_prediction
                has_prediction = False
            has_prediction = has_prediction or image_id in predicted
            previous = seconds
        bursts += 1
        with_prediction += has_prediction
    return bursts, with_prediction


def _write(path: Path, header: str, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        handle.writelines(lines)


def _species_taxonomy(n_species: int) -> list[str]:
    """Tree-consistent taxonomy rows in the criterion-7 corpus shape."""
    rows = []
    for i in range(n_species):
        genus = i % 300
        family = genus % 120
        order = family % 40
        rows.append(f"sp{i},Mammalia,o{order},f{family},g{genus},s{i},\n")
    rows.append("blank,,,,,,blank\n")
    rows.append("unknown,,,,,,unknown\n")
    return rows


def _zero_issues() -> dict[str, int]:
    return {kind: 0 for kind in ISSUE_KINDS}


# bulk-clean -------------------------------------------------------------

BULK_IMAGES = 24_000
BULK_DEPLOYMENTS = 2000
BULK_SPECIES = 465


def bulk_clean(seed: int, root: Path) -> Workload:
    """One clean source in the criterion-7 corpus shape, scaled down.

    Zipf species plus 30% blank, 3-entry rankings with the truth first or
    second, zero defects. Every timestamp string is used about twice, and
    images of one deployment are far apart in time, so each image is its
    own burst.
    """
    rng = random.Random(seed)
    species = [f"sp{i}" for i in range(BULK_SPECIES)]
    _write(root / "taxonomy.csv", TAXONOMY_HEADER, _species_taxonomy(BULK_SPECIES))

    coords = {}
    dep_lines = []
    for d in range(BULK_DEPLOYMENTS):
        row, col = divmod(d, 100)
        lat, lon = -50.0 + row * 0.01 + 0.0043, -120.0 + col * 0.01 + 0.0043
        coords[f"d{d}"] = (lat, lon)
        dep_lines.append(f"d{d},proj,{lat!r},{lon!r},,,,\n")
    deployments_path = root / "bulk" / "deployments.csv"
    _write(deployments_path, DEPLOYMENTS_HEADER, dep_lines)

    # Half as many distinct seconds as images, offset by half a deployment
    # cycle so no two images of one deployment fall within a burst gap.
    distinct_seconds = BULK_IMAGES // 2 + BULK_DEPLOYMENTS // 2
    clock = [timestamp_text(s) for s in range(distinct_seconds)]
    pool = species + ["blank"]
    cum_weights = list(accumulate([0.7 * w for w in zipf_weights(BULK_SPECIES, 1.3)] + [0.3]))
    labels = rng.choices(pool, cum_weights=cum_weights, k=BULK_IMAGES)

    truth, image_dep, times = {}, {}, {}
    image_lines = []
    for index, label in enumerate(labels):
        image_id = f"i{index:07d}"
        dep_id = f"d{index % BULK_DEPLOYMENTS}"
        seconds = index % distinct_seconds
        image_lines.append(f"{image_id},{dep_id},{clock[seconds]},{label},,bulk\n")
        truth[image_id] = label
        image_dep[image_id] = dep_id
        times[image_id] = (dep_id, seconds)
    images_path = root / "bulk" / "images.csv"
    _write(images_path, IMAGES_HEADER, image_lines)

    rank = {}
    prediction_lines = []
    for index, label in enumerate(labels):
        alt1 = species[(index * 7 + 1) % BULK_SPECIES]
        alt2 = species[(index * 7 + 3) % BULK_SPECIES]
        if alt1 == label:
            alt1 = species[(index * 7 + 2) % BULK_SPECIES]
        if alt2 in (label, alt1):
            alt2 = species[(index * 7 + 5) % BULK_SPECIES]
        image_id = f"i{index:07d}"
        if rng.random() < 0.72:
            prediction_lines.append(f"{image_id} {label}:0.7 {alt1}:0.2 {alt2}:0.1\n")
            rank[image_id] = 0
        else:
            prediction_lines.append(f"{image_id} {alt1}:0.6 {label}:0.3 {alt2}:0.1\n")
            rank[image_id] = 1
    _write(root / "predictions.txt", "", prediction_lines)

    # A tenth of the species may only occur in the southern half of the grid.
    range_lines = [
        f"sp{i},-50.0,-49.9,-120.0,-119.0\n" for i in range(0, BULK_SPECIES, 10)
    ]
    _write(root / "range_map.csv", RANGE_MAP_HEADER, range_lines)

    predicted = set(truth)
    bursts, predicted_bursts = count_bursts(times, predicted)
    expected = Expected(
        source_names=["bulk"],
        deployments=BULK_DEPLOYMENTS,
        issues=_zero_issues(),
        truth=truth,
        image_deployment=image_dep,
        deployment_coords=coords,
        blank_labels={"blank"},
        unknown_labels={"unknown"},
        rank=rank,
        predicted=predicted,
        prediction_ids=list(truth),
        bursts=bursts,
        predicted_bursts=predicted_bursts,
    )
    return Workload(
        name="bulk-clean",
        jobs=1,
        eval_flags=["--k", "1", "--k", "3", "--level", "species"],
        sources=[("bulk", deployments_path, images_path)],
        taxonomy=root / "taxonomy.csv",
        predictions=root / "predictions.txt",
        range_map=root / "range_map.csv",
        expected=expected,
    )


# partner-merge ----------------------------------------------------------

MERGE_SOURCES = 4
MERGE_DEPLOYMENTS = 7_000
MERGE_IMAGES = 18_000
MERGE_SPECIES = 300
MERGE_SHARED = 0.10
MERGE_BAD_DEPLOYMENTS = 0.02
MERGE_DEFECTIVE_IMAGES = 0.05
MERGE_MALFORMED_PREDICTIONS = 0.01
MERGE_UNSORTED_PREDICTIONS = 0.02
MERGE_SPAN_SECONDS = 5 * 365 * 86400

_IMAGE_DEFECTS = ["naive_timestamp", "bad_timestamp", "bad_burst", "orphan", "unknown_label"]


def partner_merge(seed: int, root: Path) -> Workload:
    """Four overlapping partner exports with about 5% defective rows.

    About a tenth of deployment and image ids appear in two sources, half
    as identical copies and half as conflicting ones. Deployments are
    spread worldwide, so nearly every one is its own populated region.
    Timestamps are random seconds over five years and almost never repeat.
    """
    rng = random.Random(seed)
    names = [f"partner{i}" for i in range(MERGE_SOURCES)]
    species = [f"sp{i}" for i in range(MERGE_SPECIES)]
    _write(root / "taxonomy.csv", TAXONOMY_HEADER, _species_taxonomy(MERGE_SPECIES))
    issues = _zero_issues()

    dep_rows: list[list[tuple[int, str]]] = [[] for _ in names]  # (order key, line)
    coords: dict[str, tuple[float, float]] = {}
    dep_owner: list[int] = []
    for d in range(MERGE_DEPLOYMENTS):
        dep_id = f"pd{d:06d}"
        lat = round(rng.uniform(-55.0, 70.0), 5)
        lon = round(rng.uniform(-179.9, 179.9), 5)
        owner = rng.randrange(MERGE_SOURCES)
        dep_owner.append(owner)
        line = f"{dep_id},proj{owner},{lat!r},{lon!r},cam,,,\n"
        dep_rows[owner].append((d, line))
        coords[dep_id] = (lat, lon)
        if rng.random() < MERGE_SHARED:
            other = rng.choice([s for s in range(MERGE_SOURCES) if s != owner])
            if rng.random() < 0.5:
                copy = line
            else:
                copy = f"{dep_id},proj{owner},{round(lat + 0.001, 5)!r},{lon!r},cam,,,\n"
                if other < owner:  # the conflicting copy is seen first and wins
                    coords[dep_id] = (round(lat + 0.001, 5), lon)
            dep_rows[other].append((d, copy))
            issues["duplicate_id"] += 1
    bad_deployments = int(MERGE_DEPLOYMENTS * MERGE_BAD_DEPLOYMENTS)
    for b in range(bad_deployments):
        source = rng.randrange(MERGE_SOURCES)
        lat_text = "95.5" if b % 2 else "north"
        line = f"pbad{b:05d},proj{source},{lat_text},10.0,,,,\n"
        dep_rows[source].append((rng.randrange(MERGE_DEPLOYMENTS), line))
        issues["bad_coordinate"] += 1

    label_pool = species + ["blank"]
    cum_weights = list(accumulate([0.75 * w for w in zipf_weights(MERGE_SPECIES, 1.1)] + [0.25]))

    image_rows: list[list[str]] = [[] for _ in names]
    truth, image_dep, times = {}, {}, {}
    universe: list[tuple[str, str | None]] = []  # (image id, kept label or None)
    for n in range(MERGE_IMAGES):
        image_id = f"pi{n:07d}"
        d = rng.randrange(MERGE_DEPLOYMENTS)
        dep_id = f"pd{d:06d}"
        owner = dep_owner[d]
        seconds = rng.randrange(MERGE_SPAN_SECONDS)
        label = rng.choices(label_pool, cum_weights=cum_weights)[0]
        burst = "0" if rng.random() < 0.5 else ""
        roll = rng.random()
        if roll < MERGE_SHARED:
            line = f"{image_id},{dep_id},{timestamp_text(seconds)},{label},{burst},{names[owner]}\n"
            other = rng.choice([s for s in range(MERGE_SOURCES) if s != owner])
            copy = line
            if rng.random() >= 0.5:
                alt = species[0]
                if label != "blank":
                    alt = species[(species.index(label) + 1) % MERGE_SPECIES]
                copy = f"{image_id},{dep_id},{timestamp_text(seconds)},{alt},{burst},{names[owner]}\n"
                if other < owner:
                    label = alt
            image_rows[owner].append(line)
            image_rows[other].append(copy)
            issues["duplicate_id"] += 1
        else:
            defect = None
            if roll < MERGE_SHARED + MERGE_DEFECTIVE_IMAGES:
                share = (roll - MERGE_SHARED) / MERGE_DEFECTIVE_IMAGES
                defect = _IMAGE_DEFECTS[int(share * len(_IMAGE_DEFECTS))]
            ts_text = timestamp_text(seconds, naive=defect == "naive_timestamp")
            if defect == "bad_timestamp":
                ts_text = "2016-13-45T99:00:00Z"
            if defect == "bad_burst":
                burst = "x" if n % 2 else "-3"
            if defect == "orphan":
                dep_id = f"pgone{n:07d}"
            if defect == "unknown_label":
                label = f"sp_bogus{n % 7}"
            image_rows[owner].append(
                f"{image_id},{dep_id},{ts_text},{label},{burst},{names[owner]}\n"
            )
            if defect in ("naive_timestamp", "bad_timestamp"):
                issues["bad_timestamp"] += 1
            elif defect == "bad_burst":
                issues["missing_field"] += 1
            elif defect == "orphan":
                issues["orphan_image"] += 1
            elif defect == "unknown_label":
                issues["unknown_label"] += 1
            if defect in ("bad_timestamp", "orphan", "unknown_label"):
                universe.append((image_id, None))
                continue
        truth[image_id] = label
        image_dep[image_id] = dep_id
        times[image_id] = (dep_id, seconds)
        universe.append((image_id, label))

    sources = []
    for index, name in enumerate(names):
        deployments_path = root / name / "deployments.csv"
        images_path = root / name / "images.csv"
        _write(deployments_path, DEPLOYMENTS_HEADER, [line for _, line in sorted(dep_rows[index])])
        _write(images_path, IMAGES_HEADER, image_rows[index])
        sources.append((name, deployments_path, images_path))

    rank, predicted, prediction_ids = {}, set(), []
    prediction_lines = []
    for image_id, label in universe:
        roll = rng.random()
        if roll < MERGE_MALFORMED_PREDICTIONS:
            if roll < MERGE_MALFORMED_PREDICTIONS / 2:
                prediction_lines.append(f"{image_id}\n")
            else:
                prediction_lines.append(f"{image_id} sp1:0.5 sp2:zz\n")
            continue
        truth_label = label or "sp0"
        others = [s for s in rng.sample(species, 6) if s != truth_label][:4]
        planted = rng.random()
        if planted < 0.65:
            position = 0
        elif planted < 0.9:
            position = rng.randrange(1, 5)
        else:
            position = None
        ranking = others[:]
        if position is not None:
            ranking.insert(position, truth_label)
        ranking = ranking[:5]
        scores = ("0.55", "0.2", "0.12", "0.08", "0.05")
        tokens = [f"{lab}:{score}" for lab, score in zip(ranking, scores)]
        if rng.random() < MERGE_UNSORTED_PREDICTIONS:
            tokens[0], tokens[1] = tokens[1], tokens[0]  # re-sorted by the parser
        prediction_lines.append(f"{image_id} {' '.join(tokens)}\n")
        prediction_ids.append(image_id)
        if label is not None:
            predicted.add(image_id)
            if position is not None:
                rank[image_id] = position
    _write(root / "predictions.txt", "", prediction_lines)

    range_lines = []
    for i in range(0, MERGE_SPECIES, 3):
        lat_min = round(rng.uniform(-55.0, 30.0), 2)
        lon_min = round(rng.uniform(-180.0, 60.0), 2)
        range_lines.append(f"sp{i},{lat_min},{lat_min + 40.0},{lon_min},{lon_min + 120.0}\n")
    _write(root / "range_map.csv", RANGE_MAP_HEADER, range_lines)

    bursts, predicted_bursts = count_bursts(times, predicted)
    expected = Expected(
        source_names=names,
        deployments=MERGE_DEPLOYMENTS,
        issues=issues,
        truth=truth,
        image_deployment=image_dep,
        deployment_coords=coords,
        blank_labels={"blank"},
        unknown_labels={"unknown"},
        rank=rank,
        predicted=predicted,
        prediction_ids=prediction_ids,
        bursts=bursts,
        predicted_bursts=predicted_bursts,
    )
    return Workload(
        name="partner-merge",
        jobs=2,
        eval_flags=["--k", "1", "--k", "3", "--level", "species"],
        sources=sources,
        taxonomy=root / "taxonomy.csv",
        predictions=root / "predictions.txt",
        range_map=root / "range_map.csv",
        expected=expected,
    )


# ranked-bursts ----------------------------------------------------------

RANKED_IMAGES = 13_000
RANKED_DEPLOYMENTS = 120
RANKED_GENERA = 360
RANKED_SPECIES_PER_GENUS = 5
RANKED_GENUS_ONLY = 160
RANKED_FAMILY_ONLY = 40
RANKED_ENTRIES = 20
RANKED_BOXES = 4


def _ranked_taxonomy():
    """About 2000 labels, a tenth of them genus-only or family-only.

    Returns the rows and, for every label, its rollup key at genus level:
    the genus for species and genus-only labels, the family (which no
    species key can equal) for family-only labels.
    """
    classes = ["Mammalia", "Aves", "Reptilia"]
    rows, key = [], {}

    def lineage(genus):
        family = genus // 4
        order = family // 3
        return classes[order % 3], f"o{order}", f"f{family}", f"g{genus}"

    for genus in range(RANKED_GENERA):
        cls, order, family, gname = lineage(genus)
        for j in range(RANKED_SPECIES_PER_GENUS):
            label = f"sp{genus * RANKED_SPECIES_PER_GENUS + j}"
            rows.append(f"{label},{cls},{order},{family},{gname},{gname} s{j},\n")
            key[label] = ("genus", genus)
    for genus in range(RANKED_GENUS_ONLY):
        cls, order, family, gname = lineage(genus)
        rows.append(f"gen{genus},{cls},{order},{family},{gname},,\n")
        key[f"gen{genus}"] = ("genus", genus)
    for family in range(RANKED_FAMILY_ONLY):
        cls, order, fname, _ = lineage(family * 4)
        rows.append(f"fam{family},{cls},{order},{fname},,,\n")
        key[f"fam{family}"] = ("family", family)
    rows.append("blank,,,,,,blank\nunknown,,,,,,unknown\n")
    key["blank"] = ("blank", 0)
    return rows, key


def _score_table(rng: random.Random, count: int) -> list[list[str]]:
    """Strictly decreasing score vectors, formatted once and reused."""
    table = []
    for _ in range(count):
        score = rng.uniform(0.4, 0.9)
        decay = rng.uniform(0.6, 0.85)
        vector = []
        for _ in range(RANKED_ENTRIES):
            vector.append(format(score, ".6g"))
            score *= decay
        table.append(vector)
    return table


def ranked_bursts(seed: int, root: Path) -> Workload:
    """Bursts of about ten one-second frames with 20-entry rankings.

    Evaluation rolls labels up to genus. Every ranking holds labels from
    distinct genus keys, so the planted position of the truth key is its
    rank after rollup and deduplication; a third of species truths are
    predicted through a sibling species of the same genus.
    """
    rng = random.Random(seed)
    rows, key = _ranked_taxonomy()
    _write(root / "taxonomy.csv", TAXONOMY_HEADER, rows)
    n_species = RANKED_GENERA * RANKED_SPECIES_PER_GENUS
    species = [f"sp{i}" for i in range(n_species)]
    coarse = [f"gen{g}" for g in range(RANKED_GENUS_ONLY)]
    coarse += [f"fam{f}" for f in range(RANKED_FAMILY_ONLY)]

    coords = {}
    dep_lines = []
    for d in range(RANKED_DEPLOYMENTS):
        lat = round(rng.uniform(-40.0, 60.0), 5)
        lon = round(rng.uniform(-150.0, 150.0), 5)
        coords[f"rd{d:04d}"] = (lat, lon)
        dep_lines.append(f"rd{d:04d},proj,{lat!r},{lon!r},,,,\n")
    deployments_path = root / "ranked" / "deployments.csv"
    _write(deployments_path, DEPLOYMENTS_HEADER, dep_lines)

    species_cum = list(accumulate(zipf_weights(n_species, 1.05)))
    clock = [rng.randrange(86400) for _ in range(RANKED_DEPLOYMENTS)]
    truth, image_dep, times = {}, {}, {}
    image_lines = []
    serial = 0
    while serial < RANKED_IMAGES:
        d = rng.randrange(RANKED_DEPLOYMENTS)
        dep_id = f"rd{d:04d}"
        roll = rng.random()
        if roll < 0.1:
            label = "blank"
        elif roll < 0.2:
            label = rng.choice(coarse)
        else:
            label = rng.choices(species, cum_weights=species_cum)[0]
        size = min(rng.randint(6, 14), RANKED_IMAGES - serial)
        start = clock[d]
        for frame in range(size):
            image_id = f"r{serial:07d}"
            serial += 1
            image_lines.append(
                f"{image_id},{dep_id},{timestamp_text(start + frame)},{label},{frame},ranked\n"
            )
            truth[image_id] = label
            image_dep[image_id] = dep_id
            times[image_id] = (dep_id, start + frame)
        clock[d] = start + size + rng.randint(2 * MAX_GAP_SECONDS, 7200)
    images_path = root / "ranked" / "images.csv"
    _write(images_path, IMAGES_HEADER, image_lines)

    scores = _score_table(rng, 64)
    rank = {}
    prediction_lines = []
    genera = range(RANKED_GENERA)
    for image_id, label in truth.items():
        kind, value = key[label]
        excluded = value if kind == "genus" else -1
        picks = [g for g in rng.sample(genera, RANKED_ENTRIES + 1) if g != excluded][:RANKED_ENTRIES]
        ranking = [
            species[g * RANKED_SPECIES_PER_GENUS + rng.randrange(RANKED_SPECIES_PER_GENUS)]
            for g in picks
        ]
        planted = rng.random()
        if planted < 0.45:
            position = 0
        elif planted < 0.8:
            position = rng.randrange(1, RANKED_ENTRIES)
        else:
            position = None
        if position is not None:
            stand_in = label
            if kind == "genus" and label.startswith("sp") and rng.random() < 0.33:
                sibling = rng.randrange(RANKED_SPECIES_PER_GENUS)
                stand_in = species[value * RANKED_SPECIES_PER_GENUS + sibling]
            ranking[position] = stand_in
            rank[image_id] = position
        vector = scores[rng.randrange(len(scores))]
        tokens = " ".join(f"{lab}:{score}" for lab, score in zip(ranking, vector))
        prediction_lines.append(f"{image_id} {tokens}\n")
    _write(root / "predictions.txt", "", prediction_lines)

    range_lines = []
    for label in species + coarse:
        for _ in range(RANKED_BOXES):
            lat_min = round(rng.uniform(-60.0, 40.0), 3)
            lon_min = round(rng.uniform(-180.0, 100.0), 3)
            range_lines.append(
                f"{label},{lat_min},{round(lat_min + rng.uniform(10.0, 40.0), 3)},"
                f"{lon_min},{round(lon_min + rng.uniform(20.0, 80.0), 3)}\n"
            )
    _write(root / "range_map.csv", RANGE_MAP_HEADER, range_lines)

    predicted = set(truth)
    bursts, predicted_bursts = count_bursts(times, predicted)
    expected = Expected(
        source_names=["ranked"],
        deployments=RANKED_DEPLOYMENTS,
        issues=_zero_issues(),
        truth=truth,
        image_deployment=image_dep,
        deployment_coords=coords,
        blank_labels={"blank"},
        unknown_labels={"unknown"},
        rank=rank,
        predicted=predicted,
        prediction_ids=list(truth),
        bursts=bursts,
        predicted_bursts=predicted_bursts,
    )
    return Workload(
        name="ranked-bursts",
        jobs=1,
        eval_flags=["--k", "1", "--k", "3", "--k", "5", "--level", "genus"],
        sources=[("ranked", deployments_path, images_path)],
        taxonomy=root / "taxonomy.csv",
        predictions=root / "predictions.txt",
        range_map=root / "range_map.csv",
        expected=expected,
    )


GENERATORS = {
    "bulk-clean": bulk_clean,
    "partner-merge": partner_merge,
    "ranked-bursts": ranked_bursts,
}


def generate(name: str, seed: int, root: Path) -> Workload:
    return GENERATORS[name](seed, Path(root))


def pipeline_commands(workload: Workload, out_root: Path) -> list[tuple[str, list[str]]]:
    """The eight-command fixture pipeline, pointed at one workload's inputs."""
    out_root = Path(out_root)
    dataset_flags = []
    for name, deployments, images in workload.sources:
        dataset_flags += ["--deployments", str(deployments), "--images", str(images)]
    dataset_flags += ["--taxonomy", str(workload.taxonomy)]
    for name, _, _ in workload.sources:
        dataset_flags += ["--source-name", name]
    dataset_flags += ["--jobs", str(workload.jobs), "--overwrite"]
    predictions = str(workload.predictions)
    return [
        ("ingest", ["ingest", *dataset_flags, "-o", str(out_root / "ingest")]),
        ("validate", ["validate", *dataset_flags, "-o", str(out_root / "validate")]),
        ("stats", ["stats", *dataset_flags, "--top-n", "5", "-o", str(out_root / "stats")]),
        ("split", ["split", *dataset_flags, "--train-fraction", "0.9", "--cell-size-m",
                   str(CELL_SIZE_M), "--seed", "42", "-o", str(out_root / "split")]),
        ("eval", ["eval", *dataset_flags, "--predictions", predictions,
                  "--split", str(out_root / "split" / "eval.txt"),
                  *workload.eval_flags, "-o", str(out_root / "eval")]),
        ("geofilter", ["geofilter", *dataset_flags, "--predictions", predictions,
                       "--range-map", str(workload.range_map), "-o", str(out_root / "geofilter")]),
        ("weights", ["weights", *dataset_flags, "--cap", "100", "-o", str(out_root / "weights")]),
        ("sequences", ["sequences", *dataset_flags, "--max-gap-seconds", str(MAX_GAP_SECONDS),
                       "--predictions", predictions, "-o", str(out_root / "sequences")]),
    ]
