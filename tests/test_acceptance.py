"""Release acceptance suite.

One test per criterion, each at its stated tolerance. Every test prints a
single PASS/FAIL line (visible with `pytest -s` or on failure) before
asserting, so a red run still reports which criteria stand where.
"""

import math
import random
import resource
import time
from datetime import datetime, timezone

from trapkit.geosplit import SplitConfig, assign_regions, export_split, leakage_check, region_id
from trapkit.ingest import Deployment, ImageRecord, Source, UnifiedDataset, parse_deployments, parse_images, unify
from trapkit.scoring import evaluate, iter_predictions
from trapkit.stats import blank_rate, class_distribution, skew_report
from trapkit.taxonomy import Level, distinct_counts, parse_taxonomy, rollup

from generators import (
    random_dataset,
    random_predictions,
    random_taxonomy,
    random_truth,
    region_coordinates,
    tuned_zipf_exponent,
    zipf_weights,
)
from oracles import haversine_m, per_class_counts, topk_hits
from pipeline import artifact_files, run_pipeline

UTC = timezone.utc


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


# criterion 1 ------------------------------------------------------------


def test_criterion_1_leakage_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    for trial in range(100):
        n_regions = rng.randint(10, 500)
        dataset = random_dataset(
            rng, n_regions, total_images=3 * n_regions, zipf_exponent=1.3
        )
        assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=trial))
        violations = leakage_check(dataset, assignment)
        largest = max(assignment.region_image_counts.values())
        bound = largest / assignment.total_images
        drift = abs(assignment.realized_train_fraction - 0.9)
        if violations:
            failures.append(f"trial {trial}: {len(violations)} leakage violations")
        if not (assignment.train_images > 0 and assignment.eval_images > 0):
            failures.append(f"trial {trial}: empty fold")
        if drift > bound + 1e-12:
            failures.append(f"trial {trial}: drift {drift:.4f} > bound {bound:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(1, ok, f"100 random datasets: leakage-free, folds nonempty, "
                   f"|realized-0.9| within largest-region bound ({elapsed:.1f}s)")
    assert ok, failures[:5] or f"too slow: {elapsed:.1f}s"


# criteria 2 and 3 -------------------------------------------------------


def _metric_instances():
    for index in range(200):
        rng = random.Random(5000 + index)
        table = random_taxonomy(
            rng, n_species=rng.randint(3, 48), coarse_only_fraction=0.15
        )
        truth = random_truth(rng, table, rng.randint(10, 1000))
        predictions = random_predictions(rng, truth, table)
        yield index, rng, table, truth, predictions


def test_criterion_2_metric_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for index, rng, table, truth, predictions in _metric_instances():
        by_image = {record.image_id: record for record in predictions}
        level = rng.choice(list(Level))

        report = evaluate(predictions, truth, table, ks=(1, 2, 3), level=level)
        for k in (1, 2, 3):
            got = report.topk[k]
            want = topk_hits(by_image, truth, table, k, int(level)) / len(truth)
            if got != want:
                failures.append(f"instance {index}: top-{k} {got} != {want}")

        metrics = report.per_class
        expected = per_class_counts(by_image, truth, table, int(level))
        if set(metrics) != set(expected):
            failures.append(f"instance {index}: class key sets differ")
        else:
            for name, (tp, n_predicted, n_actual) in expected.items():
                got_m = metrics[name]
                want_precision = tp / n_predicted if n_predicted else None
                want_recall = tp / n_actual if n_actual else None
                if (got_m.precision, got_m.recall, got_m.support) != (
                    want_precision, want_recall, n_actual
                ):
                    failures.append(f"instance {index}: class {name} differs")

        species = evaluate(predictions, truth, table, ks=(1,))
        got_blank = (species.blank_precision, species.blank_recall)
        species_counts = per_class_counts(by_image, truth, table, int(Level.SPECIES))
        blank_row = species_counts.get(table.blank_label_id)
        if blank_row is None:
            want_blank = (None, None)
        else:
            tp, n_predicted, n_actual = blank_row
            want_blank = (
                tp / n_predicted if n_predicted else None,
                tp / n_actual if n_actual else None,
            )
        if got_blank != want_blank:
            failures.append(f"instance {index}: blank {got_blank} != {want_blank}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(2, ok, f"200 random instances match brute-force recomputation exactly "
                   f"({elapsed:.1f}s)")
    assert ok, failures[:5] or f"too slow: {elapsed:.1f}s"


def test_criterion_3_topk_and_rollup_monotonicity():
    failures = []
    fine_to_coarse = [Level.SPECIES, Level.GENUS, Level.FAMILY, Level.ORDER, Level.CLASS]
    for index, rng, table, truth, predictions in _metric_instances():
        per_level = {
            level: evaluate(predictions, truth, table, ks=(1, 2, 3), level=level).topk
            for level in fine_to_coarse
        }
        for level, topk in per_level.items():
            if not topk[1] <= topk[2] <= topk[3]:
                failures.append(f"instance {index}: k-monotonicity broken at {level}")
        for k in (1, 2, 3):
            series = [per_level[level][k] for level in fine_to_coarse]
            if series != sorted(series):
                failures.append(f"instance {index}: level-monotonicity broken at k={k}")
    ok = not failures
    _report(3, ok, "acc@1<=acc@2<=acc@3 and species<=genus<=family<=order<=class "
                   "on all 200 instances")
    assert ok, failures[:5]


# criterion 4 ------------------------------------------------------------


def test_criterion_4_taxonomy_suite(taxonomy_table):
    failures = []
    rng = random.Random(77)
    levels = list(Level)
    for trial in range(100):
        table = random_taxonomy(
            rng, n_species=rng.randint(2, 40), coarse_only_fraction=0.25
        )
        for label in table.records:
            for level in levels:
                once = rollup(label, level, table)
                if rollup(once, level, table) != once:
                    failures.append(f"trial {trial}: idempotence broken for {label}")
            for coarse in levels:
                for fine in levels:
                    if coarse > fine:
                        continue
                    via = rollup(rollup(label, fine, table), coarse, table)
                    direct = rollup(label, coarse, table)
                    if via != direct:
                        failures.append(f"trial {trial}: coarse-consistency broken")

    counts = distinct_counts(taxonomy_table)["Mammalia"]
    expected = {Level.ORDER: 2, Level.FAMILY: 3, Level.GENUS: 4, Level.SPECIES: 10}
    for level, want in expected.items():
        if counts[level] != want:
            failures.append(f"fixture distinct {level.name} = {counts[level]}, want {want}")
    ok = not failures
    _report(4, ok, "rollup idempotent and coarse-consistent on 100 random taxonomies; "
                   "fixture counts {order 2, family 3, genus 4, species 10}")
    assert ok, failures[:5]


# criterion 5 ------------------------------------------------------------


def test_criterion_5_region_binning_vs_geodesic_oracle():
    rng = random.Random(31337)
    meters_per_degree = math.pi * 6371000.0 / 180.0
    failures = []
    shared = 0
    pairs = 0
    while pairs < 10_000:
        lat = rng.uniform(-60.0, 60.0)
        lon = rng.uniform(-180.0, 180.0)
        distance = rng.uniform(0.0, 1000.0)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        lat2 = lat + distance * math.cos(bearing) / meters_per_degree
        lon2 = lon + distance * math.sin(bearing) / (
            meters_per_degree * math.cos(math.radians(lat))
        )
        if abs(lat2) > 60.0 or abs(lon2) > 180.0:
            continue
        pairs += 1
        true_distance = haversine_m(lat, lon, lat2, lon2)
        same_cell = region_id(lat, lon, 10.0) == region_id(lat2, lon2, 10.0)
        if same_cell:
            shared += 1
            if true_distance > 15.0:
                failures.append(f"shared cell at {true_distance:.2f} m")
        if true_distance > 30.0 and same_cell:
            failures.append(f"far pair ({true_distance:.2f} m) shares a cell")
    ok = not failures and shared > 0
    _report(5, ok, f"10k pairs: same-cell pairs <= 15 m, >30 m never share "
                   f"({shared} shared-cell pairs observed)")
    assert ok, failures[:5] or "no shared-cell pairs sampled"


# criterion 6 ------------------------------------------------------------


def test_criterion_6_end_to_end_determinism(tmp_path, fixture_dir):
    run_pipeline(fixture_dir, tmp_path / "run1", jobs=1)
    run_pipeline(fixture_dir, tmp_path / "run2", jobs=1)
    run_pipeline(fixture_dir, tmp_path / "run8", jobs=8)

    files = artifact_files(tmp_path / "run1")
    failures = []
    for other in ("run2", "run8"):
        if artifact_files(tmp_path / other) != files:
            failures.append(f"{other}: different artifact set")
    for relative in files:
        reference = (tmp_path / "run1" / relative).read_bytes()
        for other in ("run2", "run8"):
            if (tmp_path / other / relative).read_bytes() != reference:
                failures.append(f"{other}/{relative} differs")
    ok = not failures
    _report(6, ok, f"pipeline byte-identical across two runs and jobs 1 vs 8 "
                   f"({len(files)} artifacts)")
    assert ok, failures[:5]


# criterion 7 ------------------------------------------------------------

BULK_IMAGES = 1_000_000
BULK_DEPLOYMENTS = 2_000
BULK_SPECIES = 465


def _write_bulk_corpus(root):
    rng = random.Random(99)
    species = [f"sp{i}" for i in range(BULK_SPECIES)]

    with open(root / "taxonomy.csv", "w") as handle:
        handle.write("label_id,class_name,order_name,family_name,genus_name,"
                     "species_name,special_kind\n")
        for i in range(BULK_SPECIES):
            genus = i % 300
            family = genus % 120
            order = family % 40
            handle.write(f"sp{i},Mammalia,o{order},f{family},g{genus},s{i},\n")
        handle.write("blank,,,,,,blank\nunknown,,,,,,unknown\n")

    with open(root / "deployments.csv", "w") as handle:
        handle.write("deployment_id,project_id,latitude,longitude,camera_model,"
                     "start_time,end_time,notes\n")
        for d in range(BULK_DEPLOYMENTS):
            lat, lon = region_coordinates(d)
            handle.write(f"d{d},proj,{lat!r},{lon!r},,,,\n")

    clock = [f"2016-01-01T{s // 3600:02d}:{(s // 60) % 60:02d}:{s % 60:02d}Z"
             for s in range(86400)]
    pool = species + ["blank"]
    weights = [0.7 * w for w in zipf_weights(BULK_SPECIES, 1.3)] + [0.3]

    labels = []
    with open(root / "images.csv", "w") as handle:
        handle.write("image_id,deployment_id,timestamp,label_id,burst_index,source_id\n")
        for chunk_start in range(0, BULK_IMAGES, 100_000):
            size = min(100_000, BULK_IMAGES - chunk_start)
            chunk = rng.choices(pool, weights=weights, k=size)
            labels.extend(chunk)
            handle.writelines(
                f"i{chunk_start + j:07d},d{(chunk_start + j) % BULK_DEPLOYMENTS},"
                f"{clock[(chunk_start + j) % 86400]},{chunk[j]},,bulk\n"
                for j in range(size)
            )

    with open(root / "predictions.txt", "w") as handle:
        lines = []
        for index, truth in enumerate(labels):
            alt1 = species[(index * 7 + 1) % BULK_SPECIES]
            alt2 = species[(index * 7 + 3) % BULK_SPECIES]
            if alt1 == truth:
                alt1 = species[(index * 7 + 2) % BULK_SPECIES]
            if alt2 in (truth, alt1):
                alt2 = species[(index * 7 + 5) % BULK_SPECIES]
            if rng.random() < 0.72:
                lines.append(f"i{index:07d} {truth}:0.7 {alt1}:0.2 {alt2}:0.1\n")
            else:
                lines.append(f"i{index:07d} {alt1}:0.6 {truth}:0.3 {alt2}:0.1\n")
            if len(lines) >= 100_000:
                handle.writelines(lines)
                lines = []
        handle.writelines(lines)


def test_criterion_7_desk_scale_performance(tmp_path):
    _write_bulk_corpus(tmp_path)

    start = time.perf_counter()
    with open(tmp_path / "taxonomy.csv") as handle:
        table, _ = parse_taxonomy(handle)
    with open(tmp_path / "deployments.csv") as handle:
        deployments, dep_issues = parse_deployments(handle)
    with open(tmp_path / "images.csv") as handle:
        images, image_issues = parse_images(handle)
    dataset, unify_issues = unify([Source("bulk", deployments, images)], table)
    t_ingest = time.perf_counter() - start
    assert dataset.image_count == BULK_IMAGES
    assert not dep_issues and not image_issues and not unify_issues

    mark = time.perf_counter()
    assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=7))
    train_ids, eval_ids = export_split(dataset, assignment)
    with open(tmp_path / "train.txt", "w") as handle:
        handle.write("\n".join(train_ids))
    with open(tmp_path / "eval.txt", "w") as handle:
        handle.write("\n".join(eval_ids))
    t_split = time.perf_counter() - mark

    mark = time.perf_counter()
    truth = {image_id: dataset.images[image_id].label_id for image_id in eval_ids}
    issues = []
    with open(tmp_path / "predictions.txt") as handle:
        report = evaluate(iter_predictions(handle, issues), truth, table, ks=(1, 3, 5))
    t_eval = time.perf_counter() - mark

    total = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    ok = total < 60.0 and peak_gb < 2.0
    _report(7, ok, f"1M images: ingest {t_ingest:.1f}s + split {t_split:.1f}s + "
                   f"eval {t_eval:.1f}s = {total:.1f}s, peak rss {peak_gb:.2f} GB")
    assert report.evaluated == len(eval_ids) > 0
    assert 0.0 < report.topk[1] < 1.0 < report.evaluated
    assert ok, f"total {total:.1f}s, peak {peak_gb:.2f} GB"


# criterion 8 ------------------------------------------------------------


def test_criterion_8_paper_shape_sanity():
    target_coverage = 0.70
    target_blank = 0.30
    n_species = 465
    n_top = 20

    exponent = tuned_zipf_exponent(n_species, n_top, target_coverage)
    weights = zipf_weights(n_species, exponent)
    species_images = 70_000
    blank_images = 30_000

    rng = random.Random(8)
    table = random_taxonomy(rng, n_species=n_species)
    species = [f"sp{i}" for i in range(n_species)]
    ts = datetime(2016, 1, 1, tzinfo=UTC)
    deployments = {"d0": Deployment("d0", "p", 0.0043, 0.0043)}
    images = {}
    serial = 0

    def add(label, count):
        nonlocal serial
        for _ in range(count):
            images[f"i{serial}"] = ImageRecord(f"i{serial}", "d0", ts, label, None, "syn")
            serial += 1

    for index, weight in enumerate(weights):
        add(species[index], max(1, round(weight * species_images)))
    add("blank", blank_images)
    dataset = UnifiedDataset(deployments, images, table, ("syn",))

    histogram = class_distribution(dataset, include_blank=False, include_unknown=False)
    skew = skew_report(histogram, n_top)
    rate, _ = blank_rate(dataset)

    coverage_error = abs(skew.coverage_fraction - target_coverage)
    blank_error = abs(rate - target_blank)
    ok = coverage_error <= 0.02 and blank_error <= 0.005
    _report(8, ok, f"top-{n_top} of {n_species} species coverage "
                   f"{skew.coverage_fraction:.4f} (target {target_coverage}), "
                   f"blank rate {rate:.4f} (target {target_blank})")
    assert ok, f"coverage error {coverage_error:.4f}, blank error {blank_error:.4f}"
