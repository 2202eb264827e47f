import io
import math
import random
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from trapkit.errors import SplitError
from trapkit.geosplit import (
    EVAL,
    METERS_PER_DEGREE,
    TRAIN,
    RegionId,
    SplitConfig,
    assign_regions,
    export_split,
    image_folds,
    leakage_check,
    region_id,
    write_assignment,
    write_manifest,
)
from trapkit.ingest import Deployment, ImageRecord, UnifiedDataset
from trapkit.taxonomy import TaxonRecord, TaxonomyTable

from generators import random_dataset
from oracles import haversine_m

UTC = timezone.utc


def _tiny_table():
    return TaxonomyTable({"blank": TaxonRecord("blank", special_kind="blank")}, "blank",
                         "unknown")


def _dataset_with_regions(region_sizes, spacing_deg=0.01):
    """One deployment per region, wide apart, sized per the given mapping."""
    table = _tiny_table()
    ts = datetime(2016, 1, 1, tzinfo=UTC)
    deployments = {}
    images = {}
    serial = 0
    for index, (name, size) in enumerate(sorted(region_sizes.items())):
        dep_id = f"d_{name}"
        deployments[dep_id] = Deployment(dep_id, "p", 1.0 + index * spacing_deg, 2.0)
        for _ in range(size):
            images[f"i{serial}"] = ImageRecord(f"i{serial}", dep_id, ts, "blank", None, "s")
            serial += 1
    return UnifiedDataset(deployments, images, table, ("s",))


# ------------------------------------------------------------------ region_id


def test_origin_maps_to_origin_cell():
    assert region_id(0.0, 0.0, 100.0) == RegionId(0, 0, 100.0)


def test_cell_y_matches_meters_per_degree_arithmetic():
    # floor(0.0018 * 111320 / 100) = floor(2.00376) = 2
    assert region_id(0.0018, 0.0, 100.0).cell_y == 2
    assert math.floor(0.0018 * METERS_PER_DEGREE / 100.0) == 2


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        region_id(91.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        region_id(0.0, 200.0, 10.0)
    for cell_size_m in (0.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="cell_size_m"):
            region_id(0.0, 0.0, cell_size_m)
        with pytest.raises(ValueError):
            SplitConfig(0.9, cell_size_m)
    for train_fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="train_fraction must be in"):
            SplitConfig(train_fraction)
    # finite and positive, but the cell index overflows to infinity
    with pytest.raises(ValueError, match="cell_size_m"):
        region_id(45.0, 0.0, 1e-320)


def _offset_point(lat, lon, distance_m, bearing_rad):
    dlat = distance_m * math.cos(bearing_rad) / (math.pi * 6371000.0 / 180.0)
    dlon = distance_m * math.sin(bearing_rad) / (
        math.pi * 6371000.0 / 180.0 * math.cos(math.radians(lat))
    )
    return lat + dlat, lon + dlon


def test_points_five_meters_apart_differ_by_at_most_one_cell():
    rng = random.Random(7)
    for _ in range(2000):
        lat = rng.uniform(30.0, 50.0)  # mid-latitude band
        lon = rng.uniform(-179.0, 179.0)
        lat2, lon2 = _offset_point(lat, lon, 5.0, rng.uniform(0, 2 * math.pi))
        assert haversine_m(lat, lon, lat2, lon2) < 5.1
        a = region_id(lat, lon, 10.0)
        b = region_id(lat2, lon2, 10.0)
        assert abs(a.cell_x - b.cell_x) <= 1
        assert abs(a.cell_y - b.cell_y) <= 1


def test_same_cell_is_close_and_far_points_never_share():
    rng = random.Random(11)
    shared = 0
    for _ in range(5000):
        lat = rng.uniform(-60.0, 60.0)
        lon = rng.uniform(-179.5, 179.5)
        lat2, lon2 = _offset_point(lat, lon, rng.uniform(0.0, 60.0), rng.uniform(0, 2 * math.pi))
        distance = haversine_m(lat, lon, lat2, lon2)
        same = region_id(lat, lon, 10.0) == region_id(lat2, lon2, 10.0)
        if same:
            shared += 1
            assert distance <= 15.0
        if distance > 30.0:
            assert not same
    assert shared > 10  # the check must not be vacuous


def test_region_stable_under_millimeter_perturbation():
    rng = random.Random(3)
    mm_deg = 0.001 / METERS_PER_DEGREE
    for _ in range(500):
        # sample away from cell boundaries: keep a 0.5 m margin
        cell = region_id(rng.uniform(-60, 60), rng.uniform(-179, 179), 10.0)
        lat = (cell.cell_y + 0.5) * 10.0 / METERS_PER_DEGREE
        lon = (cell.cell_x + 0.5) * 10.0 / METERS_PER_DEGREE
        for _ in range(4):
            jitter_lat = lat + rng.uniform(-mm_deg, mm_deg)
            jitter_lon = lon + rng.uniform(-mm_deg, mm_deg)
            assert region_id(jitter_lat, jitter_lon, 10.0) == region_id(lat, lon, 10.0)


# ------------------------------------------------------------- assign_regions


def test_two_region_greedy_trace():
    dataset = _dataset_with_regions({"A": 90, "B": 10})
    outcomes = set()
    for seed in range(8):
        assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed))
        folds = {region: fold for region, fold in assignment.folds.items()}
        train_regions = {r for r, f in folds.items() if f == TRAIN}
        assert len(train_regions) == 1
        if assignment.train_images == 90:
            # permutation tried A first: A fits 0.9 exactly, B goes to eval
            assert assignment.realized_train_fraction == 0.9
            outcomes.add("A-first")
        else:
            # permutation tried B first: B fits, A would overshoot
            assert assignment.train_images == 10
            outcomes.add("B-first")
    assert outcomes == {"A-first", "B-first"}


def test_train_fraction_boundary_is_exact_rational_arithmetic():
    # Fraction(0.7) * 10 is just below 7, while the float product 0.7 * 10 rounds
    # to 7.0: only exact arithmetic keeps the 7-image region out of train.
    assert Fraction(0.7) * 10 < 7 <= 0.7 * 10
    dataset = _dataset_with_regions({"A": 7, "B": 3})
    region_of = {
        dep_id: region_id(dep.latitude, dep.longitude, 10.0)
        for dep_id, dep in dataset.deployments.items()
    }
    a_first = False
    for seed in range(8):
        order = sorted(region_of.values())
        random.Random(seed).shuffle(order)
        counts = {region_of["d_A"]: 7, region_of["d_B"]: 3}
        expected, train_images = {}, 0
        for region in order:
            fits = train_images + counts[region] <= Fraction(0.7) * 10
            expected[region] = TRAIN if fits else EVAL
            train_images += counts[region] if fits else 0
        a_first = a_first or order[0] == region_of["d_A"]

        assignment = assign_regions(dataset, SplitConfig(0.7, 10.0, seed))
        assert assignment.folds == expected
        assert assignment.folds[region_of["d_A"]] == EVAL
        assert assignment.train_images == 3
    assert a_first  # the seeds include the order in which float arithmetic would differ


def test_hundred_equal_regions_split_ninety_ten():
    dataset = _dataset_with_regions({f"r{n:03d}": 5 for n in range(100)})
    assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=42))
    train_regions = sum(1 for fold in assignment.folds.values() if fold == TRAIN)
    assert train_regions == 90
    assert assignment.train_images == 450
    assert assignment.eval_images == 50


def test_single_region_is_an_error():
    dataset = _dataset_with_regions({"only": 25})
    with pytest.raises(SplitError):
        assign_regions(dataset, SplitConfig())


def test_both_folds_nonempty_even_when_every_region_overshoots():
    dataset = _dataset_with_regions({"A": 60, "B": 60})
    assignment = assign_regions(dataset, SplitConfig(0.4, 10.0, seed=1))
    assert assignment.train_images > 0
    assert assignment.eval_images > 0


def test_assignment_deterministic_and_seed_sensitive():
    dataset = _dataset_with_regions({f"r{n:02d}": n + 1 for n in range(30)})
    first = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=5))
    second = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=5))
    assert first.folds == second.folds
    different = [
        assign_regions(dataset, SplitConfig(0.9, 10.0, seed=other)).folds
        for other in range(6, 16)
    ]
    assert any(folds != first.folds for folds in different)


def test_fraction_bound_on_random_datasets():
    for seed in range(12):
        rng = random.Random(seed)
        dataset = random_dataset(rng, n_regions=rng.randint(5, 60))
        assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=seed))
        largest = max(assignment.region_image_counts.values())
        bound = largest / assignment.total_images
        assert abs(assignment.realized_train_fraction - 0.9) <= bound + 1e-12


# -------------------------------------------------------------- leakage_check


def test_assign_regions_output_always_passes_leakage_check():
    dataset = _dataset_with_regions({f"r{n}": 3 * n + 1 for n in range(10)})
    assignment = assign_regions(dataset, SplitConfig(0.8, 10.0, seed=9))
    assert leakage_check(dataset, image_folds(dataset, assignment), 10.0) == []


def test_hand_corrupted_fold_mapping_names_the_region():
    dataset = _dataset_with_regions({"A": 6, "B": 4})
    assignment = assign_regions(dataset, SplitConfig(0.6, 10.0, seed=0))
    folds = image_folds(dataset, assignment)
    victim = next(iid for iid, img in dataset.images.items()
                  if img.deployment_id == "d_A")
    folds[victim] = EVAL if folds[victim] == TRAIN else TRAIN
    violations = leakage_check(dataset, folds, cell_size_m=10.0)
    assert len(violations) == 1
    assert violations[0].kind == "leakage"
    expected_region = region_id(dataset.deployments["d_A"].latitude,
                                dataset.deployments["d_A"].longitude, 10.0)
    assert violations[0].region == expected_region
    assert dict(violations[0].fold_counts) == {TRAIN: 5, EVAL: 1} or \
        dict(violations[0].fold_counts) == {TRAIN: 1, EVAL: 5}


def test_corrupting_k_regions_yields_exactly_k_violations():
    rng = random.Random(21)
    sizes = {f"r{n:02d}": rng.randint(2, 9) for n in range(20)}
    dataset = _dataset_with_regions(sizes)
    assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=2))
    folds = image_folds(dataset, assignment)

    by_region = {}
    for iid, img in dataset.images.items():
        by_region.setdefault(img.deployment_id, []).append(iid)
    victims = rng.sample(sorted(by_region), 7)
    for dep_id in victims:
        flip = by_region[dep_id][0]
        folds[flip] = EVAL if folds[flip] == TRAIN else TRAIN

    violations = leakage_check(dataset, folds, cell_size_m=10.0)
    assert len(violations) == 7
    assert all(v.kind == "leakage" for v in violations)


def test_missing_region_reports_unassigned():
    dataset = _dataset_with_regions({"A": 6, "B": 4, "C": 5})
    assignment = assign_regions(dataset, SplitConfig(0.6, 10.0, seed=0))
    damaged = dict(assignment.folds)
    removed = sorted(damaged)[0]
    del damaged[removed]
    broken = assignment._replace(folds=damaged)
    violations = leakage_check(dataset, image_folds(dataset, broken), 10.0)
    assert [v.kind for v in violations] == ["unassigned"]
    assert violations[0].region == removed


# --------------------------------------------------------------- export_split


def test_export_manifests_disjoint_exhaustive_sorted():
    dataset = _dataset_with_regions({f"r{n}": 10 for n in range(10)})
    assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=4))
    train_ids, eval_ids = export_split(dataset, assignment)
    assert len(train_ids) + len(eval_ids) == 100
    assert not set(train_ids) & set(eval_ids)
    assert train_ids == sorted(train_ids)
    assert eval_ids == sorted(eval_ids)


def test_export_refuses_damaged_assignment():
    dataset = _dataset_with_regions({"A": 6, "B": 4, "C": 5})
    assignment = assign_regions(dataset, SplitConfig(0.6, 10.0, seed=0))
    damaged = dict(assignment.folds)
    del damaged[sorted(damaged)[0]]
    broken = assignment._replace(folds=damaged)
    with pytest.raises(SplitError):
        export_split(dataset, broken)


def test_manifest_and_assignment_bytes_are_deterministic():
    dataset = _dataset_with_regions({f"r{n}": n + 1 for n in range(15)})
    outputs = []
    for _ in range(2):
        assignment = assign_regions(dataset, SplitConfig(0.9, 10.0, seed=13))
        train_ids, eval_ids = export_split(dataset, assignment)
        train_buf, eval_buf, assign_buf = io.StringIO(), io.StringIO(), io.StringIO()
        write_manifest(train_ids, train_buf)
        write_manifest(eval_ids, eval_buf)
        write_assignment(assignment, assign_buf)
        outputs.append((train_buf.getvalue(), eval_buf.getvalue(), assign_buf.getvalue()))
    assert outputs[0] == outputs[1]
