import io
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from trapkit.ingest import Deployment, ImageRecord, UnifiedDataset
from trapkit.stats import (
    ClassHistogram,
    blank_rate,
    class_distribution,
    class_weights,
    group_bursts,
    labeling_effort,
    skew_report,
    write_sequences,
    write_skew,
)
from trapkit.taxonomy import Level, TaxonRecord, TaxonomyTable

from oracles import burst_components, skew_curve

UTC = timezone.utc
T0 = datetime(2016, 1, 1, tzinfo=UTC)


def _table():
    records = {
        "a": TaxonRecord("a", "Mammalia", "Carnivora", "Felidae", "Panthera", "a"),
        "b": TaxonRecord("b", "Mammalia", "Carnivora", "Felidae", "Panthera", "b"),
        "c": TaxonRecord("c", "Mammalia", "Carnivora", "Canidae", "Canis", "c"),
        "blank": TaxonRecord("blank", special_kind="blank"),
        "unknown": TaxonRecord("unknown", special_kind="unknown"),
    }
    return TaxonomyTable(records, "blank", "unknown")


def _dataset(labels, sources=None, times=None, deployments=("d1",)):
    table = _table()
    deps = {d: Deployment(d, "p", 0.0, float(i)) for i, d in enumerate(deployments)}
    images = {}
    for index, label in enumerate(labels):
        images[f"i{index:03d}"] = ImageRecord(
            f"i{index:03d}",
            deployments[index % len(deployments)] if len(deployments) > 1 else deployments[0],
            times[index] if times else T0,
            label,
            None,
            sources[index] if sources else "s",
        )
    return UnifiedDataset(deps, images, table, ("s",))


# --------------------------------------------------------------- distribution


def test_distribution_at_native_labels():
    histogram = class_distribution(_dataset(["a", "a", "b"]))
    assert histogram.counts == {"a": 2, "b": 1}
    assert histogram.total == 3
    assert histogram.level is None


def test_distribution_rolled_to_shared_genus():
    histogram = class_distribution(_dataset(["a", "a", "b"]), level=Level.GENUS)
    assert histogram.counts == {"Panthera": 3}


def test_distribution_empty_dataset():
    histogram = class_distribution(_dataset([]))
    assert histogram.counts == {}
    assert histogram.total == 0


def test_distribution_counts_blanks_under_blank_label():
    histogram = class_distribution(_dataset(["a", "blank", "blank"]), level=Level.GENUS)
    assert histogram.counts == {"Panthera": 1, "blank": 2}
    filtered = class_distribution(
        _dataset(["a", "blank", "blank"]), level=Level.GENUS, include_blank=False
    )
    assert filtered.counts == {"Panthera": 1}
    assert filtered.total == 1


def test_histogram_conservation_across_levels():
    labels = ["a", "a", "b", "c", "blank"] * 4
    dataset = _dataset(labels)
    for level in [None, *Level]:
        assert class_distribution(dataset, level=level).total == len(labels)


# ----------------------------------------------------------------------- skew


def test_skew_top1_of_seventy_twenty_ten():
    histogram = ClassHistogram({"a": 70, "b": 20, "c": 10}, 100)
    report = skew_report(histogram, 1)
    assert report.coverage_fraction == 0.70


def test_skew_rejects_bad_inputs():
    histogram = ClassHistogram({"a": 1}, 1)
    with pytest.raises(ValueError):
        skew_report(histogram, 0)
    with pytest.raises(ValueError):
        skew_report(ClassHistogram({}, 0), 5)


def test_skew_ntop_beyond_label_count_is_full_coverage():
    report = skew_report(ClassHistogram({"a": 3, "b": 1}, 4), 10)
    assert report.coverage_fraction == 1.0


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_skew_curve_matches_sort_and_prefix_sum_oracle(seed):
    rng = random.Random(seed)
    counts = {f"l{i}": rng.randint(1, 500) for i in range(rng.randint(1, 40))}
    histogram = ClassHistogram(counts, sum(counts.values()))
    report = skew_report(histogram, rng.randint(1, 45))
    expected = skew_curve(counts)
    assert [(key, count, frac) for _, key, count, frac in report.curve] == expected
    fractions = [point[3] for point in report.curve]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


# ----------------------------------------------------------------- blank rate


def test_blank_rate_examples():
    assert blank_rate(_dataset(["blank"] * 3 + ["a"] * 7))[0] == 0.3
    assert blank_rate(_dataset(["blank"] * 5))[0] == 1.0
    with pytest.raises(ValueError):
        blank_rate(_dataset([]))


def test_blank_rates_per_source_match_hand_counts():
    labels = ["blank", "a", "blank", "b", "blank", "a"]
    sources = ["s1", "s1", "s1", "s2", "s2", "s2"]
    overall, rates = blank_rate(_dataset(labels, sources=sources))
    assert rates == {"s1": 2 / 3, "s2": 1 / 3}
    assert overall == 0.5


# --------------------------------------------------------------------- effort


def test_labeling_effort_examples():
    assert labeling_effort(270_000, 450.0) == 600.0
    assert labeling_effort(0, 450.0) == 0.0
    assert labeling_effort(300, 300.0) == 1.0
    with pytest.raises(ValueError):
        labeling_effort(10, 0.0)
    with pytest.raises(ValueError):
        labeling_effort(-1, 10.0)


@given(n=st.integers(0, 10**6), rate=st.floats(1.0, 1000.0))
@settings(max_examples=50, deadline=None)
def test_labeling_effort_is_linear(n, rate):
    assert labeling_effort(2 * n, rate) == pytest.approx(2 * labeling_effort(n, rate))


# --------------------------------------------------------------------- bursts


def test_burst_cut_at_the_single_large_gap():
    times = [T0, T0 + timedelta(seconds=1), T0 + timedelta(seconds=2),
             T0 + timedelta(seconds=300)]
    dataset = _dataset(["a", "a", "a", "a"], times=times)
    groups = group_bursts(dataset, max_gap_seconds=60)
    assert [group.image_ids for group in groups] == [
        ("i000", "i001", "i002"), ("i003",),
    ]
    assert groups[0].sequence_id == "d1:2016-01-01T00:00:00Z"
    assert groups[0].start_time == T0
    assert groups[0].end_time == T0 + timedelta(seconds=2)


def test_images_from_two_deployments_never_share_a_group():
    times = [T0, T0 + timedelta(seconds=1)] * 2
    dataset = _dataset(["a"] * 4, times=times, deployments=("d1", "d2"))
    groups = group_bursts(dataset, max_gap_seconds=60)
    for group in groups:
        deployments = {dataset.images[iid].deployment_id for iid in group.image_ids}
        assert len(deployments) == 1


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_grouping_matches_pairwise_closure_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    times = [T0 + timedelta(seconds=rng.randint(0, 500)) for _ in range(n)]
    dataset = _dataset(["a"] * n, times=times, deployments=("d1", "d2", "d3"))
    gap = rng.choice([5, 30, 60, 120])
    groups = group_bursts(dataset, max_gap_seconds=gap)
    expected = burst_components(dataset.images.values(), gap)
    assert sorted([list(g.image_ids) for g in groups]) == sorted(expected)


def test_groups_partition_the_time_sorted_deployment_list():
    rng = random.Random(5)
    times = [T0 + timedelta(seconds=rng.randint(0, 400)) for _ in range(50)]
    dataset = _dataset(["a"] * 50, times=times, deployments=("d1", "d2"))
    groups = group_bursts(dataset, max_gap_seconds=45)
    for dep_id in ("d1", "d2"):
        expected = [
            iid for iid, img in sorted(
                dataset.images.items(),
                key=lambda item: (item[1].timestamp, item[0]),
            )
            if img.deployment_id == dep_id
        ]
        concatenated = [
            iid for group in groups if group.deployment_id == dep_id
            for iid in group.image_ids
        ]
        assert concatenated == expected


# -------------------------------------------------------------------- weights


def test_weight_formula_on_skewed_histogram():
    weights = class_weights(ClassHistogram({"a": 90, "b": 10}, 100), cap=100.0)
    assert weights.weights["a"] == pytest.approx(100 / 180)
    assert weights.weights["b"] == 5.0
    assert weights.scheme == "inverse_frequency"


def test_uniform_histogram_gives_unit_weights():
    weights = class_weights(ClassHistogram({"a": 25, "b": 25, "c": 25, "d": 25}, 100), cap=9.0)
    assert set(weights.weights.values()) == {1.0}


def test_cap_clips_rare_class_weight():
    weights = class_weights(ClassHistogram({"a": 90, "b": 10}, 100), cap=2.0)
    assert weights.weights["b"] == 2.0


def test_weights_reject_bad_inputs():
    with pytest.raises(ValueError):
        class_weights(ClassHistogram({"a": 1}, 1), cap=0.0)
    with pytest.raises(ValueError):
        class_weights(ClassHistogram({}, 0), cap=1.0)


# -------------------------------------------------------------------- exports


def test_skew_and_sequence_files_have_contract_headers():
    histogram = ClassHistogram({"a": 2, "b": 1}, 3)
    buffer = io.StringIO()
    write_skew(skew_report(histogram, 1), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "rank,label_id,count,cumulative_fraction"
    assert lines[1].startswith("1,a,2,")
    assert lines[-1].endswith("1.0")

    dataset = _dataset(["a", "a"], times=[T0, T0 + timedelta(seconds=1)])
    buffer = io.StringIO()
    write_sequences(group_bursts(dataset, 60), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "sequence_id,deployment_id,start_time,end_time,n_images,image_ids"
    assert "i000 i001" in lines[1]
