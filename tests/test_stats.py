import csv
import io
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from trapkit import stats
from trapkit.errors import LabelNotFoundError
from trapkit.ingest import Deployment, ImageRecord, UnifiedDataset
from trapkit.stats import (
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

from oracles import burst_components, burst_rows, skew_curve

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
    assert class_distribution(_dataset(["a", "a", "b"])) == {"a": 2, "b": 1}


def test_distribution_rolled_to_shared_genus():
    assert class_distribution(_dataset(["a", "a", "b"]), level=Level.GENUS) == {"Panthera": 3}


def test_distribution_empty_dataset():
    assert class_distribution(_dataset([])) == {}


def test_distribution_counts_blanks_under_blank_label():
    labels = ["a", "blank", "blank", "unknown"]
    histogram = class_distribution(_dataset(labels), level=Level.GENUS)
    assert histogram == {"Panthera": 1, "blank": 2, "unknown": 1}
    filtered = class_distribution(_dataset(labels), level=Level.GENUS, include_special=False)
    assert filtered == {"Panthera": 1}


def test_histogram_conservation_across_levels():
    labels = ["a", "a", "b", "c", "blank"] * 4
    dataset = _dataset(labels)
    for level in [None, *Level]:
        assert sum(class_distribution(dataset, level=level).values()) == len(labels)


@pytest.mark.parametrize("tally", [
    class_distribution,
    lambda dataset: class_distribution(dataset, level=Level.GENUS),
    lambda dataset: class_distribution(dataset, include_special=False),
    blank_rate,
], ids=["labels", "genus", "no_special", "blank_rate"])
def test_label_missing_from_the_table_raises(tally):
    # the image is not dropped: a label that no table row names is an error
    with pytest.raises(LabelNotFoundError, match="'z' not in taxonomy"):
        tally(_dataset(["a", "blank", "z", "b"]))


def test_each_distinct_label_is_looked_up_once(monkeypatch):
    resolved, rolled = [], []
    resolve, rollup = TaxonomyTable.resolve, stats.rollup

    def counting_resolve(self, label_id):
        resolved.append(label_id)
        return resolve(self, label_id)

    def counting_rollup(label, level, table):
        rolled.append(label)
        return rollup(label, level, table)

    monkeypatch.setattr(TaxonomyTable, "resolve", counting_resolve)
    monkeypatch.setattr(stats, "rollup", counting_rollup)
    dataset = _dataset(["a"] * 5 + ["blank"] * 5)
    assert class_distribution(dataset, include_special=False) == {"a": 5}
    assert set(resolved) <= {"a", "blank"} and len(resolved) == len(set(resolved))
    assert class_distribution(dataset, level=Level.GENUS) == {"Panthera": 5, "blank": 5}
    assert set(rolled) <= {"a", "blank"}  # never a taxonomy row no image carries


# ----------------------------------------------------------------------- skew


def test_skew_top1_of_seventy_twenty_ten():
    report = skew_report({"a": 70, "b": 20, "c": 10}, 1)
    assert report.coverage_fraction == 0.70


def test_skew_rejects_bad_inputs():
    with pytest.raises(ValueError):
        skew_report({"a": 1}, 0)
    with pytest.raises(ValueError):
        skew_report({}, 0)  # n_top is checked before the histogram
    assert skew_report({}, 5) == (None, ())  # no image counted: coverage undefined


def test_skew_ntop_beyond_label_count_is_full_coverage():
    report = skew_report({"a": 3, "b": 1}, 10)
    assert report.coverage_fraction == 1.0


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_skew_curve_matches_sort_and_prefix_sum_oracle(seed):
    rng = random.Random(seed)
    counts = {f"l{i}": rng.randint(1, 500) for i in range(rng.randint(1, 40))}
    report = skew_report(counts, rng.randint(1, 45))
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
    for rate in (0.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError):
            labeling_effort(10, rate)
    with pytest.raises(ValueError):
        labeling_effort(-1, 10.0)
    with pytest.raises(ValueError, match="not a finite number"):
        labeling_effort(40, 1e-320)  # a positive rate whose effort overflows to inf


def test_labeling_effort_of_a_count_past_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="n_images must be nonnegative and at most"):
        labeling_effort(10**400, 1.0)  # not the OverflowError of dividing it


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
    assert [[image.image_id for image in group] for group in groups] == [
        ["i000", "i001", "i002"], ["i003"],
    ]
    assert groups[0] == tuple(dataset.images[iid] for iid in ("i000", "i001", "i002"))
    buffer = io.StringIO()
    write_sequences(groups, buffer)
    assert [line.split(",")[0] for line in buffer.getvalue().splitlines()[1:]] == [
        "d1:2016-01-01T00:00:00Z", "d1:2016-01-01T00:05:00Z",
    ]


@pytest.mark.parametrize("gap", [0.0, -1.0, float("nan"), float("inf"), 10**400])
def test_burst_gap_must_be_finite_and_positive(gap):
    with pytest.raises(ValueError):
        group_bursts(_dataset(["a"]), max_gap_seconds=gap)


def test_images_from_two_deployments_never_share_a_group():
    times = [T0, T0 + timedelta(seconds=1)] * 2
    dataset = _dataset(["a"] * 4, times=times, deployments=("d1", "d2"))
    groups = group_bursts(dataset, max_gap_seconds=60)
    for group in groups:
        deployments = {image.deployment_id for image in group}
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
    assert sorted([[image.image_id for image in g] for g in groups]) == sorted(expected)


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
            image.image_id for group in groups if group[0].deployment_id == dep_id
            for image in group
        ]
        assert concatenated == expected


def _burst_dataset(cells):
    """A dataset with one image per ``(deployment_id, microseconds after T0)`` cell."""
    images = {}
    for n, (dep_id, offset) in enumerate(cells):
        image_id = f"i:{n}" if n % 2 else f"i{n}"  # "i:10" sorts before "i:3"
        images[image_id] = ImageRecord(image_id, dep_id, T0 + timedelta(microseconds=offset),
                                       "a", None, "s")
    return UnifiedDataset({}, images, _table(), ("s",))


@st.composite
def _burst_case(draw):
    """Images over ids whose string order is not numeric, some holding ``:``.

    Times fall on multiples of the gap (equal times, gaps exactly at the
    bound) or anywhere to the microsecond.
    """
    gap_us = draw(st.sampled_from([1, 250_000, 1_500_000, 60_000_000]))
    offsets = st.one_of(st.integers(0, 6).map(lambda k: k * gap_us), st.integers(0, 10 * gap_us))
    deployments = st.sampled_from(["d1", "d9", "d10", "a:b", "d1:0"])
    cells = draw(st.lists(st.tuples(deployments, offsets), max_size=30))
    return _burst_dataset(cells), gap_us / 1_000_000


@settings(max_examples=300, deadline=None)
@given(_burst_case())
@example((_burst_dataset([  # d9: i:1 and i2 tie at T0, so i2 comes first; i0 is exactly
    ("d9", 60_000_000), ("d9", 0), ("d9", 0), ("d9", 120_000_001),  # 60 s on, i:3 just over
    ("d10", 123_456), ("d:1", 7), ("d:1", 60_000_008),
]), 60.0))
def test_write_sequences_writes_the_bytes_of_the_per_deployment_oracle(case):
    dataset, gap = case
    out = io.StringIO()
    ids = []
    write_sequences(group_bursts(dataset, gap), out, ids)
    expected = burst_rows(dataset.images.values(), gap)
    assert out.getvalue() == expected
    # the ids handed on to the fusion are the texts of the first column
    assert ids == [row[0] for row in csv.reader(io.StringIO(expected))][1:]


def test_group_bursts_holds_under_a_hundred_bytes_per_group():
    count = 20_000
    dataset = _burst_dataset((f"d{n % 50}", n * 120_000_000) for n in range(count))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        groups = group_bursts(dataset, max_gap_seconds=60)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(groups) == count  # each image 100 minutes after its deployment's last one
    # the member records are the dataset's own; a group adds only its tuple
    assert held / count <= 100, held / count


# -------------------------------------------------------------------- weights


def test_weight_formula_on_skewed_histogram():
    weights = class_weights({"a": 90, "b": 10}, cap=100.0)
    assert weights["a"] == pytest.approx(100 / 180)
    assert weights["b"] == 5.0


def test_uniform_histogram_gives_unit_weights():
    weights = class_weights({"a": 25, "b": 25, "c": 25, "d": 25}, cap=9.0)
    assert set(weights.values()) == {1.0}


def test_cap_clips_rare_class_weight():
    weights = class_weights({"a": 90, "b": 10}, cap=2.0)
    assert weights["b"] == 2.0


def test_weights_reject_bad_inputs():
    for cap in (0.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError):
            class_weights({"a": 1}, cap=cap)
    with pytest.raises(ValueError):
        class_weights({}, cap=1.0)


def test_weights_of_a_total_past_the_float_range_are_a_value_error():
    with pytest.raises(ValueError, match="histogram total must be at most"):
        class_weights({"a": 10**400, "b": 1}, 2.0)  # not the OverflowError of dividing it


# -------------------------------------------------------------------- exports


def test_skew_and_sequence_files_have_contract_headers():
    buffer = io.StringIO()
    write_skew(skew_report({"a": 2, "b": 1}, 1), buffer)
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
