import io
import math
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from trapkit.errors import LabelNotFoundError
from trapkit.ingest import ImageRecord
from trapkit.report import Issue, IssueKind, Severity
from trapkit.scoring import (
    HeldPredictions,
    evaluate,
    geofilter,
    iter_predictions,
    parse_range_map,
    sequence_aggregate,
    summarize_metrics,
    write_metrics,
    write_predictions,
)
from trapkit.stats import SequenceIds, write_sequences
from trapkit.taxonomy import Level, TaxonRecord, TaxonomyTable

from generators import random_predictions, random_taxonomy, random_truth
from oracles import per_class_counts, point_in_any_box, sequence_fusion, topk_hits

UTC = timezone.utc


def _table():
    records = {
        "sp_a": TaxonRecord("sp_a", "Mammalia", "Carnivora", "Felidae", "Panthera", "A"),
        "sp_b": TaxonRecord("sp_b", "Mammalia", "Carnivora", "Felidae", "Panthera", "B"),
        "sp_c": TaxonRecord("sp_c", "Mammalia", "Carnivora", "Canidae", "Canis", "C"),
        "sp_d": TaxonRecord("sp_d", "Mammalia", "Primates", "Lemuridae", "Lemur", "D"),
        "blank": TaxonRecord("blank", special_kind="blank"),
        "unknown": TaxonRecord("unknown", special_kind="unknown"),
    }
    return TaxonomyTable(records, "blank", "unknown")


def _record(image_id, *labels, start=0.9, step=0.1):
    entries = tuple(
        (label, round(start - index * step, 6)) for index, label in enumerate(labels)
    )
    return image_id, entries


# -------------------------------------------------------------------- parsing


def _parse_all(stream):
    issues = []
    records = list(iter_predictions(stream, issues))
    return records, issues


def test_parse_two_entry_line():
    records, issues = _parse_all(io.StringIO("i1 sp_a:0.9 sp_b:0.1\n"))
    assert issues == []
    assert records == [("i1", (("sp_a", 0.9), ("sp_b", 0.1)))]


def test_unsorted_scores_flagged_and_resorted():
    records, issues = _parse_all(io.StringIO("i1 sp_a:0.1 sp_b:0.9\n"))
    assert [issue.kind for issue in issues] == [IssueKind.UNSORTED_SCORES]
    assert issues[0].severity is Severity.WARNING
    assert records[0][1] == (("sp_b", 0.9), ("sp_a", 0.1))


def test_malformed_lines_reported_with_line_numbers():
    text = "i1 sp_a:0.9\ni2\ni3 sp_a:nope\ni4 :0.5\n"
    records, issues = _parse_all(io.StringIO(text))
    assert [image_id for image_id, _ in records] == ["i1"]
    assert [issue.kind for issue in issues] == [IssueKind.MALFORMED_PREDICTION] * 3
    assert "line 2" in issues[0].detail
    assert "line 3" in issues[1].detail
    assert "line 4" in issues[2].detail


@pytest.mark.parametrize("line, kind, severity, detail", [
    ("i1", IssueKind.MALFORMED_PREDICTION, Severity.ERROR, "no ranked entries"),
    ("i1 sp_a:0.9 x", IssueKind.MALFORMED_PREDICTION, Severity.ERROR, "bad entry 'x'"),
    ("i1 sp_a:0.9 a:nan", IssueKind.MALFORMED_PREDICTION, Severity.ERROR,
     "bad score in 'a:nan'"),
    ("i1 sp_a:0.9 sp_a:0.5", IssueKind.DUPLICATE_ID, Severity.WARNING,
     "duplicate labels in record, highest rank kept"),
    ("i1 sp_a:0.1 sp_b:0.9", IssueKind.UNSORTED_SCORES, Severity.WARNING,
     "scores not nonincreasing, re-sorted"),
], ids=["no_entries", "bad_entry", "bad_score", "duplicate_label", "unsorted"])
def test_prediction_issue_texts(line, kind, severity, detail):
    records, issues = _parse_all(io.StringIO(f"i0 sp_a:0.9\n\n{line}\n"))
    assert issues == [Issue(kind, "i1", f"line 3: {detail}", severity)]
    kept = ["i0", "i1"] if severity is Severity.WARNING else ["i0"]
    assert [image_id for image_id, _ in records] == kept


@pytest.mark.parametrize("line", [
    "i1 a:0.2 b:nan c:0.9",
    "i2 a:inf b:0.1",
    "i3 a:0.9 b:-inf",
    "i4 a:NaN",
])
def test_non_finite_score_drops_the_line(line):
    records, issues = _parse_all(io.StringIO(line + "\n"))
    assert records == []
    assert [issue.kind for issue in issues] == [IssueKind.MALFORMED_PREDICTION]
    assert issues[0].key == line.split()[0]


def test_duplicate_labels_keep_highest_rank():
    records, issues = _parse_all(io.StringIO("i1 sp_a:0.9 sp_a:0.5 sp_b:0.3\n"))
    assert records[0][1] == (("sp_a", 0.9), ("sp_b", 0.3))
    assert [issue.kind for issue in issues] == [IssueKind.DUPLICATE_ID]


@pytest.mark.parametrize("line, entries, kinds", [
    ("i1 sp_a:0.9 sp_b:0.5 sp_a:0.95", (("sp_a", 0.9), ("sp_b", 0.5)), [IssueKind.DUPLICATE_ID]),
    ("i1 sp_a:0.1 sp_b:0.9 sp_a:0.95", (("sp_b", 0.9), ("sp_a", 0.1)),
     [IssueKind.DUPLICATE_ID, IssueKind.UNSORTED_SCORES]),
], ids=["sorted", "unsorted"])
def test_only_first_seen_entries_are_checked_for_order(line, entries, kinds):
    records, issues = _parse_all(io.StringIO(line + "\n"))
    assert records[0][1] == entries
    assert [issue.kind for issue in issues] == kinds


_TOKENS = st.one_of(
    st.text(max_size=10),
    st.sampled_from([
        "i1", "sp_a:0.9", "sp_b:0.5", "sp_a:0.1", ":0.5", "sp_a:", ":", "a:b:0.3",
        "sp_a:nan", "sp_b:-inf", "sp_c:1e400", "sp_d:-0.0", "\x00", "\r",
    ]),
)
_PREDICTION_TEXTS = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(" :\t\r\n\x00"), st.characters()), max_size=200),
    st.builds(
        lambda lines, newline: newline.join(lines),
        st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=8),
        st.sampled_from(["\n", "\r\n"]),
    ),
)


@given(text=_PREDICTION_TEXTS)
@settings(max_examples=300, deadline=None)
def test_any_prediction_text_parses_and_names_its_lines(text):
    records, issues = _parse_all(io.StringIO(text))
    last_line = len(io.StringIO(text).readlines())
    for issue in issues:
        match = re.match(r"line (\d+): ", issue.detail)
        assert match, issue.detail
        assert 1 <= int(match[1]) <= last_line
        assert issue.key
    for _, entries in records:
        scores = [score for _, score in entries]
        assert scores and all(math.isfinite(score) for score in scores)
        assert scores == sorted(scores, reverse=True)


def test_thousand_record_round_trip():
    rng = random.Random(17)
    table = random_taxonomy(rng, n_species=30)
    truth = random_truth(rng, table, 1100)
    records = random_predictions(rng, truth, table, missing_fraction=0.0)[:1000]
    buffer = io.StringIO()
    write_predictions(records, buffer)
    buffer.seek(0)
    parsed, issues = _parse_all(buffer)
    assert issues == []
    assert parsed == records


# ----------------------------------------------------------------------- topk


def test_perfect_predictor_scores_one_at_every_k(taxonomy_table):
    truth = {"i1": "sp_panthera_onca", "i2": "sp_canis_lupus", "i3": "blank"}
    predictions = [
        _record("i1", "sp_panthera_onca", "blank"),
        _record("i2", "sp_canis_lupus", "sp_canis_aureus"),
        _record("i3", "blank", "sp_lemur_catta"),
    ]
    for k in (1, 2, 3, 5):
        assert evaluate(predictions, truth, taxonomy_table, ks=(k,)).topk[k] == 1.0


def test_hand_enumerated_ranks_one_two_four_one():
    table = _table()
    truth = {"i1": "sp_a", "i2": "sp_b", "i3": "sp_c", "i4": "sp_d"}
    predictions = [
        _record("i1", "sp_a", "sp_b", "sp_c", "sp_d"),   # truth at rank 1
        _record("i2", "sp_a", "sp_b", "sp_c", "sp_d"),   # truth at rank 2
        _record("i3", "sp_a", "sp_b", "sp_d", "sp_c"),   # truth at rank 4
        _record("i4", "sp_d", "sp_a", "sp_b", "sp_c"),   # truth at rank 1
    ]
    report = evaluate(predictions, truth, table, ks=(1, 3))
    assert report.topk[1] == 0.5
    assert report.topk[3] == 0.75


def test_k_below_one_rejected():
    table = _table()
    with pytest.raises(ValueError):
        evaluate([], {"i1": "sp_a"}, table, ks=(0,))


def test_no_k_values_rejected():
    with pytest.raises(ValueError, match="^no k values given$"):
        evaluate([_record("i1", "sp_a")], {"i1": "sp_a"}, _table(), ks=[])


def test_empty_truth_rejected():
    with pytest.raises(ValueError, match="truth mapping is empty"):
        evaluate([_record("i1", "sp_a")], {}, _table())


def test_missing_predictions_count_as_misses_and_are_reported():
    table = _table()
    truth = {"i1": "sp_a", "i2": "sp_b"}
    report = evaluate([_record("i1", "sp_a")], truth, table, ks=(1,))
    assert report.topk[1] == 0.5
    assert report.skipped == 1
    assert report.evaluated == 2


def test_unknown_truth_label_raises():
    table = _table()
    with pytest.raises(LabelNotFoundError, match="label id 'mystery' not in taxonomy"):
        evaluate([_record("i1", "sp_a")], {"i1": "mystery"}, table)


def test_unresolvable_predicted_labels_counted_not_fatal():
    table = _table()
    report = evaluate([_record("i1", "alien", "sp_a")], {"i1": "sp_a"}, table, ks=(1, 2))
    assert report.unresolved_predictions == 1
    # the alien entry is dropped, so sp_a is the top remaining label
    assert report.topk[1] == 1.0


def test_unresolvable_labels_after_the_true_label_still_counted():
    table = _table()
    predictions = [_record("i1", "sp_b", "sp_a", "alien", "ghost")]
    report = evaluate(predictions, {"i1": "sp_a"}, table, ks=(1, 2))
    assert report.unresolved_predictions == 2
    assert report.topk == {1: 0.0, 2: 1.0}


def test_rollup_merges_wrong_species_right_genus():
    table = _table()
    truth = {"i1": "sp_a"}
    predictions = [_record("i1", "sp_b", "sp_c")]  # sibling species predicted first
    assert evaluate(predictions, truth, table, ks=(1,), level=Level.SPECIES).topk[1] == 0.0
    assert evaluate(predictions, truth, table, ks=(1,), level=Level.GENUS).topk[1] == 1.0


def test_rollup_dedup_preserves_rank_order():
    table = _table()
    truth = {"i1": "sp_c"}
    # sp_a and sp_b share a genus: after genus rollup they collapse to one
    # entry, promoting sp_c into the top 2
    predictions = [_record("i1", "sp_a", "sp_b", "sp_c")]
    assert evaluate(predictions, truth, table, ks=(2,), level=Level.SPECIES).topk[2] == 0.0
    assert evaluate(predictions, truth, table, ks=(2,), level=Level.GENUS).topk[2] == 1.0


def test_duplicate_and_unmatched_prediction_records_reported():
    table = _table()
    truth = {"i1": "sp_a"}
    predictions = [
        _record("i1", "sp_a"),
        _record("i1", "sp_b"),      # duplicate, first wins
        _record("ghost", "sp_a"),   # no truth for this image
    ]
    report = evaluate(predictions, truth, table, ks=(1,))
    assert report.topk[1] == 1.0
    assert report.duplicate_predictions == 1
    assert report.unmatched_predictions == 1
    summary = summarize_metrics(report).splitlines()
    assert "  duplicate predictions    1" in summary
    assert "  unmatched predictions    1" in summary
    clean = evaluate(predictions[:1], truth, table, ks=(1,))
    assert "duplicate predictions" not in summarize_metrics(clean)


# ------------------------------------------------------------------ per-class


def test_perfect_predictor_perfect_per_class():
    table = _table()
    truth = {"i1": "sp_a", "i2": "sp_b", "i3": "blank"}
    predictions = [_record(iid, label) for iid, label in truth.items()]
    metrics = evaluate(predictions, truth, table).per_class
    for name in ("A", "B", "blank"):
        assert metrics[name].precision == 1.0
        assert metrics[name].recall == 1.0
    assert sum(m.support for m in metrics.values()) == 3


def test_blank_confusion_hand_count():
    # 10 images, 5 actual blanks; blank predicted 5 times, 4 of them correct
    table = _table()
    truth = {f"b{n}": "blank" for n in range(5)}
    truth.update({f"s{n}": "sp_a" for n in range(5)})
    predictions = (
        [_record(f"b{n}", "blank") for n in range(4)]       # 4 correct blanks
        + [_record("b4", "sp_a")]                            # blank missed
        + [_record("s0", "blank")]                           # false blank
        + [_record(f"s{n}", "sp_a") for n in range(1, 5)]    # correct species
    )
    report = evaluate(predictions, truth, table)
    assert report.blank_precision == 0.8
    assert report.blank_recall == 0.8


def test_zero_over_zero_is_undefined_not_zero():
    table = _table()
    truth = {"i1": "sp_a", "i2": "sp_a"}
    predictions = [_record("i1", "sp_b"), _record("i2", "sp_b")]
    metrics = evaluate(predictions, truth, table).per_class
    assert metrics["A"].precision is None      # never predicted
    assert metrics["A"].recall == 0.0
    assert metrics["B"].precision == 0.0
    assert metrics["B"].recall is None         # never actual


def test_blank_recall_undefined_without_blank_truth():
    table = _table()
    truth = {"i1": "sp_a"}
    report = evaluate([_record("i1", "blank")], truth, table)
    assert report.blank_precision == 0.0
    assert report.blank_recall is None


def test_all_blank_truth_and_predictions():
    table = _table()
    truth = {"i1": "blank", "i2": "blank"}
    predictions = [_record("i1", "blank"), _record("i2", "blank")]
    report = evaluate(predictions, truth, table)
    assert (report.blank_precision, report.blank_recall) == (1.0, 1.0)


def test_random_instances_match_confusion_oracle():
    for seed in range(25):
        rng = random.Random(seed)
        table = random_taxonomy(rng, n_species=rng.randint(3, 15),
                                coarse_only_fraction=0.2)
        truth = random_truth(rng, table, rng.randint(5, 120))
        predictions = random_predictions(rng, truth, table)
        by_image = dict(predictions)
        level = rng.choice(list(Level))

        metrics = evaluate(predictions, truth, table, level=level).per_class
        expected = per_class_counts(by_image, truth, table, int(level))
        assert set(metrics) == set(expected)
        for name, (tp, n_predicted, n_actual) in expected.items():
            got = metrics[name]
            assert got.support == n_actual
            assert got.precision == (tp / n_predicted if n_predicted else None)
            assert got.recall == (tp / n_actual if n_actual else None)


def test_random_instances_match_topk_oracle():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        table = random_taxonomy(rng, n_species=rng.randint(3, 15),
                                coarse_only_fraction=0.2)
        truth = random_truth(rng, table, rng.randint(5, 120))
        predictions = random_predictions(rng, truth, table)
        by_image = dict(predictions)
        level = rng.choice(list(Level))
        report = evaluate(predictions, truth, table, ks=(1, 2, 3), level=level)
        for k in (1, 2, 3):
            got = report.topk[k]
            want = topk_hits(by_image, truth, table, k, int(level)) / len(truth)
            assert got == want


def test_micro_average_identity():
    for seed in range(10):
        rng = random.Random(31 + seed)
        table = random_taxonomy(rng, n_species=8)
        truth = random_truth(rng, table, 80)
        predictions = random_predictions(rng, truth, table)
        report = evaluate(predictions, truth, table, ks=(1,))
        weighted = sum(
            metrics.support * metrics.recall
            for metrics in report.per_class.values()
            if metrics.recall is not None
        )
        assert weighted / report.evaluated == pytest.approx(report.topk[1])


def test_monotone_in_k_and_level():
    for seed in range(10):
        rng = random.Random(77 + seed)
        table = random_taxonomy(rng, n_species=10, coarse_only_fraction=0.1)
        truth = random_truth(rng, table, 60)
        predictions = random_predictions(rng, truth, table)
        topk = evaluate(predictions, truth, table, ks=(1, 2, 3)).topk
        accs = [topk[k] for k in (1, 2, 3)]
        assert accs == sorted(accs)
        by_level = [
            evaluate(predictions, truth, table, ks=(1,), level=level).topk[1]
            for level in Level
        ]
        # Level iterates coarse to fine, so accuracy must be nonincreasing
        assert by_level == sorted(by_level, reverse=True)


def test_metrics_csv_shape():
    table = _table()
    truth = {"i1": "sp_a", "i2": "blank"}
    report = evaluate([_record("i1", "sp_a"), _record("i2", "blank")], truth, table)
    buffer = io.StringIO()
    write_metrics(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "metric,label_id_or_overall,value"
    assert "top1_accuracy,overall,1.0" in lines
    assert "support,A,1" in lines


# ------------------------------------------------------------------ geofilter


def test_geofilter_out_of_range_top_label_dropped():
    # ranked (asian 0.6, african 0.4) at a site only the african box covers
    range_map = {
        "asian_elephant": [(5.0, 35.0, 65.0, 100.0)],
        "african_elephant": [(-35.0, 15.0, -20.0, 50.0)],
    }
    entries = (("asian_elephant", 0.6), ("african_elephant", 0.4))
    filtered = geofilter(entries, -2.0, 34.0, range_map, "unknown")  # Sub-Saharan site
    assert filtered == (("african_elephant", 0.4),)


def test_geofilter_unrestricted_label_passes_through():
    entries = (("sp_a", 0.7), ("sp_b", 0.3))
    assert geofilter(entries, 0.0, 0.0, {}, "unknown") == entries


def test_geofilter_emits_unknown_when_everything_excluded():
    range_map = {"sp_a": [(10.0, 20.0, 10.0, 20.0)]}
    filtered = geofilter((("sp_a", 0.9),), 0.0, 0.0, range_map, unknown_label_id="unknown")
    assert filtered == (("unknown", 0.0),)


def test_geofilter_matches_point_in_box_oracle_and_preserves_order():
    rng = random.Random(23)
    labels = [f"sp{i}" for i in range(12)]
    for _ in range(200):
        range_map = {}
        for label in rng.sample(labels, 6):
            range_map[label] = [
                _random_box(rng) for _ in range(rng.randint(1, 3))
            ]
        entries = tuple(
            (label, round(1.0 - 0.05 * i, 4))
            for i, label in enumerate(rng.sample(labels, rng.randint(1, 8)))
        )
        lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        filtered = geofilter(entries, lat, lon, range_map, "unknown")
        expected = tuple(
            (label, score) for label, score in entries
            if label not in range_map or point_in_any_box(lat, lon, range_map[label])
        ) or (("unknown", 0.0),)
        assert filtered == expected
        # conservativity: no additions, no score changes, order preserved
        if expected != (("unknown", 0.0),):
            assert set(filtered) <= set(entries)


def _random_box(rng):
    lat1, lat2 = sorted(rng.uniform(-90, 90) for _ in range(2))
    lon1, lon2 = sorted(rng.uniform(-180, 180) for _ in range(2))
    return (lat1, lat2, lon1, lon2)


def test_parse_range_map_reports_bad_rows():
    text = (
        "label_id,lat_min,lat_max,lon_min,lon_max\n"
        "sp_a,0.0,10.0,0.0,10.0\n"
        "sp_b,20.0,10.0,0.0,10.0\n"
        "sp_c,a,b,c,d\n"
        "sp_a,-5.0,5.0,-5.0,5.0\n"
        "sp_d,nan,10.0,0.0,10.0\n"
        "sp_e,0.0,inf,0.0,10.0\n"
        "sp_f,-inf,10.0,0.0,10.0\n"
        ",0,1,0,1\n"
        ",1,0,0,1\n"
    )
    boxes, issues = parse_range_map(io.StringIO(text))
    assert len(boxes["sp_a"]) == 2
    assert set(boxes) == {"sp_a"}
    assert [issue.kind for issue in issues] == (
        [IssueKind.BAD_COORDINATE] * 5 + [IssueKind.MISSING_FIELD, IssueKind.BAD_COORDINATE]
    )
    assert [issue.key for issue in issues] == [
        "sp_b", "sp_c", "sp_d", "sp_e", "sp_f", "row 9", "row 10"
    ]
    assert issues[-2].detail == "row 9: empty label_id"
    assert issues[-1].detail == "row 10: box minimum exceeds maximum"


def test_parse_range_map_drops_each_non_finite_bound_and_keeps_exact_tuples():
    lines = ["label_id,lat_min,lat_max,lon_min,lon_max", "sp_a,-5,5,-5,5"]
    expected_issues = []
    for column in range(4):
        for text in ("nan", "inf", "-inf", "1e999"):
            cells = ["0", "10", "0", "10"]
            cells[column] = text
            label = f"sp_{column}_{text}"
            lines.append(",".join([label, *cells]))
            expected_issues.append((IssueKind.BAD_COORDINATE, label,
                                    f"row {len(lines)}: box bounds are not all finite numbers"))
    lines += ["sp_b,1,2,3,4", "sp_a,0,10,0,10"]
    boxes, issues = parse_range_map(io.StringIO("\n".join(lines) + "\n"))
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == expected_issues
    assert boxes == {"sp_a": [(-5.0, 5.0, -5.0, 5.0), (0.0, 10.0, 0.0, 10.0)],
                     "sp_b": [(1.0, 2.0, 3.0, 4.0)]}
    # CPython 3.11 unpacks only exact tuples on its fast path, which geofilter's box loop takes
    assert all(type(box) is tuple for kept in boxes.values() for box in kept)


# ----------------------------------------------------------------- sequences


def _group(deployment_id, *image_ids):
    """The burst group `deployment_id:2016-01-01T00:00:00Z` of ``image_ids``, a second apart."""
    t0 = datetime(2016, 1, 1, tzinfo=UTC)
    return tuple(ImageRecord(image_id, deployment_id, t0 + timedelta(seconds=n), "sp_a", None, "s")
                 for n, image_id in enumerate(image_ids))


def _pairs(groups):
    """The ``(sequence_id, image_ids)`` of each group, as the fusion oracle takes them."""
    return [(f"{group[0].deployment_id}:2016-01-01T00:00:00Z", [im.image_id for im in group])
            for group in groups]


def _ids(groups):
    """Each group's sequence id, as `write_sequences` hands them on."""
    ids = SequenceIds()
    write_sequences(groups, io.StringIO(), ids)
    return ids


def _held(records, groups):
    """The store of the first record of each member of ``groups`` among ``records``."""
    held = HeldPredictions.of(groups)
    held.read(records)
    return held


def _fuse(records, groups, issues=None):
    """The fused records of ``groups``, stored from ``records`` in one store."""
    return list(sequence_aggregate(_held(records, groups), _ids(groups),
                                   [] if issues is None else issues))


def test_prediction_records_are_exact_tuples(fixture_dir):
    with open(fixture_dir / "predictions.txt", encoding="utf-8") as handle:
        records = list(iter_predictions(handle, []))
    assert records
    assert all(type(record) is tuple for record in records)
    groups = [_group("q1", *(image_id for image_id, _ in records[:3]))]
    fused = _fuse(records, groups)
    assert len(fused) == 1 and type(fused[0]) is tuple
    assert type(geofilter(records[0][1], 0.0, 0.0, {}, "unknown")) is tuple


def test_identical_member_predictions_keep_their_ranking():
    predictions = [
        _record("i1", "sp_a", "sp_b", start=0.6, step=0.2),
        _record("i2", "sp_a", "sp_b", start=0.6, step=0.2),
    ]
    groups = [_group("q1", "i1", "i2")]
    aggregated = _fuse(predictions, groups)
    assert len(aggregated) == 1  # no group skipped: one record per group
    assert [label for label, _ in aggregated[0][1]] == ["sp_a", "sp_b"]
    assert aggregated[0][0] == "q1:2016-01-01T00:00:00Z"


def test_tie_between_disjoint_top_labels_breaks_lexicographically():
    predictions = [
        ("i1", (("b_label", 1.0),)),
        ("i2", (("a_label", 1.0),)),
    ]
    groups = [_group("q1", "i1", "i2")]
    aggregated = _fuse(predictions, groups)
    assert aggregated[0][1] == (("a_label", 0.5), ("b_label", 0.5))


def test_group_without_predictions_is_skipped_and_reported():
    groups = [_group("q1", "i1")]
    aggregated = _fuse([], groups)
    assert aggregated == []
    assert len(groups) - len(aggregated) == 1  # the skipped count `sequences` reports


def test_sequence_aggregation_matches_mean_and_sort_oracle():
    rng = random.Random(41)
    labels = [f"sp{i}" for i in range(8)]
    for _ in range(100):
        members = []
        for index in range(rng.randint(1, 5)):
            chosen = rng.sample(labels, rng.randint(1, 5))
            scores = sorted((round(rng.uniform(0.01, 1.0), 4) for _ in chosen), reverse=True)
            members.append((f"i{index}", tuple(zip(chosen, scores))))
        group = _group("q", *[image_id for image_id, _ in members])
        aggregated = _fuse(members, [group])
        assert aggregated == sequence_fusion(members, _pairs([group]))


@pytest.mark.parametrize("members", [
    # the per-label sum overflows
    ["i1 a:1 b:-1.7e308", "i2 a:1 b:-1.7e308"],
    # normalizing by the top score overflows
    ["i1 a:1e-300 b:-1e300"],
], ids=["sum", "normalize"])
def test_fused_record_with_a_non_finite_mean_is_dropped_as_an_issue(members):
    issues = []
    records = list(iter_predictions(io.StringIO("\n".join(members)), issues))
    group = _group("q1", *(image_id for image_id, _ in records))
    assert issues == []  # every input score is finite
    groups = [group, _group("q2", "i9")]
    assert _fuse(records, groups, issues) == []
    assert issues == [Issue(IssueKind.MALFORMED_PREDICTION, "q1:2016-01-01T00:00:00Z",
                            "mean score of 'b' is not finite, fused record dropped")]


_FUSION_MEMBERS = [f"i{n}" for n in range(8)]
# 0.1-style values make float sums depend on member order; -0.0, 0.0 and
# negative top scores take the "not > 0" branch
_FUSION_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.5, 0.1, 0.2, 0.3, 0.7, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@st.composite
def _fusion_case(draw):
    """Groups over a shuffle of eight member ids, and records for them and two outsiders."""
    members = draw(st.permutations(_FUSION_MEMBERS))
    cuts = sorted(draw(st.sets(st.integers(1, len(members) - 1), max_size=3)))
    bounds = [0, *cuts, len(members)]
    groups = [_group(f"q{n}", *members[start:stop])
              for n, (start, stop) in enumerate(zip(bounds, bounds[1:]))]
    # duplicate labels within a record are drawn on purpose
    entries = st.lists(st.tuples(st.sampled_from("abcd"), _FUSION_SCORES), min_size=1, max_size=5)
    records = draw(st.lists(
        st.tuples(st.sampled_from([*_FUSION_MEMBERS, "x0", "x1"]), entries.map(tuple)),
        max_size=24,
    ))
    return records, groups


def _fused_bytes(records):
    out = io.StringIO()
    write_predictions(records, out)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(_fusion_case())
@example(([  # i1's first record wins, so it blocks the next one; i3's top is -0.0
    ("i1", (("b", 0.5),)),
    ("i1", (("a", 1.0),)),
    ("i2", (("a", 0.5), ("b", 0.25), ("a", 0.1))),
    ("i2", (("c", 1.0),)),
    ("x0", (("d", 1.0),)),
    ("i3", (("b", -0.0), ("a", -0.0))),
], [_group("q0", "i1", "i2", "i3")]))
@example(([  # a subnormal first score: dividing by it overflows
    ("i1", (("a", 5e-324), ("b", -2.0))),
    ("i2", (("a", 1.0),)),
], [_group("q0", "i1"), _group("q1", "i2")]))
def test_sequence_aggregate_writes_the_bytes_of_the_hold_every_record_oracle(case):
    # bytes, not tuples: 0.0 == -0.0, but the two are written differently
    records, groups = case
    # the oracle keeps a record with a non-finite mean; the fusion drops it as an issue
    fused = sequence_fusion(records, _pairs(groups))
    finite = [record for record in fused if all(math.isfinite(score) for _, score in record[1])]
    issues = []
    assert _fused_bytes(_fuse(iter(records), groups, issues)) == _fused_bytes(finite)
    assert [issue.key for issue in issues] == [record[0] for record in fused if record not in finite]


@settings(max_examples=400, deadline=None)
@given(_fusion_case(), st.integers(0, 24), st.integers(0, 8))
@example(([  # the halves see a, b and b, c, a first: their codes differ; i1 is in both halves
    ("i1", (("a", 0.5), ("b", 0.25))),
    ("i3", (("b", 1.0), ("c", 0.5), ("a", 0.1))),
    ("i1", (("c", 1.0),)),
    ("i2", (("a", 1e-300), ("c", -1e308))),
], [_group("q0", "i1", "i2"), _group("q1", "i3")]), 1, 1)
def test_held_halves_joined_fuse_to_the_bytes_of_the_hold_every_record_oracle(case, cut, middle):
    # the store and fuse of a predictions file cut in two, each half in its own store
    records, groups = case
    cut, middle = min(cut, len(records)), min(middle, len(groups))
    held = _held(records[:cut], groups)
    later = HeldPredictions(held.ordinal, held.sizes)
    later.read(records[cut:])
    held.join(later.columns())
    ids, issues = _ids(groups), []
    text = _fused_bytes([*sequence_aggregate(held, ids, issues, 0, middle),
                         *sequence_aggregate(held, ids, issues, middle)])
    fused = sequence_fusion(records, _pairs(groups))
    finite = [record for record in fused if all(math.isfinite(score) for _, score in record[1])]
    assert text == _fused_bytes(finite)
    dropped = [record[0] for record in fused if record not in finite]
    assert [issue.key for issue in issues] == dropped


@pytest.mark.parametrize("entries, middle", [
    ([1, 1, 10, 1], 2),  # the group that holds the middle entry is the second half's first
    ([4, 0, 0, 4], 3),
    ([3], 0),
    ([0, 0], 0),  # nothing held
])
def test_halfway_is_the_group_that_holds_the_middle_entry(entries, middle):
    groups = [_group(f"q{n}", f"i{n}") for n in range(len(entries))]
    records = [(f"i{n}", tuple((f"sp{k}", 1.0) for k in range(count)))
               for n, count in enumerate(entries) if count]
    assert _held(records, groups).halfway() == middle


@pytest.mark.parametrize("n_ids", [1, 3], ids=["one_id_fewer", "one_id_more"])
def test_sequence_aggregate_needs_one_id_per_group(n_ids):
    groups = [_group(f"q{n}", f"i{n}") for n in range(3)]
    predictions = [_record(f"i{n}", "sp_a") for n in range(3)]
    # every group is predicted, so a miscount would otherwise pass unseen
    with pytest.raises(ValueError):
        list(sequence_aggregate(_held(predictions, groups[:2]), _ids(groups[:n_ids]), []))


def _member_records(count, entries):
    # fresh label strings per record, as the prediction parser makes them
    for n in range(count):
        yield f"m{n}", tuple(
            (f"sp{(n * 7 + rank * 13) % 300}", 0.9 - rank * 0.04) for rank in range(entries))


@pytest.mark.parametrize("entries, group_size, bound", [
    (20, 10, 450),  # ten-frame bursts of 20-entry rankings
    (3, 1, 140),  # one-image bursts of 3-entry rankings
])
def test_sequence_aggregate_holds_under_a_kilobyte_per_member(entries, group_size, bound):
    count = 5_000
    groups = [_group(f"q{n}", *(f"m{m}" for m in range(n, n + group_size)))
              for n in range(0, count, group_size)]
    ids = _ids(groups)  # built outside the traced window: `sequences` holds them anyway
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fused = sum(1 for _ in sequence_aggregate(_held(_member_records(count, entries), groups),
                                                  ids, []))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fused == len(groups)
    # a member is its ordinal, two offsets, and per entry a label code and a
    # normalized score; a held record of tuples and floats takes about 3 kB
    assert peak / count < bound, peak / count
