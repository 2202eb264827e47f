import csv
import io
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from trapkit.cli import main
from trapkit.errors import HeaderError
from trapkit.ingest import (
    DEPLOYMENT_COLUMNS,
    IMAGE_COLUMNS,
    Deployment,
    ImageRecord,
    Source,
    parse_deployments,
    parse_images,
    unify,
    write_deployments,
    write_images,
)
from trapkit.report import IssueKind, Severity

from oracles import duplicate_count

UTC = timezone.utc

DEP_HEADER = ",".join(DEPLOYMENT_COLUMNS)
IMG_HEADER = ",".join(IMAGE_COLUMNS)


def parse_dep(text):
    return parse_deployments(io.StringIO(text))


def parse_img(text):
    return parse_images(io.StringIO(text))


# ---------------------------------------------------------------- deployments


def test_parse_deployment_identity_row():
    records, issues = parse_dep(f"{DEP_HEADER}\nd1,p1,0.0,0.0,,,,\n")
    assert issues == []
    assert records == [Deployment("d1", "p1", 0.0, 0.0)]


def test_out_of_range_latitude_reports_and_drops_row():
    records, issues = parse_dep(f"{DEP_HEADER}\nd1,p1,91.0,0.0,,,,\n")
    assert records == []
    assert [issue.kind for issue in issues] == [IssueKind.BAD_COORDINATE]


def test_duplicate_deployment_id_in_file():
    records, issues = parse_dep(
        f"{DEP_HEADER}\n"
        "d1,p1,1.0,2.0,,,,\n"
        "d2,p1,3.0,4.0,,,,\n"
        "d1,p1,5.0,6.0,,,,\n"
    )
    assert len(records) == 2
    assert [issue.kind for issue in issues] == [IssueKind.DUPLICATE_ID]
    assert duplicate_count(["d1", "d2", "d1"]) == 1
    assert records[0].latitude == 1.0  # first occurrence wins


def test_optional_timestamps_and_bad_ones():
    records, issues = parse_dep(
        f"{DEP_HEADER}\n"
        "d1,p1,0.0,0.0,CamX,2015-05-01T00:00:00Z,2015-06-01T00:00:00Z,ok\n"
        "d2,p1,0.5,0.5,,garbage,,\n"
    )
    assert len(records) == 2
    assert records[0].start_time == datetime(2015, 5, 1, tzinfo=UTC)
    assert records[1].start_time is None
    assert [issue.kind for issue in issues] == [IssueKind.BAD_TIMESTAMP]


def test_naive_timestamp_assumed_utc_with_warning():
    records, issues = parse_dep(f"{DEP_HEADER}\nd1,p1,0.0,0.0,,2015-05-01T00:00:00,,\n")
    assert records[0].start_time == datetime(2015, 5, 1, tzinfo=UTC)
    assert issues[0].severity is Severity.WARNING


def test_inverted_time_range_cleared():
    records, issues = parse_dep(
        f"{DEP_HEADER}\nd1,p1,0.0,0.0,,2015-06-01T00:00:00Z,2015-05-01T00:00:00Z,\n"
    )
    assert records[0].start_time is None and records[0].end_time is None
    assert [issue.kind for issue in issues] == [IssueKind.BAD_TIMESTAMP]


def test_malformed_deployment_header_is_fatal():
    with pytest.raises(HeaderError):
        parse_dep("id,lat,lon\nd1,0,0\n")


def test_short_row_reported_with_row_number():
    _, issues = parse_dep(f"{DEP_HEADER}\nd1,p1,0.0\n")
    assert issues[0].kind is IssueKind.MISSING_FIELD
    assert "row 2" in issues[0].detail


# --------------------------------------------------------------------- images


def test_parse_image_identity_row():
    records, issues = parse_img(
        f"{IMG_HEADER}\ni1,d1,2015-06-01T12:00:00Z,sp_panthera_onca,0,teamA\n"
    )
    assert issues == []
    assert records == [ImageRecord(
        "i1", "d1", datetime(2015, 6, 1, 12, tzinfo=UTC), "sp_panthera_onca", 0, "teamA"
    )]


def test_bad_image_timestamp_drops_row():
    records, issues = parse_img(f"{IMG_HEADER}\ni1,d1,not-a-date,sp_x,,teamA\n")
    assert records == []
    assert [issue.kind for issue in issues] == [IssueKind.BAD_TIMESTAMP]


def test_ten_rows_two_invalid_gives_eight_records():
    rows = [f"i{n},d1,2015-06-01T12:00:{n:02d}Z,sp_x,,teamA" for n in range(8)]
    rows.append("i8,d1,not-a-date,sp_x,,teamA")
    rows.append(",d1,2015-06-01T12:00:09Z,sp_x,,teamA")
    # row-by-row classification: rows 0..7 valid, row 8 bad timestamp, row 9 missing id
    records, issues = parse_img(IMG_HEADER + "\n" + "\n".join(rows) + "\n")
    assert len(records) == 8
    assert len(issues) == 2
    assert {issue.kind for issue in issues} == {IssueKind.BAD_TIMESTAMP, IssueKind.MISSING_FIELD}


def test_bad_burst_index_cleared_but_record_kept():
    records, issues = parse_img(f"{IMG_HEADER}\ni1,d1,2015-06-01T12:00:00Z,sp_x,minus,teamA\n")
    assert records[0].burst_index is None
    assert [issue.kind for issue in issues] == [IssueKind.MISSING_FIELD]
    records, issues = parse_img(f"{IMG_HEADER}\ni1,d1,2015-06-01T12:00:00Z,sp_x,-3,teamA\n")
    assert records[0].burst_index is None
    assert len(issues) == 1


def test_empty_burst_column_is_none_without_issue():
    records, issues = parse_img(f"{IMG_HEADER}\ni1,d1,2015-06-01T12:00:00Z,sp_x,,teamA\n")
    assert records[0].burst_index is None
    assert issues == []


# ---------------------------------------------------------------- round trips

_identifier = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-",
    min_size=1,
    max_size=12,
)
_timestamp = st.datetimes(
    min_value=datetime(2000, 1, 1),
    max_value=datetime(2030, 1, 1),
).map(lambda value: value.replace(tzinfo=UTC))


@st.composite
def _deployments(draw):
    n = draw(st.integers(1, 8))
    records = []
    used = set()
    for _ in range(n):
        dep_id = draw(_identifier.filter(lambda s: s not in used))
        used.add(dep_id)
        start = draw(st.none() | _timestamp)
        end = None
        if start is not None and draw(st.booleans()):
            end = start
        records.append(Deployment(
            dep_id,
            draw(_identifier),
            draw(st.floats(-90, 90, allow_nan=False)),
            draw(st.floats(-180, 180, allow_nan=False)),
            draw(st.none() | _identifier),
            start,
            end,
            draw(st.none() | _identifier),
        ))
    return records


@st.composite
def _images(draw):
    n = draw(st.integers(1, 12))
    records = []
    used = set()
    for _ in range(n):
        image_id = draw(_identifier.filter(lambda s: s not in used))
        used.add(image_id)
        records.append(ImageRecord(
            image_id,
            draw(_identifier),
            draw(_timestamp),
            draw(_identifier),
            draw(st.none() | st.integers(0, 9)),
            draw(_identifier),
        ))
    return records


@given(records=_deployments())
@settings(max_examples=50, deadline=None)
def test_deployment_round_trip(records):
    buffer = io.StringIO()
    write_deployments(records, buffer)
    parsed, issues = parse_dep(buffer.getvalue())
    assert issues == []
    assert parsed == records


@given(records=_images())
@settings(max_examples=50, deadline=None)
def test_image_round_trip(records):
    buffer = io.StringIO()
    write_images(records, buffer)
    parsed, issues = parse_img(buffer.getvalue())
    assert issues == []
    assert parsed == records


# ------------------------------------------------------------------- validate


TINY_DEPLOYMENTS = ["d1,p1,0.0,0.0,,,,", "d2,p1,1.0,1.0,,,,"]
TINY_IMAGES = [
    "i1,d1,2015-06-01T00:00:00Z,sp_panthera_onca,,s",
    "i2,d2,2015-06-01T00:00:00Z,blank,,s",
]


def _validate_issues(tmp_path, fixture_dir, deployment_rows, image_rows):
    """Run the validate subcommand on one source; (kind, key) per issues.csv row."""
    deployments = tmp_path / "deployments.csv"
    images = tmp_path / "images.csv"
    deployments.write_text("\n".join([DEP_HEADER, *deployment_rows]) + "\n", encoding="utf-8")
    images.write_text("\n".join([IMG_HEADER, *image_rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    status = main([
        "validate",
        "--deployments", str(deployments),
        "--images", str(images),
        "--taxonomy", str(fixture_dir / "taxonomy.csv"),
        "-o", str(out),
    ])
    assert status == 0
    with open(out / "issues.csv", encoding="utf-8", newline="") as handle:
        return [(kind, key) for kind, key, _ in csv.reader(handle)]


def test_validate_consistent_fixture_is_empty(tmp_path, fixture_dir):
    assert _validate_issues(tmp_path, fixture_dir, TINY_DEPLOYMENTS, TINY_IMAGES) == []


def test_validate_orphan_image(tmp_path, fixture_dir):
    images = [*TINY_IMAGES, "i3,dX,2015-06-01T00:00:00Z,blank,,s"]
    issues = _validate_issues(tmp_path, fixture_dir, TINY_DEPLOYMENTS, images)
    assert issues == [("orphan_image", "i3")]


def test_validate_counts_for_three_known_defects(tmp_path, fixture_dir):
    images = [
        *TINY_IMAGES,
        "i3,dX,2015-06-01T00:00:00Z,blank,,s",       # orphan
        "i4,d1,2015-06-01T00:00:00Z,sp_bogus,,s",    # unknown label
        "i1,d1,2015-06-01T00:00:00Z,blank,,s",       # duplicate id
    ]
    issues = _validate_issues(tmp_path, fixture_dir, TINY_DEPLOYMENTS, images)
    assert issues == [
        ("orphan_image", "i3"),
        ("unknown_label", "i4"),
        ("duplicate_id", "i1"),
    ]


def test_validation_completeness_k_defects_k_issues(tmp_path, fixture_dir):
    # five defects planted row by row, exactly one issue row for each
    deployments = [
        "d1,p1,0.0,0.0,,,,",
        "d2,p1,95.0,0.0,,,,",                                           # bad coordinate
        "d3,p1,1.0,1.0,,2015-06-01T00:00:00Z,2014-06-01T00:00:00Z,",   # inverted range
    ]
    images = [
        "i1,d1,2015-06-01T00:00:00Z,blank,,s",
        "i2,dX,2015-06-01T00:00:00Z,blank,,s",      # orphan
        "i3,d1,2015-06-01T00:00:00Z,nope,,s",       # unknown label
        "i3,d1,2015-06-01T00:00:00Z,blank,,s",      # duplicate id
    ]
    issues = _validate_issues(tmp_path, fixture_dir, deployments, images)
    assert issues == [
        ("orphan_image", "i2"),
        ("bad_coordinate", "d2"),
        ("bad_timestamp", "d3"),
        ("unknown_label", "i3"),
        ("duplicate_id", "i3"),
    ]


# ---------------------------------------------------------------------- unify


def _source(name, n_images=10, dep_id="d1", image_prefix="i"):
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    deployments = [Deployment(dep_id, "p1", 0.0, 0.0)]
    images = [
        ImageRecord(f"{image_prefix}{n}", dep_id, ts, "blank", None, name)
        for n in range(n_images)
    ]
    return Source(name, deployments, images)


def test_unify_single_source_is_identity(taxonomy_table):
    source = _source("a")
    dataset, issues = unify([source], taxonomy_table)
    assert issues == []
    assert list(dataset.images.values()) == list(source.images)
    assert list(dataset.deployments.values()) == list(source.deployments)
    assert dataset.provenance == ("a",)


def test_unify_self_union_is_idempotent_with_duplicate_notes(taxonomy_table):
    source = _source("a")
    once, _ = unify([source], taxonomy_table)
    twice, issues = unify([source, source], taxonomy_table)
    assert set(twice.images) == set(once.images)
    assert set(twice.deployments) == set(once.deployments)
    # every record of the second copy is a benign duplicate: 10 images + 1 deployment
    duplicates = [issue for issue in issues if issue.kind is IssueKind.DUPLICATE_ID]
    assert len(duplicates) == 11
    assert all(issue.severity is Severity.WARNING for issue in duplicates)


def test_unify_order_independent_key_sets(taxonomy_table):
    a = _source("a", n_images=5)
    b = _source("b", n_images=7, dep_id="d2", image_prefix="j")
    ab, ab_issues = unify([a, b], taxonomy_table)
    ba, ba_issues = unify([b, a], taxonomy_table)
    assert set(ab.images) == set(ba.images)
    assert set(ab.deployments) == set(ba.deployments)
    assert {(i.kind, i.key) for i in ab_issues} == {(i.kind, i.key) for i in ba_issues}


def test_unify_shared_identical_rows_counts_and_notes(taxonomy_table):
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    shared = [ImageRecord(f"s{n}", "d1", ts, "blank", None, "x") for n in range(3)]
    only_a = [ImageRecord(f"a{n}", "d1", ts, "blank", None, "x") for n in range(7)]
    only_b = [ImageRecord(f"b{n}", "d2", ts, "blank", None, "x") for n in range(7)]
    a = Source("a", [Deployment("d1", "p", 0.0, 0.0)], only_a + shared)
    b = Source("b", [Deployment("d2", "p", 1.0, 1.0)], only_b + shared)
    dataset, issues = unify([a, b], taxonomy_table)
    assert len(dataset.images) == 17
    notes = [issue for issue in issues if issue.kind is IssueKind.DUPLICATE_ID]
    assert len(notes) == 3
    assert all(issue.severity is Severity.WARNING for issue in notes)


def test_unify_conflicting_duplicate_is_an_error(taxonomy_table):
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    a = Source("a", [Deployment("d1", "p", 0.0, 0.0)],
               [ImageRecord("i1", "d1", ts, "blank", None, "a")])
    b = Source("b", [Deployment("d1", "p", 0.0, 0.0)],
               [ImageRecord("i1", "d1", ts, "sp_panthera_onca", None, "b")])
    dataset, issues = unify([a, b], taxonomy_table)
    conflict = [i for i in issues if i.kind is IssueKind.DUPLICATE_ID and i.key == "i1"]
    assert len(conflict) == 1
    assert conflict[0].severity is Severity.ERROR
    assert "'a'" in conflict[0].detail and "'b'" in conflict[0].detail
    assert dataset.images["i1"].label_id == "blank"  # first occurrence wins


def test_unify_excludes_orphans_and_unknown_labels(taxonomy_table):
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    source = Source("a", [Deployment("d1", "p", 0.0, 0.0)], [
        ImageRecord("ok", "d1", ts, "blank", None, "a"),
        ImageRecord("orphan", "dX", ts, "blank", None, "a"),
        ImageRecord("mystery", "d1", ts, "sp_bogus", None, "a"),
    ])
    dataset, issues = unify([source], taxonomy_table)
    assert set(dataset.images) == {"ok"}
    kinds = sorted(issue.kind for issue in issues)
    assert kinds == [IssueKind.ORPHAN_IMAGE, IssueKind.UNKNOWN_LABEL]
