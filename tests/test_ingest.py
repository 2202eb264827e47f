import csv
import io
import re
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from trapkit._util import read_rows, write_rows
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
from trapkit.report import Issue, IssueKind, Severity
from trapkit.scoring import RANGE_MAP_COLUMNS, parse_range_map
from trapkit.taxonomy import TAXONOMY_COLUMNS, parse_taxonomy

from oracles import burst_rule, csv_rows, duplicate_count, timestamp_rule
from pipeline import pipeline_commands

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
    with pytest.raises(HeaderError, match="unreadable deployments header"):
        parse_dep("x" * 200_000 + "\nd1,0,0\n")


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


def test_timestamp_out_of_range_in_utc_is_a_bad_timestamp():
    records, issues = parse_img(f"{IMG_HEADER}\ni1,d1,0001-01-01T00:00:00+05:00,sp_x,,teamA\n")
    assert records == []
    assert [(issue.kind, issue.key) for issue in issues] == [(IssueKind.BAD_TIMESTAMP, "i1")]
    records, issues = parse_dep(f"{DEP_HEADER}\nd1,p1,0.0,0.0,,,9999-12-31T23:59:59-05:00,\n")
    assert records[0].end_time is None
    assert [(issue.kind, issue.key) for issue in issues] == [(IssueKind.BAD_TIMESTAMP, "d1")]


_TIMESTAMP_TEXTS = st.one_of(
    st.builds(
        lambda value, suffix: value.isoformat() + suffix,
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.sampled_from(["", "Z", "z", "+00:00", "-00:00", "+05:00", "-05:00", "+23:59",
                         "+00:00:00.000001", "-00:00:00", " Z", "ZZ", "Zz"]),
    ),
    st.sampled_from([
        "", "Z", "z", "2015-06-01T12:00:00Z", "2015-06-01T12:00:00z", "2015-06-01T12:00:00",
        "20160101T000000Z", "20160101T000000z", "2015-06-01Z", "2015-06-01T12Z",
        "0001-01-01T00:00:00Z", "0001-01-01T00:00:00+05:00", "0001-01-01T00:00:00-00:00",
        "9999-12-31T23:59:59Z", "9999-12-31T23:59:59-05:00", "9999-12-31T23:59:59+00:00",
        "2015-06-01T12:00:00\ud800Z", "\udc80", "2015-06-01T24:00:00Z", "2015-W23-1T12:00Z",
    ]),
    st.text(alphabet="0123456789-:T+Zz.W ,\ud800", max_size=30),
    st.text(max_size=30),
)


@given(text=_TIMESTAMP_TEXTS)
@settings(max_examples=300, deadline=None)
def test_timestamps_follow_the_reference_rule_for_any_text(text):
    cell = text.strip()  # parsing strips every cell
    expected = {}
    for name, optional in (("timestamp", False), ("start_time", True)):
        value, problem = timestamp_rule(cell, name, optional)
        expected[name] = (value, [] if problem is None else [
            (IssueKind.BAD_TIMESTAMP, f"row 2: {problem[0]}",
             Severity.WARNING if problem[1] else Severity.ERROR),
        ])

    buffer = io.StringIO()
    write_rows(buffer, [IMAGE_COLUMNS, ["i1", "d1", text, "sp_x", "", "teamA"]])
    records, issues = parse_img(buffer.getvalue())
    value, problems = expected["timestamp"]
    assert [(issue.kind, issue.detail, issue.severity) for issue in issues] == problems
    assert [repr(record.timestamp) for record in records] == ([] if value is None else [repr(value)])

    buffer = io.StringIO()
    write_rows(buffer, [DEPLOYMENT_COLUMNS, ["d1", "p1", "0", "0", "", text, "", ""]])
    records, issues = parse_dep(buffer.getvalue())
    value, problems = expected["start_time"]
    assert [(issue.kind, issue.detail, issue.severity) for issue in issues] == problems
    assert repr(records[0].start_time) == repr(value)


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


@given(text=st.one_of(
    st.text(alphabet="0123456789+-_ .\u0663\u00b2", max_size=8),
    st.sampled_from(["00", "+3", "-0", "\u0663", "\u00b2", "1_0", "3.0"]),
))
@example(text="1" * 5000)  # over int()'s default digit limit
@settings(max_examples=300, deadline=None)
def test_burst_index_follows_the_reference_rule_for_any_text(text):
    value, detail = burst_rule(text.strip())  # parsing strips every cell
    buffer = io.StringIO()
    write_rows(buffer, [IMAGE_COLUMNS, ["i1", "d1", "2015-06-01T12:00:00Z", "sp_x", text, "teamA"]])
    records, issues = parse_img(buffer.getvalue())
    assert [record.burst_index for record in records] == [value]
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == \
        ([] if detail is None else [(IssueKind.MISSING_FIELD, "i1", f"row 2: {detail}")])


# ----------------------------------------------------------------- id rules

_SPLIT_CHARACTERS = [chr(point) for point in range(sys.maxunicode + 1)
                     if chr(point).split() != [chr(point)]]


def test_every_character_split_on_but_space_is_not_printable():
    # the guard in front of id_rejected relies on this
    assert " " in _SPLIT_CHARACTERS and "\t" in _SPLIT_CHARACTERS
    assert [c for c in _SPLIT_CHARACTERS if c != " " and c.isprintable()] == []


@pytest.mark.parametrize("char", _SPLIT_CHARACTERS, ids=lambda c: f"U+{ord(c):04X}")
def test_an_id_holding_any_character_split_on_is_rejected(char):
    record_id = "a" + char + "b"
    buffer = io.StringIO()
    write_rows(buffer, [IMAGE_COLUMNS, [record_id, "d1", "2015-06-01T12:00:00Z", "sp_x", "", "t"]])
    records, issues = parse_img(buffer.getvalue())
    assert records == []
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == [
        (IssueKind.MISSING_FIELD, record_id, "row 2: image_id contains whitespace")]
    buffer = io.StringIO()
    write_rows(buffer, [DEPLOYMENT_COLUMNS, [record_id, "p1", "0", "0", "", "", "", ""]])
    records, issues = parse_dep(buffer.getvalue())
    assert records == []
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == [
        (IssueKind.MISSING_FIELD, record_id, "row 2: deployment_id contains whitespace")]


@pytest.mark.parametrize("parse, header, row, field_name", [
    (parse_img, IMG_HEADER, "x\u00e9_1,d1,2015-06-01T12:00:00Z,sp_x,,t", "image_id"),
    (parse_dep, DEP_HEADER, "x\u00e9_1,p1,0,0,,,,", "deployment_id"),
], ids=["images", "deployments"])
def test_a_printable_duplicate_id_is_a_duplicate(parse, header, row, field_name):
    records, issues = parse(f"{header}\n{row}\n{row}\n")
    assert len(records) == 1
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == [
        (IssueKind.DUPLICATE_ID, "x\u00e9_1", f"row 3: duplicate {field_name}, first occurrence kept")]


@pytest.mark.parametrize("parse, columns, row, key, detail", [
    (parse_deployments, DEPLOYMENT_COLUMNS, "d9,,0.0,0.0,,,,", "d9",
     "deployment_id and project_id are required"),
    (parse_deployments, DEPLOYMENT_COLUMNS, ",p1,0.0,0.0,,,,", "row 2",
     "deployment_id and project_id are required"),
    (parse_taxonomy, TAXONOMY_COLUMNS, ",Mammalia,,,,,", "row 2", "empty label_id"),
    (parse_taxonomy, TAXONOMY_COLUMNS, "sp_y,,,,,,weird", "sp_y",
     "unrecognized special_kind 'weird'"),
    (parse_taxonomy, TAXONOMY_COLUMNS, "sp_y,,Carnivora,,,,", "sp_y",
     "non-special label without class_name"),
], ids=["no_project_id", "no_deployment_id", "no_label_id", "weird_special_kind",
        "no_class_name"])
def test_a_row_without_a_required_field_is_dropped_and_named(parse, columns, row, key, detail):
    # the second row is kept: a blank label, so the taxonomy needs no synthetic one
    good_row = "blank,,,,,,blank" if parse is parse_taxonomy else "d1,p1,0.0,0.0,,,,"
    result, issues = parse(io.StringIO("\n".join([",".join(columns), row, good_row]) + "\n"))
    kept = list(result.records) if parse is parse_taxonomy else [r.deployment_id for r in result]
    assert kept == [good_row.split(",")[0]]
    assert [(issue.kind, issue.key, issue.detail) for issue in issues] == [
        (IssueKind.MISSING_FIELD, key, f"row 2: {detail}")]


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
# Free text whose inside holds what csv must quote; its ends are not whitespace,
# which parsing strips.
_text = st.builds(
    lambda first, middle, last: first + "".join(middle) + last,
    _identifier,
    st.lists(st.sampled_from([",", '"', "\n", "\r\n", " ", "x"]), max_size=6),
    _identifier,
)


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
            draw(st.none() | _text),
            start,
            end,
            draw(st.none() | _text),
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


def test_bare_cr_in_a_text_cell_round_trips():
    record = Deployment("d1", "p1", 0.0, 0.0, None, None, None, "two\rlines")
    buffer = io.StringIO()
    write_deployments([record], buffer)
    assert parse_dep(buffer.getvalue()) == ([record], [])


def test_write_rows_quotes_and_formats_cells_as_csv_does():
    buffer = io.StringIO()
    write_rows(buffer, [[0.1 + 0.2, None, 3, -0.0, 1e22, 'a,"b"', "x\ny"]])
    assert buffer.getvalue() == '0.30000000000000004,,3,-0.0,1e+22,"a,""b""","x\ny"\n'


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


@pytest.mark.parametrize("cell, image_id", [
    (b'"i_am1_002\nx"', "i_am1_002\nx"),
    (b"i_am1_002 x", "i_am1_002 x"),
    (b"i_am1_002\tx", "i_am1_002\tx"),
], ids=["line_break", "space", "tab"])
def test_image_id_with_a_line_break_is_rejected_and_keeps_manifests_whole(
        tmp_path, fixture_dir, golden_dir, capsys, cell, image_id):
    # i_am1_001 is a planted duplicate, so rename an id that appears once
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    for path in fixture_dir.iterdir():
        text = path.read_bytes()
        if path.name == "images.csv":
            text = text.replace(b"\ni_am1_002,", b"\n" + cell + b",")
        (fixture / path.name).write_bytes(text)
    commands = {argv[0]: argv for argv in pipeline_commands(fixture, tmp_path / "out")}
    for name in ("validate", "split", "eval", "sequences"):
        assert main(commands[name]) == 0, name
    assert "manifest" not in capsys.readouterr().err

    def issue_rows(root):
        with open(root / "validate" / "issues.csv", encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))

    def manifest_ids(root):
        return sorted(line for name in ("train.txt", "eval.txt")
                      for line in (root / "split" / name).read_text(encoding="utf-8").splitlines())

    out, golden = issue_rows(tmp_path / "out"), issue_rows(golden_dir)
    assert len(out) == len(golden) + 1
    assert [row for row in out if row not in golden] == [
        ["missing_field", image_id, "row 3: image_id contains whitespace"],
    ]
    # one id per line: the golden ids less the rejected one
    assert manifest_ids(tmp_path / "out") == \
        [iid for iid in manifest_ids(golden_dir) if iid != "i_am1_002"]
    with open(tmp_path / "out" / "sequences" / "sequences.csv", encoding="utf-8",
              newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(int(row["n_images"]) == len(row["image_ids"].split()) for row in rows)


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


@pytest.mark.parametrize("image_id", ["i1", "d1"],
                         ids=["own_ids", "image_id_equals_deployment_id"])
def test_unify_duplicates_name_the_source_of_the_kept_copy(taxonomy_table, image_id):
    # each id is in three sources: identical in the second, conflicting in the third
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    dep = Deployment("d1", "p", 0.0, 0.0)
    image = ImageRecord(image_id, "d1", ts, "blank", None, "x")
    dataset, issues = unify([
        Source("a", [dep], []),
        Source("b", [dep], [image]),
        Source("c", [dep._replace(project_id="q")], [image]),
        Source("d", [], [image._replace(label_id="sp_panthera_onca")]),
    ], taxonomy_table)
    assert dataset.deployments == {"d1": dep}
    assert dataset.images == {image_id: image}
    assert Counter(issues) == Counter([
        Issue(IssueKind.DUPLICATE_ID, "d1", "identical duplicate in 'b', kept copy from 'a'",
              Severity.WARNING),
        Issue(IssueKind.DUPLICATE_ID, "d1", "conflicting duplicate: 'a' kept, 'c' differs"),
        Issue(IssueKind.DUPLICATE_ID, image_id, "identical duplicate in 'c', kept copy from 'b'",
              Severity.WARNING),
        Issue(IssueKind.DUPLICATE_ID, image_id, "conflicting duplicate: 'b' kept, 'd' differs"),
    ])


def test_unify_duplicate_in_the_first_source_names_it_as_the_kept_copy(taxonomy_table):
    # parsing drops a duplicate inside one file, but a hand-built source can hold one
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    dep = Deployment("d1", "p", 0.0, 0.0)
    image = ImageRecord("i1", "d1", ts, "blank", None, "x")
    dataset, issues = unify([
        Source("a", [dep], [image, image, image._replace(label_id="sp_panthera_onca")]),
        Source("b", [dep], []),
    ], taxonomy_table)
    assert dataset.images == {"i1": image}
    assert issues == [
        Issue(IssueKind.DUPLICATE_ID, "d1", "identical duplicate in 'b', kept copy from 'a'",
              Severity.WARNING),
        Issue(IssueKind.DUPLICATE_ID, "i1", "identical duplicate in 'a', kept copy from 'a'",
              Severity.WARNING),
        Issue(IssueKind.DUPLICATE_ID, "i1", "conflicting duplicate: 'a' kept, 'a' differs"),
    ]


def test_unify_leaves_its_input_sequences_unchanged(taxonomy_table):
    ts = datetime(2015, 6, 1, tzinfo=UTC)
    a = Source("a", [Deployment("d1", "p", 0.0, 0.0)], [
        ImageRecord("ok", "d1", ts, "blank", None, "a"),
        ImageRecord("orphan", "dX", ts, "blank", None, "a"),
        ImageRecord("mystery", "d1", ts, "sp_bogus", None, "a"),
    ])
    b = Source("b", [Deployment("d1", "q", 0.0, 0.0), Deployment("d2", "p", 1.0, 1.0)], [
        ImageRecord("ok", "d2", ts, "blank", None, "b"),
        ImageRecord("late", "d2", ts, "blank", None, "b"),
        ImageRecord("late_orphan", "dY", ts, "blank", None, "b"),
    ])
    sources = [a, b]
    before = [(source.name, list(source.deployments), list(source.images)) for source in sources]
    dataset, _ = unify(sources, taxonomy_table)
    assert set(dataset.images) == {"ok", "late"}
    assert sources == [a, b]
    assert [(source.name, source.deployments, source.images) for source in sources] == before


def test_unify_holds_one_image_dict(taxonomy_table):
    # bulk-clean's shape: one clean source, 24,000 images on 2,000 deployments
    ts = datetime(2016, 1, 1, tzinfo=UTC)
    deployments = [Deployment(f"d{n}", "proj", 0.0, 0.0) for n in range(2000)]
    images = [ImageRecord(f"i{n:07d}", f"d{n % 2000}", ts, "blank", None, "bulk")
              for n in range(24_000)]
    sources = [Source("bulk", deployments, images)]
    tracemalloc.start()
    try:
        dataset, issues = unify(sources, taxonomy_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dataset.images) == len(images) and issues == []
    # the merged image dict peaks near 60 B per image as it grows; a second
    # dict as large (a filtered copy, or an owner per id) takes it over 90 B
    assert peak / len(images) < 75


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


# ---------------------------------------------------------------- hostile rows


@pytest.mark.parametrize("parse, columns, good_row, ids_of, kept_id", [
    (parse_deployments, DEPLOYMENT_COLUMNS, "d1,p1,0.0,0.0,,,,",
     lambda records: [record.deployment_id for record in records], "d1"),
    (parse_images, IMAGE_COLUMNS, "i1,d1,2015-06-01T12:00:00Z,sp_x,,teamA",
     lambda records: [record.image_id for record in records], "i1"),
    (parse_taxonomy, TAXONOMY_COLUMNS, "sp_x,Mammalia,,,,,", lambda table: list(table.records), "sp_x"),
    (parse_range_map, RANGE_MAP_COLUMNS, "sp_x,-10,10,-20,20", lambda boxes: list(boxes), "sp_x"),
], ids=["deployments", "images", "taxonomy", "range_map"])
def test_unreadable_row_is_reported_and_reading_goes_on(parse, columns, good_row, ids_of, kept_id):
    wide_row = "x" * 200_000 + "," * (len(columns) - 1)  # over csv's 131072-character field limit
    text = "\n".join([",".join(columns), wide_row, good_row]) + "\n"
    result, issues = parse(io.StringIO(text))
    row_issues = [issue for issue in issues if issue.key == "row 2"]
    assert [issue.kind for issue in row_issues] == [IssueKind.MISSING_FIELD]
    assert row_issues[0].detail == "row 2: field larger than field limit (131072)"
    assert kept_id in ids_of(result)


def _csv_records(text):
    """How many records csv returns for ``text``, counting the ones it cannot read."""
    reader = csv.reader(io.StringIO(text))
    count = 0
    while True:
        try:
            next(reader)
        except StopIteration:
            return count
        except csv.Error:
            pass
        count += 1


_CELLS = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "", " ", '"', '""', "\r", "\x00", "nan", "-inf", "1e400", "91", "-5", "x" * 140_000,
        "2015-06-01T12:00:00Z", "2015-06-01T12:00:00", "0001-01-01T00:00:00+05:00",
        "9999-12-31T23:59:59-05:00", "d1", "i1", "sp_x",
    ]),
)
_BODIES = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(',"\r\n\x00 '), st.characters()), max_size=200),
    st.builds(
        lambda rows, newline: newline.join(rows),
        st.lists(st.lists(_CELLS, max_size=9).map(",".join), max_size=8),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ),
)


@pytest.mark.parametrize("parse, columns", [
    (parse_deployments, DEPLOYMENT_COLUMNS),
    (parse_images, IMAGE_COLUMNS),
    (parse_range_map, RANGE_MAP_COLUMNS),
], ids=["deployments", "images", "range_map"])
@given(body=_BODIES)
@settings(max_examples=150, deadline=None)
def test_any_text_after_a_good_header_parses_and_names_its_rows(parse, columns, body):
    text = ",".join(columns) + "\n" + body
    _, issues = parse(io.StringIO(text))
    last_row = _csv_records(text)  # the header is row 1
    for issue in issues:
        match = re.match(r"row (\d+): ", issue.detail)
        assert match, issue.detail
        assert 2 <= int(match[1]) <= last_row
        assert issue.key


_WIDE_ROW = "x" * 140_000  # over csv's 131072-character field limit
_ROW_BODIES = st.builds(
    lambda rows, newline, end: newline.join(rows) + end,
    st.lists(st.one_of(
        st.sampled_from([_WIDE_ROW, _WIDE_ROW + ",a,b", "", " ", "a,b,c", "a,b", "a", '"a,b",c',
                         '"open', "a,\x00,c"]),
        st.lists(_CELLS, max_size=4).map(",".join),
    ), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n"]),
)


@given(body=st.one_of(_BODIES, _ROW_BODIES))
@example(body="\n".join([_WIDE_ROW, _WIDE_ROW, "a,b,c", _WIDE_ROW, _WIDE_ROW]))
@example(body="\n".join(["a,b,c", _WIDE_ROW, "", _WIDE_ROW]) + "\n")
@settings(max_examples=150, deadline=None)
def test_read_rows_matches_the_reference_loop_for_any_body(body):
    columns = ["a", "b", "c"]
    text = ",".join(columns) + "\n" + body
    issues = []
    rows = list(read_rows(io.StringIO(text), columns, "test", issues))
    expected_rows, problems = csv_rows(text, len(columns))
    assert rows == expected_rows
    assert issues == [Issue(IssueKind.MISSING_FIELD, f"row {number}", f"row {number}: {detail}")
                      for number, detail in problems]
