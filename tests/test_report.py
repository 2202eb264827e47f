import io

from trapkit.report import Issue, IssueKind, Severity, ValidationReport


def test_from_issues_orders_by_kind_then_key():
    issues = [
        Issue(IssueKind.DUPLICATE_ID, "z", "later kind"),
        Issue(IssueKind.ORPHAN_IMAGE, "b", "first kind second key"),
        Issue(IssueKind.ORPHAN_IMAGE, "a", "first kind first key"),
    ]
    report = ValidationReport.from_issues(issues)
    assert [issue.key for issue in report.issues] == ["a", "b", "z"]
    assert report.issues[-1].kind is IssueKind.DUPLICATE_ID


def test_counts_cover_every_kind_and_sum_to_total():
    report = ValidationReport.from_issues([
        Issue(IssueKind.ORPHAN_IMAGE, "i1", "x"),
        Issue(IssueKind.ORPHAN_IMAGE, "i2", "y"),
        Issue(IssueKind.BAD_TIMESTAMP, "i3", "z", Severity.WARNING),
    ])
    counts = report.counts()
    assert counts[IssueKind.ORPHAN_IMAGE] == 2
    assert counts[IssueKind.BAD_TIMESTAMP] == 1
    assert counts[IssueKind.UNKNOWN_LABEL] == 0
    assert sum(counts.values()) == len(report.issues) == 3


def test_empty_report_flags():
    report = ValidationReport([])
    assert report.issues == []
    assert not report.has_errors
    assert report.summary().splitlines() == [
        "validation issues:", "  none", "  total" + " " * 18 + "0",
    ]


def test_has_errors_ignores_warnings():
    warn_only = ValidationReport.from_issues([
        Issue(IssueKind.BAD_TIMESTAMP, "i1", "naive", Severity.WARNING),
    ])
    assert not warn_only.has_errors
    assert warn_only.issues


def test_csv_lines_quote_details_with_commas():
    report = ValidationReport.from_issues([
        Issue(IssueKind.MISSING_FIELD, "row 3", "expected 8 columns, got 5"),
    ])
    buffer = io.StringIO()
    report.write_csv(buffer)
    assert buffer.getvalue() == 'missing_field,row 3,"expected 8 columns, got 5"\n'


def test_summary_mentions_nonzero_kinds_only():
    report = ValidationReport.from_issues([Issue(IssueKind.ORPHAN_IMAGE, "i1", "x")])
    text = report.summary()
    assert "orphan_image" in text
    assert "duplicate_id" not in text
    assert "total" in text
