"""Data-quality issue records and the validation report container.

Every parser and consistency check in the toolkit reports problems as
:class:`Issue` values instead of raising, so a single bad row never aborts
a file. Issues carry a machine-readable kind, the key of the offending
record, and a human-readable detail string.
"""

from __future__ import annotations

from enum import Enum
from typing import IO, Iterable, NamedTuple


class IssueKind(str, Enum):
    ORPHAN_IMAGE = "orphan_image"
    BAD_COORDINATE = "bad_coordinate"
    BAD_TIMESTAMP = "bad_timestamp"
    UNKNOWN_LABEL = "unknown_label"
    DUPLICATE_ID = "duplicate_id"
    MISSING_FIELD = "missing_field"
    TREE_INCONSISTENCY = "tree_inconsistency"
    MALFORMED_PREDICTION = "malformed_prediction"
    UNSORTED_SCORES = "unsorted_scores"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


_KIND_ORDER = {kind: index for index, kind in enumerate(IssueKind)}


class Issue(NamedTuple):
    kind: IssueKind
    key: str
    detail: str
    severity: Severity = Severity.ERROR


def _sort_key(issue: Issue) -> tuple:
    return (_KIND_ORDER[issue.kind], issue.key, issue.detail)


class ValidationReport:
    """An ordered collection of issues found in one dataset or file.

    Issues are kept in a canonical order (kind, then record key) so that
    two runs over the same input produce byte-identical reports.
    """

    def __init__(self, issues: list[Issue]):
        self.issues = issues

    @classmethod
    def from_issues(cls, issues: Iterable[Issue]) -> "ValidationReport":
        return cls(sorted(issues, key=_sort_key))

    @property
    def has_errors(self) -> bool:
        return any(issue.severity is Severity.ERROR for issue in self.issues)

    def counts(self) -> dict[IssueKind, int]:
        """Issue count for every kind, including kinds with zero hits."""
        out = {kind: 0 for kind in IssueKind}
        for issue in self.issues:
            out[issue.kind] += 1
        return out

    def of_kind(self, kind: IssueKind) -> list[Issue]:
        return [issue for issue in self.issues if issue.kind is kind]

    def write_csv(self, stream: IO[str]) -> None:
        """Emit one `kind,record_key,detail` line per issue."""
        from ._util import write_rows  # _util imports this module, so not at the top

        write_rows(stream, ((issue.kind.value, issue.key, issue.detail) for issue in self.issues))

    def summary(self) -> str:
        lines = ["validation issues:"]
        for kind, count in self.counts().items():
            if count:
                lines.append(f"  {kind.value:<22} {count}")
        if not self.issues:
            lines.append("  none")
        lines.append(f"  {'total':<22} {len(self.issues)}")
        return "\n".join(lines)
