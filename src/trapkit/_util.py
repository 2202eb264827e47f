"""Shared helpers that read and write the delimited file contracts."""

from __future__ import annotations

import csv
import sys
from datetime import datetime, timezone
from typing import IO, Iterable

from .errors import HeaderError
from .report import Issue, IssueKind, Severity

UTC = timezone.utc


def record_issue(kind: IssueKind, key: str, number: int, text: str,
                 severity: Severity = Severity.ERROR, unit: str = "row") -> Issue:
    """The issue naming record ``number`` of a file, its ``row N`` (or ``line N``).

    It is keyed ``key``, or ``row N`` when that is empty; its detail starts ``row N: ``.
    """
    where = f"{unit} {number}"
    return Issue(kind, key or where, f"{where}: {text}", severity)


def id_rejected(field_name: str, key: str, row_number: int, records: dict,
                issues: list[Issue]) -> bool:
    """Whether a row with id ``key`` is dropped; if so, its issue is appended.

    It is when the id is not one ``token`` (manifests hold one id per line and
    prediction lines split on whitespace) or is already in ``records``.
    Every character ``str.split()`` splits on but ``" "`` is non-printable, so
    ``ingest.parse_images`` skips the call unless ``key in records or " " in key
    or not key.isprintable()``.
    """
    try:
        token(field_name, key)
    except ValueError:
        issues.append(record_issue(IssueKind.MISSING_FIELD, key, row_number,
                                   f"{field_name} contains whitespace"))
        return True
    if key in records:
        issues.append(record_issue(IssueKind.DUPLICATE_ID, key, row_number,
                                   f"duplicate {field_name}, first occurrence kept"))
        return True
    return False


def positive(name: str, value):
    """Return ``value`` if a finite number > 0; compared, as math.isfinite overflows on huge ints."""
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number > 0, got {value}")
    return value


def token(name: str, value: str) -> str:
    """Return ``value`` if it is exactly one ``str.split()`` token: nonempty, with no whitespace."""
    if value.split() != [value]:
        raise ValueError(f"{name} must be one token without whitespace, got {value!r}")
    return value


def coordinate_ok(latitude: float, longitude: float) -> bool:
    """Whether a point lies in the latitude and longitude ranges every deployment needs."""
    return -90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0


def read_rows(stream: IO[str], columns: list[str], what: str, issues: list[Issue]):
    """Yield ``(row_number, stripped_cells)`` for each well-formed data row.

    The header must be exactly ``columns`` (HeaderError otherwise) and is row 1;
    every later record csv returns counts, blank ones included. Blank rows are
    skipped. A row with the wrong column count, or one csv cannot read (such as
    a field over csv's size limit), is a ``missing_field`` issue keyed ``row N``.
    """
    reader = csv.reader(stream)
    expected = ",".join(columns)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise HeaderError(f"{what} file is empty, expected header {expected}") from None
    except csv.Error as exc:
        raise HeaderError(f"unreadable {what} header: {exc}") from None
    if header != columns:
        raise HeaderError(f"malformed {what} header: expected {expected}, got {','.join(header)}")
    width = len(columns)
    row_number = 1
    while True:  # a csv.Error ends the for loop; the next pass reads on after that row
        try:
            for row in reader:
                row_number += 1
                if len(row) == width:
                    yield row_number, list(map(str.strip, row))
                elif row:
                    issues.append(record_issue(IssueKind.MISSING_FIELD, "", row_number,
                                               f"expected {width} columns, got {len(row)}"))
            return
        except csv.Error as exc:
            row_number += 1
            issues.append(record_issue(IssueKind.MISSING_FIELD, "", row_number, str(exc)))


class _LfLines:
    r"""A stream whose ``write`` swaps each CSV line's trailing ``\r\n`` for ``\n``."""

    def __init__(self, stream: IO[str]):
        self.stream = stream

    def write(self, line: str):
        return self.stream.write(line[:-2] + "\n")


def write_rows(stream: IO[str], rows: Iterable) -> None:
    r"""Write each row as one CSV line ending in ``\n``: the one output dialect.

    csv writes None as an empty cell, a float as its ``repr`` and any other
    value as its ``str``, quoting a cell that holds a comma, quote, ``\r`` or
    ``\n``. Of ``\r`` and ``\n``, csv quotes only those in its line
    terminator, so rows are written with ``\r\n`` and each line's ending is
    cut back to ``\n``.
    """
    csv.writer(_LfLines(stream), lineterminator="\r\n").writerows(rows)


def format_timestamp(value: datetime) -> str:
    """Canonical text form, `2015-06-01T12:00:00Z`, of an aware UTC time, as every parser gives."""
    return value.isoformat().replace("+00:00", "Z")
