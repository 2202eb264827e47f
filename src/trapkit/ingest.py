"""Parse, validate, and unify camera-trap metadata from partner sources.

Partners deliver two delimited files per source: `deployments.csv`
describing physical camera placements, and `images.csv` with one row per
captured image. Decades of field data mean rows are frequently broken, so
parsing never aborts on a bad row: the row is reported and skipped (or
kept with the bad optional field cleared) and the rest of the file goes
through. Only a wrong header kills a file.

`unify` merges any number of parsed sources into a single immutable
dataset with exact-key deduplication (first occurrence wins) and enforced
referential integrity. Every validation rule lives in exactly one place:
row-level checks in `parse_deployments`/`parse_images`, cross-record and
cross-source checks in `unify`. The row-shape rules every input file
shares (header, blank rows, column count, unreadable rows) live in
`_util.read_rows`, the rule that names a rejected record (its id, or
`row N` when the id is empty, and a detail starting `row N: `) lives in
`_util.record_issue`, and the rule that rejects a record id (whitespace
inside it, or a duplicate) lives in `_util.id_rejected`; the guard in
front of it in `parse_images` only skips calls that could not reject.
"""

from __future__ import annotations

from datetime import datetime
from itertools import chain
from sys import intern
from typing import IO, Iterable, NamedTuple, Sequence

from ._util import (
    UTC, coordinate_ok, format_timestamp, id_rejected, read_rows, record_issue, write_rows,
)
from .report import Issue, IssueKind, Severity
from .taxonomy import TaxonomyTable

DEPLOYMENT_COLUMNS = [
    "deployment_id",
    "project_id",
    "latitude",
    "longitude",
    "camera_model",
    "start_time",
    "end_time",
    "notes",
]

IMAGE_COLUMNS = [
    "image_id",
    "deployment_id",
    "timestamp",
    "label_id",
    "burst_index",
    "source_id",
]


class Deployment(NamedTuple):
    deployment_id: str
    project_id: str
    latitude: float
    longitude: float
    camera_model: str | None = None
    start_time: datetime | None = None
    end_time: datetime | None = None
    notes: str | None = None


class ImageRecord(NamedTuple):
    image_id: str
    deployment_id: str
    timestamp: datetime
    label_id: str
    burst_index: int | None
    source_id: str


class Source(NamedTuple):
    """One partner contribution: a parsed deployments/images pair."""

    name: str
    deployments: Sequence[Deployment]
    images: Sequence[ImageRecord]


class UnifiedDataset(NamedTuple):
    deployments: dict[str, Deployment]
    images: dict[str, ImageRecord]
    taxonomy: TaxonomyTable
    provenance: tuple[str, ...]


def parse_deployments(stream: IO[str]) -> tuple[list[Deployment], list[Issue]]:
    """Parse deployment rows, collecting per-row issues instead of failing.

    A row with a bad required field (id, coordinates) is dropped and
    reported. A bad optional timestamp is cleared, reported, and the row
    is kept. Duplicate deployment ids keep the first occurrence.
    """
    records: dict[str, Deployment] = {}
    issues: list[Issue] = []
    for row_number, row in read_rows(stream, DEPLOYMENT_COLUMNS, "deployments", issues):
        dep_id, project_id, lat_text, lon_text, camera, start_text, end_text, notes = row
        if not dep_id or not project_id:
            issues.append(record_issue(IssueKind.MISSING_FIELD, dep_id, row_number,
                                       "deployment_id and project_id are required"))
            continue
        if id_rejected("deployment_id", dep_id, row_number, records, issues):
            continue
        try:
            latitude = float(lat_text)
            longitude = float(lon_text)
        except ValueError:
            issues.append(record_issue(IssueKind.BAD_COORDINATE, dep_id, row_number,
                                       f"unparseable coordinates {lat_text!r},{lon_text!r}"))
            continue
        if not coordinate_ok(latitude, longitude):
            issues.append(record_issue(IssueKind.BAD_COORDINATE, dep_id, row_number,
                                       f"coordinates ({latitude}, {longitude}) out of range"))
            continue

        start = _timestamp(start_text, "start_time", dep_id, row_number, issues)
        end = _timestamp(end_text, "end_time", dep_id, row_number, issues)
        if start is not None and end is not None and start > end:
            issues.append(record_issue(IssueKind.BAD_TIMESTAMP, dep_id, row_number,
                                       "start_time after end_time, both cleared"))
            start = end = None

        records[dep_id] = Deployment(
            dep_id,
            project_id,
            latitude,
            longitude,
            camera or None,
            start,
            end,
            notes or None,
        )
    return list(records.values()), issues


def _timestamp(text, field_name, key, row_number, issues, optional=True):
    """Parse a row's ISO-8601 timestamp field into an aware UTC datetime.

    A trailing ``Z`` means UTC; a naive value is assumed UTC, with a warning.
    None, with an issue, if the text is unparseable or out of range in UTC;
    None, without one, if it is empty and the field optional.
    """
    if optional and not text:
        return None
    iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        value = datetime.fromisoformat(iso)
        naive = value.tzinfo is None
        value = value.replace(tzinfo=UTC) if naive else value.astimezone(UTC)
    except (ValueError, OverflowError):  # OverflowError: 0001-01-01T00:00:00+05:00 in UTC
        cleared = ", cleared" if optional else ""
        issues.append(record_issue(IssueKind.BAD_TIMESTAMP, key, row_number,
                                   f"unparseable {field_name} {text!r}{cleared}"))
        return None
    if naive:
        issues.append(record_issue(IssueKind.BAD_TIMESTAMP, key, row_number,
                                   f"{field_name} has no timezone, assumed UTC",
                                   Severity.WARNING))
    return value


def parse_images(stream: IO[str]) -> tuple[list[ImageRecord], list[Issue]]:
    """Parse image rows; timestamps become aware UTC datetimes.

    Rows missing a required field or with an unparseable timestamp are
    dropped and reported. A malformed burst_index is cleared (the record
    survives). Duplicate image ids keep the first occurrence.
    """
    records: dict[str, ImageRecord] = {}
    issues: list[Issue] = []
    fromisoformat = datetime.fromisoformat
    new_record = tuple.__new__
    for row_number, row in read_rows(stream, IMAGE_COLUMNS, "images", issues):
        image_id, dep_id, ts_text, label_id, burst_text, source_id = row
        if not (image_id and dep_id and label_id and source_id):
            issues.append(record_issue(
                IssueKind.MISSING_FIELD, image_id, row_number,
                "image_id, deployment_id, label_id and source_id are required",
            ))
            continue
        if (image_id in records or " " in image_id or not image_id.isprintable()) \
                and id_rejected("image_id", image_id, row_number, records, issues):
            continue
        # fromisoformat alone reads the common `...Z` text on Python 3.11+. Its
        # value is kept only when already in UTC, where _timestamp returns the
        # same value with no issue; any other text takes the rule in _timestamp.
        try:
            timestamp = fromisoformat(ts_text)
        except (ValueError, OverflowError):
            timestamp = None
        if timestamp is None or timestamp.tzinfo is not UTC:
            timestamp = _timestamp(ts_text, "timestamp", image_id, row_number, issues,
                                   optional=False)
            if timestamp is None:
                continue

        burst_index: int | None = None
        if burst_text:
            try:
                burst_index = int(burst_text)
            except ValueError:
                burst_index = None
            if burst_index is None or burst_index < 0:
                issues.append(record_issue(
                    IssueKind.MISSING_FIELD, image_id, row_number,
                    f"burst_index {burst_text!r} is not a nonnegative integer, cleared",
                ))
                burst_index = None

        records[image_id] = new_record(ImageRecord, (
            image_id,
            intern(dep_id),
            timestamp,
            intern(label_id),
            burst_index,
            intern(source_id),
        ))
    return list(records.values()), issues


def write_deployments(records: Iterable[Deployment], stream: IO[str]) -> None:
    write_rows(stream, chain([DEPLOYMENT_COLUMNS], (
        (
            record.deployment_id,
            record.project_id,
            record.latitude,
            record.longitude,
            record.camera_model,
            format_timestamp(record.start_time) if record.start_time else None,
            format_timestamp(record.end_time) if record.end_time else None,
            record.notes,
        )
        for record in records
    )))


def write_images(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    write_rows(stream, chain([IMAGE_COLUMNS], (
        (
            record.image_id,
            record.deployment_id,
            format_timestamp(record.timestamp),
            record.label_id,
            record.burst_index,
            record.source_id,
        )
        for record in records
    )))


def unify(
    sources: Sequence[Source],
    taxonomy: TaxonomyTable,
) -> tuple[UnifiedDataset, list[Issue]]:
    """Merge sources into one dataset with exact-key dedup.

    First occurrence wins. A later record with the same key is reported:
    as a warning when it is field-for-field identical (benign duplicate),
    as an error when the copies disagree. Images whose deployment or label
    never resolves are excluded so the result keeps referential integrity.
    The result holds the one dict per record kind that the merge built:
    excluded images are deleted from it in place, not copied out of it, and
    no input sequence is changed.
    """
    issues: list[Issue] = []
    # one merge per kind, as deployment ids and image ids are separate namespaces
    deployments = _merge([(source.name, source.deployments) for source in sources], issues)
    images = _merge([(source.name, source.images) for source in sources], issues)

    labels = taxonomy.records
    excluded = []
    for image_id, image in images.items():
        if image.deployment_id not in deployments:
            issues.append(Issue(
                IssueKind.ORPHAN_IMAGE,
                image_id,
                f"references missing deployment {image.deployment_id!r}, excluded",
            ))
            excluded.append(image_id)
        elif image.label_id not in labels:
            issues.append(Issue(
                IssueKind.UNKNOWN_LABEL,
                image_id,
                f"label {image.label_id!r} not in taxonomy, excluded",
            ))
            excluded.append(image_id)
    for image_id in excluded:
        del images[image_id]

    dataset = UnifiedDataset(
        deployments,
        images,
        taxonomy,
        tuple(source.name for source in sources),
    )
    return dataset, issues


def _merge(parts, issues):
    """Merge ``(source name, records)`` pairs into one new dict keyed by each record's id.

    A record's id is its first field. A record whose id is already taken is
    not added but reported, naming the source of the kept copy. That source
    is held only for ids first added by a later part; any other kept copy
    comes from the first part.
    """
    merged: dict = {}
    owner: dict[str, str] = {}
    for index, (name, records) in enumerate(parts):
        for record in records:
            key = record[0]
            kept = merged.get(key)
            if kept is None:
                merged[key] = record
                if index:
                    owner[key] = name
            elif kept == record:
                issues.append(Issue(IssueKind.DUPLICATE_ID, key, f"identical duplicate in "
                                    f"{name!r}, kept copy from {owner.get(key, parts[0][0])!r}",
                                    Severity.WARNING))
            else:
                issues.append(Issue(IssueKind.DUPLICATE_ID, key, f"conflicting duplicate: "
                                    f"{owner.get(key, parts[0][0])!r} kept, {name!r} differs"))
    return merged
