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
cross-source checks in `unify`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from sys import intern
from typing import IO, Iterable, Sequence

from ._util import format_timestamp, parse_timestamp, require_header
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


@dataclass(frozen=True, slots=True)
class Deployment:
    deployment_id: str
    project_id: str
    latitude: float
    longitude: float
    camera_model: str | None = None
    start_time: datetime | None = None
    end_time: datetime | None = None
    notes: str | None = None


@dataclass(frozen=True, slots=True)
class ImageRecord:
    image_id: str
    deployment_id: str
    timestamp: datetime
    label_id: str
    burst_index: int | None
    source_id: str


@dataclass(frozen=True, slots=True)
class Source:
    """One partner contribution: a parsed deployments/images pair."""

    name: str
    deployments: Sequence[Deployment]
    images: Sequence[ImageRecord]


@dataclass(frozen=True)
class UnifiedDataset:
    deployments: dict[str, Deployment]
    images: dict[str, ImageRecord]
    taxonomy: TaxonomyTable
    provenance: tuple[str, ...]

    @property
    def image_count(self) -> int:
        return len(self.images)


def _coordinate_ok(latitude: float, longitude: float) -> bool:
    return -90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0


def parse_deployments(stream: IO[str]) -> tuple[list[Deployment], list[Issue]]:
    """Parse deployment rows, collecting per-row issues instead of failing.

    A row with a bad required field (id, coordinates) is dropped and
    reported. A bad optional timestamp is cleared, reported, and the row
    is kept. Duplicate deployment ids keep the first occurrence.
    """
    reader = csv.reader(stream)
    require_header(reader, DEPLOYMENT_COLUMNS, "deployments")

    records: list[Deployment] = []
    seen: set[str] = set()
    issues: list[Issue] = []
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(DEPLOYMENT_COLUMNS):
            issues.append(Issue(
                IssueKind.MISSING_FIELD,
                f"row {row_number}",
                f"row {row_number}: expected {len(DEPLOYMENT_COLUMNS)} columns, got {len(row)}",
            ))
            continue
        dep_id, project_id, lat_text, lon_text, camera, start_text, end_text, notes = (
            cell.strip() for cell in row
        )
        if not dep_id or not project_id:
            issues.append(Issue(
                IssueKind.MISSING_FIELD,
                dep_id or f"row {row_number}",
                f"row {row_number}: deployment_id and project_id are required",
            ))
            continue
        if dep_id in seen:
            issues.append(Issue(
                IssueKind.DUPLICATE_ID,
                dep_id,
                f"row {row_number}: duplicate deployment_id, first occurrence kept",
            ))
            continue
        try:
            latitude = float(lat_text)
            longitude = float(lon_text)
        except ValueError:
            issues.append(Issue(
                IssueKind.BAD_COORDINATE,
                dep_id,
                f"row {row_number}: unparseable coordinates {lat_text!r},{lon_text!r}",
            ))
            continue
        if not _coordinate_ok(latitude, longitude):
            issues.append(Issue(
                IssueKind.BAD_COORDINATE,
                dep_id,
                f"row {row_number}: coordinates ({latitude}, {longitude}) out of range",
            ))
            continue

        start = _optional_timestamp(start_text, dep_id, row_number, "start_time", issues)
        end = _optional_timestamp(end_text, dep_id, row_number, "end_time", issues)
        if start is not None and end is not None and start > end:
            issues.append(Issue(
                IssueKind.BAD_TIMESTAMP,
                dep_id,
                f"row {row_number}: start_time after end_time, both cleared",
            ))
            start = end = None

        seen.add(dep_id)
        records.append(Deployment(
            dep_id,
            project_id,
            latitude,
            longitude,
            camera or None,
            start,
            end,
            notes or None,
        ))
    return records, issues


def _optional_timestamp(text, key, row_number, field_name, issues):
    if not text:
        return None
    try:
        value, naive = parse_timestamp(text)
    except ValueError:
        issues.append(Issue(
            IssueKind.BAD_TIMESTAMP,
            key,
            f"row {row_number}: unparseable {field_name} {text!r}, cleared",
        ))
        return None
    if naive:
        issues.append(Issue(
            IssueKind.BAD_TIMESTAMP,
            key,
            f"row {row_number}: {field_name} has no timezone, assumed UTC",
            Severity.WARNING,
        ))
    return value


def parse_images(stream: IO[str]) -> tuple[list[ImageRecord], list[Issue]]:
    """Parse image rows; timestamps become aware UTC datetimes.

    Rows missing a required field or with an unparseable timestamp are
    dropped and reported. A malformed burst_index is cleared (the record
    survives). Duplicate image ids keep the first occurrence.
    """
    reader = csv.reader(stream)
    require_header(reader, IMAGE_COLUMNS, "images")

    records: list[ImageRecord] = []
    seen: set[str] = set()
    issues: list[Issue] = []
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(IMAGE_COLUMNS):
            issues.append(Issue(
                IssueKind.MISSING_FIELD,
                f"row {row_number}",
                f"row {row_number}: expected {len(IMAGE_COLUMNS)} columns, got {len(row)}",
            ))
            continue
        image_id, dep_id, ts_text, label_id, burst_text, source_id = (
            cell.strip() for cell in row
        )
        if not image_id or not dep_id or not label_id or not source_id:
            issues.append(Issue(
                IssueKind.MISSING_FIELD,
                image_id or f"row {row_number}",
                f"row {row_number}: image_id, deployment_id, label_id and source_id are required",
            ))
            continue
        if image_id in seen:
            issues.append(Issue(
                IssueKind.DUPLICATE_ID,
                image_id,
                f"row {row_number}: duplicate image_id, first occurrence kept",
            ))
            continue
        try:
            timestamp, naive = parse_timestamp(ts_text)
        except ValueError:
            issues.append(Issue(
                IssueKind.BAD_TIMESTAMP,
                image_id,
                f"row {row_number}: unparseable timestamp {ts_text!r}",
            ))
            continue
        if naive:
            issues.append(Issue(
                IssueKind.BAD_TIMESTAMP,
                image_id,
                f"row {row_number}: timestamp has no timezone, assumed UTC",
                Severity.WARNING,
            ))

        burst_index: int | None = None
        if burst_text:
            try:
                burst_index = int(burst_text)
            except ValueError:
                burst_index = None
            if burst_index is None or burst_index < 0:
                issues.append(Issue(
                    IssueKind.MISSING_FIELD,
                    image_id,
                    f"row {row_number}: burst_index {burst_text!r} is not a nonnegative integer, cleared",
                ))
                burst_index = None

        seen.add(image_id)
        records.append(ImageRecord(
            image_id,
            intern(dep_id),
            timestamp,
            intern(label_id),
            burst_index,
            intern(source_id),
        ))
    return records, issues


def write_deployments(records: Iterable[Deployment], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DEPLOYMENT_COLUMNS)
    for record in records:
        writer.writerow([
            record.deployment_id,
            record.project_id,
            repr(record.latitude),
            repr(record.longitude),
            record.camera_model or "",
            format_timestamp(record.start_time) if record.start_time else "",
            format_timestamp(record.end_time) if record.end_time else "",
            record.notes or "",
        ])


def write_images(records: Iterable[ImageRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(IMAGE_COLUMNS)
    for record in records:
        writer.writerow([
            record.image_id,
            record.deployment_id,
            format_timestamp(record.timestamp),
            record.label_id,
            "" if record.burst_index is None else str(record.burst_index),
            record.source_id,
        ])


def unify(
    sources: Sequence[Source],
    taxonomy: TaxonomyTable,
) -> tuple[UnifiedDataset, list[Issue]]:
    """Merge sources into one dataset with exact-key dedup.

    First occurrence wins. A later record with the same key is reported:
    as a warning when it is field-for-field identical (benign duplicate),
    as an error when the copies disagree. Images whose deployment or label
    never resolves are excluded so the result keeps referential integrity.
    """
    deployments: dict[str, Deployment] = {}
    images: dict[str, ImageRecord] = {}
    dep_owner: dict[str, str] = {}
    image_owner: dict[str, str] = {}
    issues: list[Issue] = []

    for source in sources:
        for dep in source.deployments:
            existing = deployments.get(dep.deployment_id)
            if existing is None:
                deployments[dep.deployment_id] = dep
                dep_owner[dep.deployment_id] = source.name
            else:
                issues.append(_duplicate_issue(
                    dep.deployment_id, existing == dep,
                    dep_owner[dep.deployment_id], source.name,
                ))
        for image in source.images:
            existing_image = images.get(image.image_id)
            if existing_image is None:
                images[image.image_id] = image
                image_owner[image.image_id] = source.name
            else:
                issues.append(_duplicate_issue(
                    image.image_id, existing_image == image,
                    image_owner[image.image_id], source.name,
                ))

    kept: dict[str, ImageRecord] = {}
    for image_id, image in images.items():
        if image.deployment_id not in deployments:
            issues.append(Issue(
                IssueKind.ORPHAN_IMAGE,
                image_id,
                f"references missing deployment {image.deployment_id!r}, excluded",
            ))
        elif image.label_id not in taxonomy:
            issues.append(Issue(
                IssueKind.UNKNOWN_LABEL,
                image_id,
                f"label {image.label_id!r} not in taxonomy, excluded",
            ))
        else:
            kept[image_id] = image

    dataset = UnifiedDataset(
        deployments,
        kept,
        taxonomy,
        tuple(source.name for source in sources),
    )
    return dataset, issues


def _duplicate_issue(key: str, identical: bool, first_source: str, second_source: str) -> Issue:
    if identical:
        return Issue(
            IssueKind.DUPLICATE_ID,
            key,
            f"identical duplicate in {second_source!r}, kept copy from {first_source!r}",
            Severity.WARNING,
        )
    return Issue(
        IssueKind.DUPLICATE_ID,
        key,
        f"conflicting duplicate: {first_source!r} kept, {second_source!r} differs",
    )
