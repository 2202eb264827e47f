"""Dataset-health diagnostics: skew, blank rate, bursts, class weights.

Camera-trap corpora are dominated by a handful of common species and by
falsely triggered blank frames, and both effects shape how a classifier
trained on the data will behave. The helpers here quantify them and
export class weights that counteract the imbalance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from typing import IO

from ._util import format_timestamp
from .ingest import UnifiedDataset
from .taxonomy import BLANK, Level, UNKNOWN, rollup

SKEW_COLUMNS = ["rank", "label_id", "count", "cumulative_fraction"]
WEIGHTS_COLUMNS = ["label_id", "weight"]
SEQUENCE_COLUMNS = [
    "sequence_id",
    "deployment_id",
    "start_time",
    "end_time",
    "n_images",
    "image_ids",
]


@dataclass(frozen=True)
class ClassHistogram:
    counts: dict[str, int]
    total: int
    level: Level | None = None

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("histogram counts do not sum to total")


@dataclass(frozen=True)
class SkewReport:
    n_top: int
    coverage_fraction: float
    # (rank, label key, count, cumulative fraction), sorted by descending count
    curve: tuple[tuple[int, str, int, float], ...]


@dataclass(frozen=True, slots=True)
class SequenceGroup:
    sequence_id: str
    deployment_id: str
    image_ids: tuple[str, ...]
    start_time: datetime
    end_time: datetime


@dataclass(frozen=True)
class ClassWeights:
    weights: dict[str, float]
    scheme: str
    cap: float


def class_distribution(
    dataset: UnifiedDataset,
    level: Level | None = None,
    include_blank: bool = True,
    include_unknown: bool = True,
) -> ClassHistogram:
    """Image counts per label, optionally rolled up to a coarser level.

    With ``level=None`` the histogram keys are the raw label ids, which is
    what a training pipeline joins against. With a level given, keys are
    the taxonomic name at that level (special labels keep their id and
    coarse-only labels keep their finest populated name).
    """
    table = dataset.taxonomy
    key_cache: dict[str, str | None] = {}
    counts: dict[str, int] = {}
    total = 0
    for image in dataset.images.values():
        label_id = image.label_id
        if label_id in key_cache:
            key = key_cache[label_id]
        else:
            key = _histogram_key(label_id, level, table, include_blank, include_unknown)
            key_cache[label_id] = key
        if key is None:
            continue
        counts[key] = counts.get(key, 0) + 1
        total += 1
    return ClassHistogram(counts, total, level)


def _histogram_key(label_id, level, table, include_blank, include_unknown):
    record = table.resolve(label_id)
    if record.special_kind == BLANK and not include_blank:
        return None
    if record.special_kind == UNKNOWN and not include_unknown:
        return None
    if level is None:
        return label_id
    return rollup(label_id, level, table).name


def skew_report(histogram: ClassHistogram, n_top: int) -> SkewReport:
    """Cumulative coverage of the most frequent labels.

    The curve is sorted by descending count (ties broken by label key) and
    its last point is exactly 1.0. ``coverage_fraction`` is the cumulative
    fraction at rank ``n_top``, or 1.0 when fewer labels exist.
    """
    if n_top < 1:
        raise ValueError(f"n_top must be >= 1, got {n_top}")
    if histogram.total == 0:
        raise ValueError("cannot compute skew of an empty histogram")
    ordered = sorted(histogram.counts.items(), key=lambda item: (-item[1], item[0]))
    curve = []
    running = 0
    for rank, (key, count) in enumerate(ordered, start=1):
        running += count
        curve.append((rank, key, count, running / histogram.total))
    coverage = curve[min(n_top, len(curve)) - 1][3]
    return SkewReport(n_top, coverage, tuple(curve))


def blank_rate(dataset: UnifiedDataset) -> tuple[float, dict[str, float]]:
    """Blank fraction overall and per contributing source_id, in one pass.

    Field-observed blank rates vary widely between partners, so the
    per-source fractions (keyed by source_id, in sorted order) come with
    the overall one.
    """
    if not dataset.images:
        raise ValueError("cannot compute blank rate of an empty dataset")
    table = dataset.taxonomy
    totals: dict[str, int] = {}
    blanks: dict[str, int] = {}
    for image in dataset.images.values():
        totals[image.source_id] = totals.get(image.source_id, 0) + 1
        if table.resolve(image.label_id).special_kind == BLANK:
            blanks[image.source_id] = blanks.get(image.source_id, 0) + 1
    per_source = {
        source: blanks.get(source, 0) / total
        for source, total in sorted(totals.items())
    }
    return sum(blanks.values()) / len(dataset.images), per_source


def labeling_effort(n_images: int, rate_images_per_hour: float) -> float:
    """Hours of expert time to hand-label ``n_images`` at the given rate."""
    if rate_images_per_hour <= 0:
        raise ValueError(f"rate must be positive, got {rate_images_per_hour}")
    if n_images < 0:
        raise ValueError(f"n_images must be nonnegative, got {n_images}")
    return n_images / rate_images_per_hour


def group_bursts(dataset: UnifiedDataset, max_gap_seconds: float = 60.0) -> list[SequenceGroup]:
    """Cut each deployment's time-sorted images into burst groups.

    A new group starts wherever the gap between consecutive images exceeds
    ``max_gap_seconds``. Ties in timestamp are broken by image id, and
    images from different deployments never share a group.
    """
    by_deployment: dict[str, list] = {}
    for image in dataset.images.values():
        by_deployment.setdefault(image.deployment_id, []).append(image)

    groups: list[SequenceGroup] = []
    for dep_id in sorted(by_deployment):
        members = sorted(by_deployment[dep_id], key=lambda im: (im.timestamp, im.image_id))
        start = 0
        for index in range(1, len(members) + 1):
            is_cut = index == len(members) or (
                (members[index].timestamp - members[index - 1].timestamp).total_seconds()
                > max_gap_seconds
            )
            if is_cut:
                chunk = members[start:index]
                groups.append(SequenceGroup(
                    sequence_id=f"{dep_id}:{format_timestamp(chunk[0].timestamp)}",
                    deployment_id=dep_id,
                    image_ids=tuple(im.image_id for im in chunk),
                    start_time=chunk[0].timestamp,
                    end_time=chunk[-1].timestamp,
                ))
                start = index
    return groups


def class_weights(histogram: ClassHistogram, cap: float) -> ClassWeights:
    """Inverse-frequency class weights, capped to tame ultra-rare labels.

    weight(c) = min(cap, N / (K * n_c)) with N total images and K distinct
    labels; a perfectly uniform histogram therefore weighs every class 1.0.
    """
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    if histogram.total == 0:
        raise ValueError("cannot weight an empty histogram")
    n_labels = len(histogram.counts)
    weights = {
        key: min(cap, histogram.total / (n_labels * count))
        for key, count in histogram.counts.items()
    }
    return ClassWeights(weights, "inverse_frequency", cap)


def write_skew(report: SkewReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SKEW_COLUMNS)
    for rank, key, count, cumulative in report.curve:
        writer.writerow([rank, key, count, repr(cumulative)])


def write_weights(weights: ClassWeights, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(WEIGHTS_COLUMNS)
    for key in sorted(weights.weights):
        writer.writerow([key, repr(weights.weights[key])])


def write_sequences(groups, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SEQUENCE_COLUMNS)
    for group in groups:
        writer.writerow([
            group.sequence_id,
            group.deployment_id,
            format_timestamp(group.start_time),
            format_timestamp(group.end_time),
            len(group.image_ids),
            " ".join(group.image_ids),
        ])
