"""Dataset-health diagnostics: skew, blank rate, bursts, class weights.

Camera-trap corpora are dominated by a handful of common species and by
falsely triggered blank frames, and both effects shape how a classifier
trained on the data will behave. The helpers here quantify them and
export class weights that counteract the imbalance.
"""

from __future__ import annotations

import io
import math
import sys
from array import array
from collections import Counter
from itertools import chain
from operator import attrgetter
from typing import IO, NamedTuple

from ._util import format_timestamp, positive, write_rows
from .ingest import ImageRecord, UnifiedDataset
from .taxonomy import BLANK, Level, rollup

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

_LABEL_ID = attrgetter("label_id")
_SOURCE_ID = attrgetter("source_id")


class SkewReport(NamedTuple):
    coverage_fraction: float | None  # None, undefined, when no image is counted
    # (rank, label key, count, cumulative fraction), sorted by descending count
    curve: tuple[tuple[int, str, int, float], ...]


def class_distribution(
    dataset: UnifiedDataset,
    level: Level | None = None,
    include_special: bool = True,
) -> dict[str, int]:
    """Image counts per label, optionally rolled up to a coarser level.

    With ``level=None`` the histogram keys are the raw label ids, which is
    what a training pipeline joins against. With a level given, keys are
    the taxonomic name at that level (special labels keep their id and
    coarse-only labels keep their finest populated name). With
    ``include_special=False`` blank and unknown images are not counted.
    Images are counted per distinct label first, so each label is resolved
    and rolled up once.
    """
    table = dataset.taxonomy
    counts: dict[str, int] = {}
    for label_id, count in Counter(map(_LABEL_ID, dataset.images.values())).items():
        if table.resolve(label_id).special_kind is None or include_special:
            key = label_id if level is None else rollup(label_id, level, table).name
            counts[key] = counts.get(key, 0) + count
    return counts


def skew_report(counts: dict[str, int], n_top: int) -> SkewReport:
    """Cumulative coverage of the most frequent labels.

    The curve is sorted by descending count (ties broken by label key) and
    its last point is exactly 1.0. ``coverage_fraction`` is the cumulative
    fraction at rank ``n_top``, or 1.0 when fewer labels exist. A histogram
    that counts no image has no curve and an undefined (None) coverage.
    """
    positive("n_top", n_top)
    total = sum(counts.values())
    if total == 0:
        return SkewReport(None, ())
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    curve = []
    running = 0
    for rank, (key, count) in enumerate(ordered, start=1):
        running += count
        curve.append((rank, key, count, running / total))
    coverage = curve[min(n_top, len(curve)) - 1][3]
    return SkewReport(coverage, tuple(curve))


def blank_rate(dataset: UnifiedDataset) -> tuple[float, dict[str, float]]:
    """Blank fraction overall and per contributing source_id, in one pass.

    Field-observed blank rates vary widely between partners, so the
    per-source rates (keyed by source_id, in sorted order) come with
    the overall one. Images are counted per distinct (source_id, label)
    pair first, so each label's blank kind is looked up once per source.
    """
    if not dataset.images:
        raise ValueError("cannot compute blank rate of an empty dataset")
    images = dataset.images.values()
    totals: dict[str, int] = {}
    blanks: dict[str, int] = {}
    for (source, label_id), count in Counter(zip(map(_SOURCE_ID, images),
                                                 map(_LABEL_ID, images))).items():
        totals[source] = totals.get(source, 0) + count
        if dataset.taxonomy.resolve(label_id).special_kind == BLANK:
            blanks[source] = blanks.get(source, 0) + count
    per_source = {
        source: blanks.get(source, 0) / total
        for source, total in sorted(totals.items())
    }
    return sum(blanks.values()) / len(dataset.images), per_source


def labeling_effort(n_images: int, rate_images_per_hour: float) -> float:
    """Hours of expert time to hand-label ``n_images`` at the given rate."""
    positive("rate", rate_images_per_hour)
    if not 0 <= n_images <= sys.float_info.max:  # compared, as dividing a 400-digit int overflows
        raise ValueError(f"n_images must be nonnegative and at most {sys.float_info.max:g}")
    hours = n_images / rate_images_per_hour
    if not math.isfinite(hours):
        raise ValueError(f"labeling effort for {n_images} images at "
                         f"{rate_images_per_hour} images/hour is not a finite number")
    return hours


def group_bursts(dataset: UnifiedDataset,
                 max_gap_seconds: float = 60.0) -> list[tuple[ImageRecord, ...]]:
    """Cut the images, sorted by deployment id, time and image id, into burst groups.

    A group is the tuple of its member records. A new group starts at each
    new deployment and wherever the gap between consecutive images exceeds
    ``max_gap_seconds``.
    """
    positive("max_gap_seconds", max_gap_seconds)
    images = tuple(sorted(dataset.images.values(),
                          key=attrgetter("deployment_id", "timestamp", "image_id")))
    groups = []
    start = 0
    for index in range(1, len(images) + 1):
        is_cut = index == len(images) or (
            images[index].deployment_id != images[index - 1].deployment_id
            or (images[index].timestamp - images[index - 1].timestamp).total_seconds()
            > max_gap_seconds
        )
        if is_cut:
            groups.append(images[start:index])
            start = index
    return groups


def class_weights(counts: dict[str, int], cap: float) -> dict[str, float]:
    """Inverse-frequency class weights, capped to tame ultra-rare labels.

    weight(c) = min(cap, N / (K * n_c)) with N total images and K distinct
    labels; a perfectly uniform histogram therefore weighs every class 1.0.
    """
    positive("cap", cap)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot weight an empty histogram")
    if total > sys.float_info.max:  # compared, as dividing a 400-digit total overflows
        raise ValueError(f"histogram total must be at most {sys.float_info.max:g}")
    n_labels = len(counts)
    return {
        key: min(cap, total / (n_labels * count))
        for key, count in counts.items()
    }


def write_skew(report: SkewReport, stream: IO[str]) -> None:
    write_rows(stream, chain([SKEW_COLUMNS], report.curve))


def write_weights(weights: dict[str, float], stream: IO[str]) -> None:
    write_rows(stream, chain([WEIGHTS_COLUMNS], sorted(weights.items())))


class SequenceIds:
    """Every burst's sequence id, in group order, as one text and where each id ends.

    Group ``g``'s id is ``text[ends[g]:ends[g + 1]]``. Held so, an id costs its
    characters and one 4-byte offset, not a string object of its own.
    """

    __slots__ = ("text", "ends")

    def __init__(self):
        self.text = ""
        self.ends = array("I", [0])

    def __len__(self) -> int:
        return len(self.ends) - 1


def write_sequences(groups, stream: IO[str], ids: SequenceIds | None = None) -> None:
    """Write one `sequences.csv` row per burst group.

    A group's id is `deployment_id:start_time`. Its start time is formatted
    once, for both. When ``ids`` is given, every group's id is added to it,
    so fused predictions reuse the text.
    """
    keys = io.StringIO()

    def rows():
        yield SEQUENCE_COLUMNS
        for group in groups:
            first = group[0]
            start = format_timestamp(first.timestamp)
            key = f"{first.deployment_id}:{start}"
            if ids is not None:
                ids.ends.append(ids.ends[-1] + keys.write(key))
            yield (
                key,
                first.deployment_id,
                start,
                start if group[-1].timestamp == first.timestamp
                else format_timestamp(group[-1].timestamp),
                len(group),
                " ".join([image.image_id for image in group]),
            )

    write_rows(stream, rows())
    if ids is not None:
        ids.text += keys.getvalue()
