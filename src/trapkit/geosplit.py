"""Region-based train/eval splitting that cannot leak backgrounds.

Classifiers trained and evaluated on images from the same camera site can
score well by memorizing the background rather than the animal. To prevent
that, deployments are binned into small geographic grid cells ("regions")
and every region's images go wholesale to exactly one fold.

The grid divides latitude and longitude into cells of ``cell_size_m``
equatorial meters per axis (111320 m per degree on both axes). Because a
degree of longitude shrinks toward the poles while the grid pitch does
not, cells are at most ``cell_size_m`` wide on the ground everywhere: two
points in the same cell are never farther apart than one cell diagonal,
at any latitude, which is the guarantee the split needs. The default
10 m pitch gives cells of at most 100 square meters.

Assignment is deterministic: regions are ordered canonically, shuffled by
a seeded permutation, and greedily packed into the train fold until the
target image fraction is reached. Identical inputs and config always
produce identical folds and manifests.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Union

from ._util import require_header
from .errors import SplitError
from .ingest import UnifiedDataset

METERS_PER_DEGREE = 111320.0

TRAIN = "train"
EVAL = "eval"

ASSIGNMENT_COLUMNS = ["cell_x", "cell_y", "cell_size_m", "fold", "image_count"]


@dataclass(frozen=True, slots=True, order=True)
class RegionId:
    cell_x: int
    cell_y: int
    cell_size_m: float


@dataclass(frozen=True, slots=True)
class SplitConfig:
    train_fraction: float = 0.9
    cell_size_m: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.cell_size_m <= 0:
            raise ValueError(f"cell_size_m must be positive, got {self.cell_size_m}")


@dataclass(frozen=True)
class SplitAssignment:
    folds: dict[RegionId, str]
    region_image_counts: dict[RegionId, int]
    train_images: int
    eval_images: int
    config: SplitConfig

    @property
    def total_images(self) -> int:
        return self.train_images + self.eval_images

    @property
    def realized_train_fraction(self) -> float:
        return self.train_images / self.total_images


@dataclass(frozen=True, slots=True)
class SplitViolation:
    kind: str  # "leakage" or "unassigned"
    region: RegionId
    fold_counts: tuple[tuple[str, int], ...]


def region_id(latitude: float, longitude: float, cell_size_m: float) -> RegionId:
    if not (-90.0 <= latitude <= 90.0 and -180.0 <= longitude <= 180.0):
        raise ValueError(f"invalid coordinates ({latitude}, {longitude})")
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    cell_y = math.floor(latitude * METERS_PER_DEGREE / cell_size_m)
    cell_x = math.floor(longitude * METERS_PER_DEGREE / cell_size_m)
    return RegionId(cell_x, cell_y, cell_size_m)


def _region_counts(dataset: UnifiedDataset, cell_size_m: float):
    """Image count per region; deployments share their region with their images."""
    dep_region = {
        dep_id: region_id(dep.latitude, dep.longitude, cell_size_m)
        for dep_id, dep in dataset.deployments.items()
    }
    counts: dict[RegionId, int] = {}
    for image in dataset.images.values():
        region = dep_region[image.deployment_id]
        counts[region] = counts.get(region, 0) + 1
    return counts, dep_region


def assign_regions(dataset: UnifiedDataset, config: SplitConfig) -> SplitAssignment:
    """Assign every populated region to train or eval, deterministically.

    Regions are shuffled by the seeded permutation, then packed greedily:
    a region joins the train fold if doing so keeps the train image
    fraction at or below the target, otherwise it goes to eval. The image
    fraction comparison uses exact rational arithmetic so boundary cases
    cannot flip with float rounding. If packing left the train fold empty
    (possible when every region alone overshoots a small target), the
    first region of the permutation is forced to train so both folds are
    always populated.
    """
    counts, _ = _region_counts(dataset, config.cell_size_m)
    if len(counts) < 2:
        raise SplitError(f"need at least 2 populated regions to split, found {len(counts)}")

    order = sorted(counts)
    random.Random(config.seed).shuffle(order)

    total = sum(counts.values())
    target = Fraction(config.train_fraction) * total
    folds: dict[RegionId, str] = {}
    train_images = 0
    for region in order:
        if train_images + counts[region] <= target:
            folds[region] = TRAIN
            train_images += counts[region]
        else:
            folds[region] = EVAL

    if train_images == 0:
        forced = order[0]
        folds[forced] = TRAIN
        train_images = counts[forced]

    return SplitAssignment(
        folds=folds,
        region_image_counts=counts,
        train_images=train_images,
        eval_images=total - train_images,
        config=config,
    )


def image_folds(dataset: UnifiedDataset, assignment: SplitAssignment) -> dict[str, str]:
    """Expand a region assignment to a per-image fold mapping."""
    _, dep_region = _region_counts(dataset, assignment.config.cell_size_m)
    return {
        image_id: assignment.folds[dep_region[image.deployment_id]]
        for image_id, image in dataset.images.items()
        if dep_region[image.deployment_id] in assignment.folds
    }


def leakage_check(
    dataset: UnifiedDataset,
    assignment: Union[SplitAssignment, Mapping[str, str]],
    cell_size_m: float | None = None,
) -> list[SplitViolation]:
    """Verify that no region contributes images to both folds.

    Accepts either a region assignment or a per-image fold mapping (the
    form a corrupted or externally produced split arrives in). Returns one
    violation per offending region: kind "leakage" with per-fold image
    counts when a region's images straddle folds, kind "unassigned" when
    a populated region has images without a fold.
    """
    if isinstance(assignment, SplitAssignment):
        # A region missing from the assignment leaves its images without a
        # fold, so the per-image check below reports it as "unassigned".
        cell_size_m = assignment.config.cell_size_m
        folds = image_folds(dataset, assignment)
    elif cell_size_m is None:
        raise ValueError("cell_size_m is required when checking a per-image fold mapping")
    else:
        folds = assignment

    _, dep_region = _region_counts(dataset, cell_size_m)
    per_region: dict[RegionId, dict[str, int]] = {}
    for image_id, image in dataset.images.items():
        region = dep_region[image.deployment_id]
        fold = folds.get(image_id)
        bucket = per_region.setdefault(region, {})
        key = fold if fold is not None else "unassigned"
        bucket[key] = bucket.get(key, 0) + 1

    violations: list[SplitViolation] = []
    for region in sorted(per_region):
        buckets = per_region[region]
        if "unassigned" in buckets:
            violations.append(SplitViolation(
                "unassigned", region, tuple(sorted(buckets.items()))
            ))
        elif len(buckets) > 1:
            violations.append(SplitViolation(
                "leakage", region, tuple(sorted(buckets.items()))
            ))
    return violations


def export_split(
    dataset: UnifiedDataset, assignment: SplitAssignment
) -> tuple[list[str], list[str]]:
    """Produce disjoint, exhaustive train/eval image-id manifests.

    Refuses to export when the leakage check finds any violation. Manifests
    are sorted by image id so repeated exports are byte-identical.
    """
    folds = image_folds(dataset, assignment)
    violations = leakage_check(dataset, folds, assignment.config.cell_size_m)
    if violations:
        raise SplitError(
            f"refusing to export a leaking split: {len(violations)} violation(s), "
            f"first in region {violations[0].region}"
        )
    train_ids = sorted(iid for iid, fold in folds.items() if fold == TRAIN)
    eval_ids = sorted(iid for iid, fold in folds.items() if fold == EVAL)
    return train_ids, eval_ids


def write_manifest(image_ids, stream: IO[str]) -> None:
    for image_id in image_ids:
        stream.write(image_id + "\n")


def read_manifest(stream: IO[str]) -> list[str]:
    return [line.strip() for line in stream if line.strip()]


def write_assignment(assignment: SplitAssignment, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ASSIGNMENT_COLUMNS)
    for region in sorted(assignment.folds):
        writer.writerow([
            region.cell_x,
            region.cell_y,
            repr(region.cell_size_m),
            assignment.folds[region],
            assignment.region_image_counts.get(region, 0),
        ])


def read_assignment(stream: IO[str], config: SplitConfig) -> SplitAssignment:
    reader = csv.reader(stream)
    require_header(reader, ASSIGNMENT_COLUMNS, "assignment")
    folds: dict[RegionId, str] = {}
    counts: dict[RegionId, int] = {}
    train_images = 0
    eval_images = 0
    for row in reader:
        if not row:
            continue
        region = RegionId(int(row[0]), int(row[1]), float(row[2]))
        fold = row[3]
        count = int(row[4])
        folds[region] = fold
        counts[region] = count
        if fold == TRAIN:
            train_images += count
        else:
            eval_images += count
    return SplitAssignment(folds, counts, train_images, eval_images, config)
