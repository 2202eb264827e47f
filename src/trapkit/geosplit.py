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

import math
import random
from collections import Counter
from itertools import chain, repeat
from operator import attrgetter
from typing import IO, Mapping, NamedTuple

from ._util import coordinate_ok, positive, write_rows
from .errors import SplitError
from .ingest import UnifiedDataset

METERS_PER_DEGREE = 111320.0

TRAIN = "train"
EVAL = "eval"

ASSIGNMENT_COLUMNS = ["cell_x", "cell_y", "cell_size_m", "fold", "image_count"]

# A region is its grid cell's exact ``(cell_x, cell_y)`` tuple: the split's one
# cell size is held once, by its SplitConfig.
Region = tuple[int, int]

_DEPLOYMENT_ID = attrgetter("deployment_id")


class SplitConfig:
    def __init__(self, train_fraction: float = 0.9, cell_size_m: float = 10.0, seed: int = 0):
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        self.train_fraction = train_fraction
        self.cell_size_m = positive("cell_size_m", cell_size_m)
        self.seed = seed


class SplitAssignment(NamedTuple):
    folds: dict[Region, str]
    region_image_counts: dict[Region, int]
    deployment_regions: dict[str, Region]
    train_images: int
    eval_images: int
    config: SplitConfig

    @property
    def total_images(self) -> int:
        return self.train_images + self.eval_images

    @property
    def realized_train_fraction(self) -> float:
        return self.train_images / self.total_images


class SplitViolation(NamedTuple):
    kind: str  # "leakage" or "unassigned"
    region: Region
    fold_counts: tuple[tuple[str, int], ...]


def region_id(latitude: float, longitude: float, cell_size_m: float) -> Region:
    if not coordinate_ok(latitude, longitude):
        raise ValueError(f"invalid coordinates ({latitude}, {longitude})")
    positive("cell_size_m", cell_size_m)
    cell_y = latitude * METERS_PER_DEGREE / cell_size_m
    cell_x = longitude * METERS_PER_DEGREE / cell_size_m
    if not (math.isfinite(cell_y) and math.isfinite(cell_x)):
        raise ValueError(f"cell_size_m {cell_size_m} is too small: the cell index of "
                         f"({latitude}, {longitude}) is not a finite number")
    return math.floor(cell_x), math.floor(cell_y)


def _deployment_regions(dataset: UnifiedDataset, cell_size_m: float) -> dict[str, Region]:
    return {
        dep_id: region_id(dep.latitude, dep.longitude, cell_size_m)
        for dep_id, dep in dataset.deployments.items()
    }


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
    dep_region = _deployment_regions(dataset, config.cell_size_m)
    counts: dict[Region, int] = {}
    for dep_id, image_count in Counter(map(_DEPLOYMENT_ID, dataset.images.values())).items():
        region = dep_region[dep_id]
        counts[region] = counts.get(region, 0) + image_count
    if len(counts) < 2:
        raise SplitError(f"need at least 2 populated regions to split, found {len(counts)}")

    order = sorted(counts)
    random.Random(config.seed).shuffle(order)

    total = sum(counts.values())
    num, den = config.train_fraction.as_integer_ratio()
    folds: dict[Region, str] = {}
    train_images = 0
    for region in order:
        if (train_images + counts[region]) * den <= num * total:
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
        deployment_regions=dep_region,
        train_images=train_images,
        eval_images=total - train_images,
        config=config,
    )


def image_folds(dataset: UnifiedDataset, assignment: SplitAssignment) -> dict[str, str]:
    """Expand a region assignment to a per-image fold mapping.

    Reads the deployment-to-region map that ``assign_regions`` stored, so
    ``dataset`` must be the dataset that was assigned. An image whose
    region the assignment does not name gets no entry.
    """
    folds = assignment.folds
    dep_fold = {
        dep_id: folds[region]
        for dep_id, region in assignment.deployment_regions.items()
        if region in folds
    }
    return {
        image_id: fold
        for image_id, image in dataset.images.items()
        if (fold := dep_fold.get(image.deployment_id)) is not None
    }


def leakage_check(
    dataset: UnifiedDataset, folds: Mapping[str, str], cell_size_m: float
) -> list[SplitViolation]:
    """Verify that no region of ``cell_size_m`` contributes images to both folds.

    ``folds`` maps image id to fold: the output of ``image_folds``, or a
    corrupted or externally produced split. Returns one violation per
    offending region: kind "leakage" with per-fold image counts when a
    region's images straddle folds, kind "unassigned" when a populated
    region has images without a fold.
    """
    dep_region = _deployment_regions(dataset, cell_size_m)
    images = dataset.images
    # Count per (deployment, fold) pair, whose string keys cache their hashes.
    pairs = Counter(zip(map(_DEPLOYMENT_ID, images.values()),
                        map(folds.get, images, repeat("unassigned"))))
    per_region: dict[Region, dict[str, int]] = {}
    for (dep_id, fold), count in pairs.items():
        bucket = per_region.setdefault(dep_region[dep_id], {})
        bucket[fold] = bucket.get(fold, 0) + count

    violations = [
        SplitViolation("unassigned" if "unassigned" in buckets else "leakage", region,
                       tuple(sorted(buckets.items())))
        for region, buckets in per_region.items()
        if len(buckets) > 1 or "unassigned" in buckets
    ]
    violations.sort(key=lambda violation: violation.region)
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
            f"first in cell {violations[0].region} of {assignment.config.cell_size_m} m"
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
    cell_size_m = assignment.config.cell_size_m
    folds, counts = assignment.folds, assignment.region_image_counts
    write_rows(stream, chain([ASSIGNMENT_COLUMNS], (
        (*region, cell_size_m, folds[region], counts[region]) for region in sorted(folds)
    )))
