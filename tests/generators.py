"""Seeded random generators for synthetic taxonomies, datasets, predictions.

All generators take an explicit random.Random so every test run is
reproducible. Taxonomies are tree-consistent by construction: every node
name encodes its full ancestry, so two records can never disagree about
a shared name.
"""

import random
from datetime import datetime, timezone

from trapkit.ingest import Deployment, ImageRecord, UnifiedDataset
from trapkit.taxonomy import TaxonRecord, TaxonomyTable

EPOCH = datetime(2016, 1, 1, tzinfo=timezone.utc)


def zipf_weights(n, exponent):
    weights = [1.0 / (i ** exponent) for i in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def tuned_zipf_exponent(n_labels, n_top, target_coverage, tolerance=1e-9):
    """Exponent for which the top ``n_top`` of ``n_labels`` Zipf classes
    hold ``target_coverage`` of the mass, found by bisection."""
    def coverage(exponent):
        weights = zipf_weights(n_labels, exponent)
        return sum(weights[:n_top])

    low, high = 0.0, 10.0
    while high - low > tolerance:
        mid = (low + high) / 2
        if coverage(mid) < target_coverage:
            low = mid
        else:
            high = mid
    return (low + high) / 2


def random_taxonomy(rng: random.Random, n_species=20, coarse_only_fraction=0.0):
    """A tree-consistent table with blank and unknown labels.

    With ``coarse_only_fraction`` > 0, that share of labels stops at a
    random level above species (still contiguous from class).
    """
    records = {}
    for index in range(n_species):
        class_i = rng.randrange(1, 3)
        order_i = rng.randrange(1, 4)
        family_i = rng.randrange(1, 4)
        genus_i = rng.randrange(1, 4)
        names = [
            f"c{class_i}",
            f"o{class_i}.{order_i}",
            f"f{class_i}.{order_i}.{family_i}",
            f"g{class_i}.{order_i}.{family_i}.{genus_i}",
            f"s{class_i}.{order_i}.{family_i}.{genus_i}.{index}",
        ]
        if rng.random() < coarse_only_fraction:
            keep = rng.randrange(1, 5)
            names = names[:keep] + [None] * (5 - keep)
        records[f"sp{index}"] = TaxonRecord(f"sp{index}", *names)
    records["blank"] = TaxonRecord("blank", special_kind="blank")
    records["unknown"] = TaxonRecord("unknown", special_kind="unknown")
    return TaxonomyTable(records, "blank", "unknown")


def region_coordinates(index):
    """Well-separated coordinates, one per index, far from cell boundaries."""
    row, col = divmod(index, 100)
    return -50.0 + row * 0.01 + 0.0043, -120.0 + col * 0.01 + 0.0043


def random_dataset(
    rng: random.Random,
    n_regions,
    table=None,
    zipf_exponent=1.2,
    total_images=None,
    blank_share=0.25,
):
    """Synthetic unified dataset with one deployment per region.

    Region image counts follow a Zipf profile so a few regions dominate,
    mirroring how real camera networks behave. ``total_images`` is a
    target; every region keeps at least one image.
    """
    if table is None:
        table = random_taxonomy(rng, n_species=10)
    species = [lid for lid, rec in table.records.items() if rec.special_kind is None]
    if total_images is None:
        total_images = 4 * n_regions

    deployments = {}
    images = {}
    weights = zipf_weights(n_regions, zipf_exponent)
    serial = 0
    for region in range(n_regions):
        dep_id = f"d{region}"
        latitude, longitude = region_coordinates(region)
        deployments[dep_id] = Deployment(dep_id, "proj", latitude, longitude)
        count = max(1, round(weights[region] * total_images))
        for _ in range(count):
            image_id = f"i{serial}"
            serial += 1
            if rng.random() < blank_share:
                label = table.blank_label_id
            else:
                label = rng.choice(species)
            images[image_id] = ImageRecord(image_id, dep_id, EPOCH, label, None, "gen")
    return UnifiedDataset(deployments, images, table, ("gen",))


def random_truth(rng: random.Random, table, n_images, blank_share=0.2):
    """image id -> label id with a Zipf profile over species labels."""
    species = sorted(lid for lid, rec in table.records.items() if rec.special_kind is None)
    weights = zipf_weights(len(species), 1.1)
    truth = {}
    for index in range(n_images):
        if rng.random() < blank_share:
            truth[f"i{index}"] = table.blank_label_id
        else:
            truth[f"i{index}"] = rng.choices(species, weights=weights)[0]
    return truth


def random_predictions(
    rng: random.Random,
    truth,
    table,
    missing_fraction=0.05,
    truth_in_ranking=0.8,
    max_entries=5,
):
    """Ranked prediction records for most truth images.

    The truth label is planted somewhere in the ranking with probability
    ``truth_in_ranking``; scores are sorted descending by construction.
    """
    labels = sorted(table.records)
    records = []
    for image_id, label_id in truth.items():
        if rng.random() < missing_fraction:
            continue
        n_entries = rng.randint(1, max_entries)
        chosen = rng.sample(labels, min(n_entries, len(labels)))
        if rng.random() < truth_in_ranking:
            if label_id in chosen:
                chosen.remove(label_id)
            chosen.insert(rng.randrange(len(chosen) + 1), label_id)
        elif label_id in chosen:
            chosen.remove(label_id)
        if not chosen:
            chosen = [rng.choice(labels)]
        scores = sorted((round(rng.random(), 6) for _ in chosen), reverse=True)
        entries = tuple(zip(chosen, scores))
        records.append((image_id, entries))
    return records


BULK_IMAGES = 1_000_000
BULK_DEPLOYMENTS = 2_000
BULK_SPECIES = 465


def write_bulk_corpus(root):
    """Write criterion 7's desk-scale corpus into directory ``root``.

    ``taxonomy.csv`` (BULK_SPECIES species plus blank and unknown),
    ``deployments.csv`` (BULK_DEPLOYMENTS rows), ``images.csv`` (BULK_IMAGES rows,
    about 30% blank) and ``predictions.txt`` (one line per image, the true label
    ranked first on about 72% of lines), all drawn from seed 99.
    """
    rng = random.Random(99)
    species = [f"sp{i}" for i in range(BULK_SPECIES)]

    with open(root / "taxonomy.csv", "w") as handle:
        handle.write("label_id,class_name,order_name,family_name,genus_name,"
                     "species_name,special_kind\n")
        for i in range(BULK_SPECIES):
            genus = i % 300
            family = genus % 120
            order = family % 40
            handle.write(f"sp{i},Mammalia,o{order},f{family},g{genus},s{i},\n")
        handle.write("blank,,,,,,blank\nunknown,,,,,,unknown\n")

    with open(root / "deployments.csv", "w") as handle:
        handle.write("deployment_id,project_id,latitude,longitude,camera_model,"
                     "start_time,end_time,notes\n")
        for d in range(BULK_DEPLOYMENTS):
            lat, lon = region_coordinates(d)
            handle.write(f"d{d},proj,{lat!r},{lon!r},,,,\n")

    clock = [f"2016-01-01T{s // 3600:02d}:{(s // 60) % 60:02d}:{s % 60:02d}Z"
             for s in range(86400)]
    pool = species + ["blank"]
    weights = [0.7 * w for w in zipf_weights(BULK_SPECIES, 1.3)] + [0.3]

    labels = []
    with open(root / "images.csv", "w") as handle:
        handle.write("image_id,deployment_id,timestamp,label_id,burst_index,source_id\n")
        for chunk_start in range(0, BULK_IMAGES, 100_000):
            size = min(100_000, BULK_IMAGES - chunk_start)
            chunk = rng.choices(pool, weights=weights, k=size)
            labels.extend(chunk)
            handle.writelines(
                f"i{chunk_start + j:07d},d{(chunk_start + j) % BULK_DEPLOYMENTS},"
                f"{clock[(chunk_start + j) % 86400]},{chunk[j]},,bulk\n"
                for j in range(size)
            )

    with open(root / "predictions.txt", "w") as handle:
        lines = []
        for index, truth in enumerate(labels):
            alt1 = species[(index * 7 + 1) % BULK_SPECIES]
            alt2 = species[(index * 7 + 3) % BULK_SPECIES]
            if alt1 == truth:
                alt1 = species[(index * 7 + 2) % BULK_SPECIES]
            if alt2 in (truth, alt1):
                alt2 = species[(index * 7 + 5) % BULK_SPECIES]
            if rng.random() < 0.72:
                lines.append(f"i{index:07d} {truth}:0.7 {alt1}:0.2 {alt2}:0.1\n")
            else:
                lines.append(f"i{index:07d} {alt1}:0.6 {truth}:0.3 {alt2}:0.1\n")
            if len(lines) >= 100_000:
                handle.writelines(lines)
                lines = []
        handle.writelines(lines)
