"""Score externally produced ranked predictions against ground truth.

A prediction file carries one line per image: the image id followed by
`label:score` entries sorted by descending score. The harness computes
top-k accuracy at any taxonomic level, per-class precision/recall from
the top-1 confusion, dedicated blank-class metrics, geographic-range
filtering of ecologically impossible labels, and a transparent mean-score
aggregator over burst sequences.

Two reporting rules are deliberate and differ from common shortcuts:
images that have ground truth but no prediction count as top-k misses
(and are reported as skipped) instead of being silently excluded, and a
0/0 precision or recall is reported as undefined (None) rather than
coerced to zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence, Union

from ._util import require_header
from .errors import LabelNotFoundError
from .report import Issue, IssueKind, Severity
from .stats import SequenceGroup
from .taxonomy import BLANK, Level, RolledLabel, TaxonomyTable, rollup

RANGE_MAP_COLUMNS = ["label_id", "lat_min", "lat_max", "lon_min", "lon_max"]

METRICS_COLUMNS = ["metric", "label_id_or_overall", "value"]


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    image_id: str
    entries: tuple[tuple[str, float], ...]

    def top1(self) -> tuple[str, float]:
        return self.entries[0]


@dataclass(frozen=True, slots=True)
class ClassMetrics:
    precision: float | None
    recall: float | None
    support: int


@dataclass(frozen=True)
class MetricsReport:
    level: Level
    topk: dict[int, float]
    topk_nonblank: dict[int, float | None]
    per_class: dict[str, ClassMetrics]
    blank_precision: float | None
    blank_recall: float | None
    evaluated: int
    skipped: int
    unresolved_predictions: int = 0
    duplicate_predictions: int = 0
    unmatched_predictions: int = 0


@dataclass(frozen=True, slots=True)
class RangeBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, latitude: float, longitude: float) -> bool:
        return (
            self.lat_min <= latitude <= self.lat_max
            and self.lon_min <= longitude <= self.lon_max
        )


def iter_predictions(stream: IO[str], issues: list[Issue]) -> Iterable[PredictionRecord]:
    """Stream `image_id label:score ...` lines as prediction records.

    Malformed lines, including any score that is not a finite number, are
    appended to ``issues`` with their line number and dropped. Records
    whose scores are not nonincreasing are re-sorted (stable) and flagged;
    duplicate labels within a record keep the highest-ranked occurrence
    and are flagged.
    """
    for line_number, line in enumerate(stream, start=1):
        parsed = _parse_prediction_line(line, line_number, issues)
        if parsed is not None:
            yield parsed


def _parse_prediction_line(line: str, line_number: int, issues: list[Issue]):
    parts = line.split()
    if not parts:
        return None
    image_id = parts[0]
    if len(parts) < 2:
        issues.append(Issue(
            IssueKind.MALFORMED_PREDICTION,
            image_id,
            f"line {line_number}: no ranked entries",
        ))
        return None
    entries: list[tuple[str, float]] = []
    labels_seen: set[str] = set()
    duplicate = False
    for token in parts[1:]:
        label, sep, score_text = token.rpartition(":")
        if not sep or not label:
            issues.append(Issue(
                IssueKind.MALFORMED_PREDICTION,
                image_id,
                f"line {line_number}: bad entry {token!r}",
            ))
            return None
        try:
            score = float(score_text)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            issues.append(Issue(
                IssueKind.MALFORMED_PREDICTION,
                image_id,
                f"line {line_number}: bad score in {token!r}",
            ))
            return None
        if label in labels_seen:
            duplicate = True
            continue
        labels_seen.add(label)
        entries.append((label, score))
    if duplicate:
        issues.append(Issue(
            IssueKind.DUPLICATE_ID,
            image_id,
            f"line {line_number}: duplicate labels in record, highest rank kept",
            Severity.WARNING,
        ))
    scores = [score for _, score in entries]
    if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
        issues.append(Issue(
            IssueKind.UNSORTED_SCORES,
            image_id,
            f"line {line_number}: scores not nonincreasing, re-sorted",
            Severity.WARNING,
        ))
        entries.sort(key=lambda entry: -entry[1])
    return PredictionRecord(image_id, tuple(entries))


def write_predictions(records: Iterable[PredictionRecord], stream: IO[str]) -> None:
    for record in records:
        tokens = " ".join(f"{label}:{score!r}" for label, score in record.entries)
        stream.write(f"{record.image_id} {tokens}\n")


def _rollup_cache(table: TaxonomyTable, level: Level) -> dict[str, RolledLabel]:
    return {label_id: rollup(label_id, level, table) for label_id in table.records}


def _rolled_ranking(
    entries: Sequence[tuple[str, float]],
    cache: Mapping[str, RolledLabel],
) -> tuple[list[RolledLabel], int]:
    """Rolled labels in rank order, deduplicated, plus unresolved count."""
    ranking: list[RolledLabel] = []
    unresolved = 0
    for label, _ in entries:
        rolled = cache.get(label)
        if rolled is None:
            unresolved += 1
        elif rolled not in ranking:
            ranking.append(rolled)
    return ranking, unresolved


def evaluate(
    predictions: Iterable[PredictionRecord],
    truth: Mapping[str, str],
    table: TaxonomyTable,
    ks: Sequence[int] = (1, 3),
    level: Level = Level.SPECIES,
) -> MetricsReport:
    """Single pass over predictions producing the full metrics report.

    ``truth`` maps image id to ground-truth label id and defines the
    evaluation scope: predictions for other images are counted as
    unmatched and ignored, truth images with no prediction are counted
    as misses and reported as skipped. Top-k accuracy for every ``k``,
    per-class precision/recall from the top-1 confusion and the blank
    metrics all come from this one pass.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 1:
        raise ValueError(f"k values must be >= 1, got {ks}")
    if not truth:
        raise ValueError("truth mapping is empty, nothing to evaluate")
    level = Level(level)

    cache = _rollup_cache(table, level)
    truth_rolled: dict[str, RolledLabel] = {}
    support: dict[str, int] = {}
    nonblank_total = 0
    for image_id, label_id in truth.items():
        rolled = cache.get(label_id)
        if rolled is None:
            raise LabelNotFoundError(f"truth label {label_id!r} not in taxonomy")
        truth_rolled[image_id] = rolled
        support[rolled.name] = support.get(rolled.name, 0) + 1
        if rolled.special != BLANK:
            nonblank_total += 1

    hits = {k: 0 for k in ks}
    nonblank_hits = {k: 0 for k in ks}
    true_positives: dict[str, int] = {}
    predicted: dict[str, int] = {}
    unresolved = 0
    seen: set[str] = set()
    duplicates = 0
    unmatched = 0
    for record in predictions:
        image_id = record.image_id
        entries = record.entries
        if not entries:
            continue  # an empty ranking is no prediction at all
        truth_label = truth_rolled.get(image_id)
        if truth_label is None:
            unmatched += 1
            continue
        if image_id in seen:
            duplicates += 1
            continue
        seen.add(image_id)

        ranking, missing = _rolled_ranking(entries, cache)
        unresolved += missing
        rank = None
        for index, rolled in enumerate(ranking):
            if rolled == truth_label:
                rank = index
                break
        if rank is not None:
            for k in ks:
                if rank < k:
                    hits[k] += 1
                    if truth_label.special != BLANK:
                        nonblank_hits[k] += 1

        assigned = cache.get(entries[0][0])
        if assigned is not None:
            predicted[assigned.name] = predicted.get(assigned.name, 0) + 1
            if assigned == truth_label:
                true_positives[truth_label.name] = true_positives.get(truth_label.name, 0) + 1

    evaluated = len(truth_rolled)
    per_class: dict[str, ClassMetrics] = {}
    for name in sorted(set(support) | set(predicted)):
        tp = true_positives.get(name, 0)
        n_predicted = predicted.get(name, 0)
        n_actual = support.get(name, 0)
        per_class[name] = ClassMetrics(
            precision=tp / n_predicted if n_predicted else None,
            recall=tp / n_actual if n_actual else None,
            support=n_actual,
        )

    blank_name = rollup(table.blank_label_id, level, table).name
    blank = per_class.get(blank_name)

    return MetricsReport(
        level=level,
        topk={k: hits[k] / evaluated for k in ks},
        topk_nonblank={
            k: (nonblank_hits[k] / nonblank_total if nonblank_total else None)
            for k in ks
        },
        per_class=per_class,
        blank_precision=blank.precision if blank else None,
        blank_recall=blank.recall if blank else None,
        evaluated=evaluated,
        skipped=evaluated - len(seen),
        unresolved_predictions=unresolved,
        duplicate_predictions=duplicates,
        unmatched_predictions=unmatched,
    )


def geofilter(
    record: PredictionRecord,
    latitude: float,
    longitude: float,
    range_map: Mapping[str, Sequence[RangeBox]],
    unknown_label_id: str = "unknown",
) -> PredictionRecord:
    """Drop predicted labels whose allowed geographic range excludes the site.

    Labels absent from the range map are unrestricted. Survivors keep
    their relative order and scores. If nothing survives, a single
    unknown-label entry with score 0 is emitted so the record never goes
    empty.
    """
    survivors = tuple(
        (label, score)
        for label, score in record.entries
        if label not in range_map
        or any(box.contains(latitude, longitude) for box in range_map[label])
    )
    if not survivors:
        survivors = ((unknown_label_id, 0.0),)
    return PredictionRecord(record.image_id, survivors)


def parse_range_map(stream: IO[str]) -> tuple[dict[str, list[RangeBox]], list[Issue]]:
    """Read `label_id,lat_min,lat_max,lon_min,lon_max` rows (repeatable per label)."""
    reader = csv.reader(stream)
    require_header(reader, RANGE_MAP_COLUMNS, "range map")
    boxes: dict[str, list[RangeBox]] = {}
    issues: list[Issue] = []
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(RANGE_MAP_COLUMNS):
            issues.append(Issue(
                IssueKind.MISSING_FIELD,
                f"row {row_number}",
                f"row {row_number}: expected {len(RANGE_MAP_COLUMNS)} columns, got {len(row)}",
            ))
            continue
        label = row[0].strip()
        try:
            bounds = [float(cell) for cell in row[1:]]
        except ValueError:
            bounds = [math.nan]
        if not all(math.isfinite(bound) for bound in bounds):
            issues.append(Issue(
                IssueKind.BAD_COORDINATE,
                label or f"row {row_number}",
                f"row {row_number}: box bounds are not all finite numbers",
            ))
            continue
        lat_min, lat_max, lon_min, lon_max = bounds
        if lat_min > lat_max or lon_min > lon_max:
            issues.append(Issue(
                IssueKind.BAD_COORDINATE,
                label,
                f"row {row_number}: box minimum exceeds maximum",
            ))
            continue
        boxes.setdefault(label, []).append(RangeBox(lat_min, lat_max, lon_min, lon_max))
    return boxes, issues


def sequence_aggregate(
    predictions: Union[Mapping[str, PredictionRecord], Iterable[PredictionRecord]],
    groups: Sequence[SequenceGroup],
) -> tuple[list[PredictionRecord], list[str]]:
    """Fuse per-image predictions into one ranked record per burst group.

    Each member record's scores are normalized by its own top score, the
    normalized scores are averaged per label across the group's predicted
    members (absent labels contribute zero), and labels are re-ranked by
    descending mean with ties broken by label id. Groups with no predicted
    member are skipped and returned in the second element.
    """
    if not isinstance(predictions, Mapping):
        by_image: dict[str, PredictionRecord] = {}
        for record in predictions:
            by_image.setdefault(record.image_id, record)
    else:
        by_image = dict(predictions)

    aggregated: list[PredictionRecord] = []
    skipped: list[str] = []
    for group in groups:
        members = [
            by_image[iid] for iid in group.image_ids
            if iid in by_image and by_image[iid].entries
        ]
        if not members:
            skipped.append(group.sequence_id)
            continue
        sums: dict[str, float] = {}
        for record in members:
            top_score = record.entries[0][1]
            for label, score in record.entries:
                normalized = score / top_score if top_score > 0 else 0.0
                sums[label] = sums.get(label, 0.0) + normalized
        means = {label: value / len(members) for label, value in sums.items()}
        ranked = tuple(sorted(means.items(), key=lambda item: (-item[1], item[0])))
        aggregated.append(PredictionRecord(group.sequence_id, ranked))
    return aggregated, skipped


def _value_text(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics(report: MetricsReport, stream: IO[str]) -> None:
    """Machine-readable `metric,label_id_or_overall,value` rows."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    writer.writerow(["level", "overall", report.level.name.lower()])
    for k in sorted(report.topk):
        writer.writerow([f"top{k}_accuracy", "overall", _value_text(report.topk[k])])
    for k in sorted(report.topk_nonblank):
        writer.writerow([
            f"top{k}_accuracy_nonblank", "overall", _value_text(report.topk_nonblank[k])
        ])
    writer.writerow(["evaluated_images", "overall", report.evaluated])
    writer.writerow(["skipped_images", "overall", report.skipped])
    writer.writerow(["unresolved_predictions", "overall", report.unresolved_predictions])
    writer.writerow(["blank_precision", "overall", _value_text(report.blank_precision)])
    writer.writerow(["blank_recall", "overall", _value_text(report.blank_recall)])
    for name, metrics in report.per_class.items():
        writer.writerow(["precision", name, _value_text(metrics.precision)])
        writer.writerow(["recall", name, _value_text(metrics.recall)])
        writer.writerow(["support", name, metrics.support])


def summarize_metrics(report: MetricsReport) -> str:
    lines = [f"evaluation at {report.level.name.lower()} level:"]
    for k in sorted(report.topk):
        lines.append(f"  top-{k} accuracy          {report.topk[k]:.4f}")
    for k in sorted(report.topk_nonblank):
        value = report.topk_nonblank[k]
        text = f"{value:.4f}" if value is not None else "undefined"
        lines.append(f"  top-{k} accuracy (nonblank) {text}")
    blank_p = "undefined" if report.blank_precision is None else f"{report.blank_precision:.4f}"
    blank_r = "undefined" if report.blank_recall is None else f"{report.blank_recall:.4f}"
    lines.append(f"  blank precision          {blank_p}")
    lines.append(f"  blank recall             {blank_r}")
    lines.append(f"  evaluated images         {report.evaluated}")
    lines.append(f"  skipped (no prediction)  {report.skipped}")
    if report.unmatched_predictions:
        lines.append(f"  unmatched predictions    {report.unmatched_predictions}")
    if report.unresolved_predictions:
        lines.append(f"  unresolved pred labels   {report.unresolved_predictions}")
    return "\n".join(lines)
