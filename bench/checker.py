"""Correctness checks for one pipeline's artifacts against planted values.

Every check reads the artifacts the CLI wrote and compares them with what
the workload generator planted, never with another run of the program.
`check_pipeline` returns, per command, the list of problems found; a
command with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from pathlib import Path

from workloads import Workload, grid_cell

ARTIFACTS = {
    "ingest": {"deployments.csv", "images.csv", "provenance.txt", "issues.csv"},
    "validate": {"issues.csv"},
    "stats": {"skew.csv"},
    "split": {"train.txt", "eval.txt", "assignment.csv"},
    "eval": {"metrics.csv"},
    "geofilter": {"predictions_filtered.txt"},
    "weights": {"weights.csv"},
    "sequences": {"sequences.csv", "sequence_predictions.txt"},
}


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_issue_counts(path: Path, expected: dict[str, int]) -> list[str]:
    counts = Counter(row[0] for row in _rows(path) if row)
    return [
        f"{path.name}: {counts[kind]} {kind} issue(s), planted {expected.get(kind, 0)}"
        for kind in sorted(set(expected) | set(counts))
        if counts[kind] != expected.get(kind, 0)
    ]


def _check_ingest(outdir: Path, workload: Workload) -> list[str]:
    expected = workload.expected
    errors = []
    image_rows = _rows(outdir / "images.csv")[1:]
    if len(image_rows) != len(expected.truth):
        errors.append(f"images.csv has {len(image_rows)} rows, expected {len(expected.truth)}")
    elif {row[0] for row in image_rows} != expected.truth.keys():
        errors.append("images.csv ids differ from the kept images")
    deployment_rows = _rows(outdir / "deployments.csv")[1:]
    if len(deployment_rows) != expected.deployments:
        errors.append(f"deployments.csv has {len(deployment_rows)} rows, "
                      f"expected {expected.deployments}")
    if _lines(outdir / "provenance.txt") != expected.source_names:
        errors.append("provenance.txt does not list the sources in order")
    errors += check_issue_counts(outdir / "issues.csv", expected.issues)
    return errors


def _check_stats(outdir: Path, workload: Workload) -> list[str]:
    expected = workload.expected
    special = expected.blank_labels | expected.unknown_labels
    animal = Counter(label for label in expected.truth.values() if label not in special)
    rows = _rows(outdir / "skew.csv")[1:]
    errors = []
    if len(rows) != len(animal):
        errors.append(f"skew.csv has {len(rows)} labels, expected {len(animal)}")
    if {row[1]: int(row[2]) for row in rows} != dict(animal):
        errors.append("skew.csv counts differ from planted label counts")
    return errors


def check_split(outdir: Path, workload: Workload) -> list[str]:
    """Folds are disjoint, cover the kept images, and share no grid cell."""
    expected = workload.expected
    train = _lines(outdir / "train.txt")
    evaluation = _lines(outdir / "eval.txt")
    errors = []
    train_set, eval_set = set(train), set(evaluation)
    if len(train_set) != len(train) or len(eval_set) != len(evaluation):
        errors.append("a manifest lists an image twice")
    if train_set & eval_set:
        errors.append(f"{len(train_set & eval_set)} image(s) in both folds")
    if train_set | eval_set != expected.truth.keys():
        errors.append("train and eval together differ from the kept images")
    if not train or not evaluation:
        errors.append("a fold is empty")

    def cells(ids):
        out = set()
        for image_id in ids:
            dep_id = expected.image_deployment.get(image_id)
            if dep_id is not None:
                out.add(grid_cell(*expected.deployment_coords[dep_id]))
        return out

    shared = cells(train_set) & cells(eval_set)
    if shared:
        errors.append(f"{len(shared)} grid cell(s) have deployments in both folds")
    return errors


def _value(number: int, total: int) -> str:
    return repr(number / total) if total else "undefined"


def check_metrics(outdir: Path, split_dir: Path, workload: Workload) -> list[str]:
    """metrics.csv top-k equals top-k from the planted ranks of the eval fold."""
    expected = workload.expected
    flags = workload.eval_flags
    ks = sorted({int(flags[i + 1]) for i, flag in enumerate(flags) if flag == "--k"})
    eval_ids = [i for i in _lines(split_dir / "eval.txt") if i in expected.truth]
    nonblank = [i for i in eval_ids if expected.truth[i] not in expected.blank_labels]
    values = {(row[0], row[1]): row[2] for row in _rows(outdir / "metrics.csv")[1:] if len(row) == 3}
    wanted = {
        ("evaluated_images", "overall"): str(len(eval_ids)),
        ("skipped_images", "overall"): str(sum(1 for i in eval_ids if i not in expected.predicted)),
    }
    for k in ks:
        hits = sum(1 for i in eval_ids if expected.rank.get(i, k) < k)
        nonblank_hits = sum(1 for i in nonblank if expected.rank.get(i, k) < k)
        wanted[(f"top{k}_accuracy", "overall")] = _value(hits, len(eval_ids))
        wanted[(f"top{k}_accuracy_nonblank", "overall")] = _value(nonblank_hits, len(nonblank))
    return [
        f"metrics.csv {metric} is {values.get((metric, key))!r}, planted {value!r}"
        for (metric, key), value in wanted.items()
        if values.get((metric, key)) != value
    ]


def _check_geofilter(outdir: Path, workload: Workload) -> list[str]:
    lines = _lines(outdir / "predictions_filtered.txt")
    ids = [line.split(" ", 1)[0] for line in lines]
    errors = []
    if ids != workload.expected.prediction_ids:
        errors.append("predictions_filtered.txt ids differ from the parseable prediction lines")
    if any(len(line.split()) < 2 for line in lines):
        errors.append("predictions_filtered.txt has a record without entries")
    return errors


def _check_weights(outdir: Path, workload: Workload) -> list[str]:
    labels = {row[0] for row in _rows(outdir / "weights.csv")[1:]}
    if labels != set(workload.expected.truth.values()):
        return ["weights.csv labels differ from the labels of the kept images"]
    return []


def _check_sequences(outdir: Path, workload: Workload) -> list[str]:
    expected = workload.expected
    rows = _rows(outdir / "sequences.csv")[1:]
    errors = []
    if len(rows) != expected.bursts:
        errors.append(f"sequences.csv has {len(rows)} sequences, planted {expected.bursts}")
    members = Counter(image_id for row in rows for image_id in row[5].split())
    if members.keys() != expected.truth.keys() or any(n != 1 for n in members.values()):
        errors.append("a kept image is missing from the sequences or appears twice")
    aggregated = len(_lines(outdir / "sequence_predictions.txt"))
    if aggregated != expected.predicted_bursts:
        errors.append(f"sequence_predictions.txt has {aggregated} records, "
                      f"planted {expected.predicted_bursts}")
    return errors


def check_pipeline(
    out_root: Path, workload: Workload, exit_codes: dict[str, int]
) -> dict[str, list[str]]:
    """Problems per command for one pipeline written under ``out_root``."""
    out_root = Path(out_root)
    content_checks = {
        "ingest": lambda d: _check_ingest(d, workload),
        "validate": lambda d: check_issue_counts(d / "issues.csv", workload.expected.issues),
        "stats": lambda d: _check_stats(d, workload),
        "split": lambda d: check_split(d, workload),
        "eval": lambda d: check_metrics(d, out_root / "split", workload),
        "geofilter": lambda d: _check_geofilter(d, workload),
        "weights": lambda d: _check_weights(d, workload),
        "sequences": lambda d: _check_sequences(d, workload),
    }
    problems: dict[str, list[str]] = {}
    for command, check in content_checks.items():
        outdir = out_root / command
        if exit_codes.get(command) != 0:
            problems[command] = [f"exit status {exit_codes.get(command)}"]
            continue
        present = {p.name for p in outdir.iterdir()} if outdir.is_dir() else set()
        if present != ARTIFACTS[command]:
            problems[command] = [f"artifacts {sorted(present)}, expected {sorted(ARTIFACTS[command])}"]
            continue
        try:
            problems[command] = check(outdir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems[command] = [f"unreadable artifact: {exc!r}"]
    return problems


def artifact_digests(out_root: Path) -> dict[str, str]:
    """sha256 of every artifact, keyed by its path relative to ``out_root``."""
    out_root = Path(out_root)
    return {
        str(path.relative_to(out_root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_root.rglob("*"))
        if path.is_file()
    }
