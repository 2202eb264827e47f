"""Tests for the benchmark's generators, checker and span arithmetic.

Run from the repository root:

    python -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from checker import artifact_digests, check_metrics, check_pipeline, check_split  # noqa: E402
from spans import self_by_name, self_times  # noqa: E402
from trapkit.cli import main as trapkit_main  # noqa: E402

SMALL = {
    "BULK_IMAGES": 3000,
    "MERGE_DEPLOYMENTS": 800,
    "MERGE_IMAGES": 2500,
    "RANKED_IMAGES": 2000,
    "RANKED_DEPLOYMENTS": 30,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _pipeline(workload, out_root):
    exit_codes = {}
    for command, argv in workloads.pipeline_commands(workload, out_root):
        exit_codes[command] = trapkit_main(argv)
    return exit_codes


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_bytes_depend_only_on_seed(small, tmp_path, name):
    workloads.generate(name, 7, tmp_path / "a")
    workloads.generate(name, 7, tmp_path / "b")
    workloads.generate(name, 8, tmp_path / "c")
    first = artifact_digests(tmp_path / "a")
    assert first == artifact_digests(tmp_path / "b")
    other = artifact_digests(tmp_path / "c")
    assert first.keys() == other.keys()
    assert first != other


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_checker_accepts_the_real_pipeline(small, tmp_path, capsys, name):
    workload = workloads.generate(name, 3, tmp_path / "inputs")
    exit_codes = _pipeline(workload, tmp_path / "out")
    capsys.readouterr()
    problems = check_pipeline(tmp_path / "out", workload, exit_codes)
    assert problems == {command: [] for command in problems}
    assert len(problems) == 8


@pytest.fixture
def finished(small, tmp_path, capsys):
    workload = workloads.generate("ranked-bursts", 5, tmp_path / "inputs")
    exit_codes = _pipeline(workload, tmp_path / "out")
    capsys.readouterr()
    assert all(code == 0 for code in exit_codes.values())
    return workload, tmp_path / "out"


def test_checker_flags_an_eval_image_moved_into_train(finished):
    workload, out = finished
    split = out / "split"
    assert check_split(split, workload) == []
    train = (split / "train.txt").read_text().splitlines()
    evaluation = (split / "eval.txt").read_text().splitlines()
    (split / "train.txt").write_text("\n".join(sorted(train + evaluation[:1])) + "\n")
    (split / "eval.txt").write_text("\n".join(evaluation[1:]) + "\n")
    problems = check_split(split, workload)
    assert any("both folds" in problem for problem in problems)


def test_checker_flags_a_changed_metric_value(finished):
    workload, out = finished
    metrics = out / "eval" / "metrics.csv"
    assert check_metrics(out / "eval", out / "split", workload) == []
    lines = metrics.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("top3_accuracy,"))
    value = float(lines[index].rsplit(",", 1)[1])
    lines[index] = f"top3_accuracy,overall,{value + 0.001!r}"
    metrics.write_text("\n".join(lines) + "\n")
    problems = check_metrics(out / "eval", out / "split", workload)
    assert len(problems) == 1 and "top3_accuracy" in problems[0]


def test_self_time_of_nested_and_concurrent_spans():
    # root 0..10 holds a 1..4 (which holds b 2..3) and two worker-thread
    # spans c 5..9 and d 6..8 that overlap each other.
    spans = [
        (0, "root", 0.0, 10.0, None),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 2.0, 3.0, 1),
        (3, "c", 5.0, 9.0, 0),
        (4, "d", 6.0, 8.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_names_and_skips_empty_spans():
    spans = [
        (0, "main", 0.0, 6.0, None),
        (1, "parse", 0.5, 1.5, 0),
        (2, "parse", 2.0, 4.0, 0),
        (3, "region", 2.5, 3.0, 2),
        (4, "region", 3.0, 3.0, 2),
    ]
    assert self_by_name(spans) == pytest.approx(
        {"main": 3.0, "parse": 2.5, "region": 0.5}
    )


def test_ref_seconds_cancel_a_uniform_change_of_machine_speed():
    wall = {command: 0.1 * (i + 1) for i, command in enumerate(run.COMMANDS)}
    fast = {"wall": wall, "reference": [run.REFERENCE_S] * 9}
    slow = {"wall": {c: 1.5 * w for c, w in wall.items()},
            "reference": [1.5 * run.REFERENCE_S] * 9}
    assert run.ref_seconds(fast) == pytest.approx(wall)
    assert run.ref_seconds(slow) == pytest.approx(wall)
    # Each command is scaled by the mean of the reference runs on its two sides.
    ramp = {"wall": wall, "reference": [run.REFERENCE_S * (1 + i) for i in range(9)]}
    assert run.ref_seconds(ramp)["ingest"] == pytest.approx(wall["ingest"] / 1.5)
