"""Benchmark: the eight-command trapkit pipeline on a seeded workload.

Usage (from the repository root):

    python3 bench/run.py --workload bulk-clean --seed 1 --seconds 36 --trace 0

Set-up generates the workload's inputs from the seed and launches the CLI
once; it is repeated SETUP_REPEATS times and its median is `setup_s`.
The run then replays the pipeline (ingest, validate, stats, split, eval,
geofilter, weights, sequences), one `python -m trapkit.cli`
process per command with PYTHONPATH=src, one command at a time, until
`--seconds` would be exceeded. Every artifact of the first pipeline is
checked against the values the generator planted, and every later
pipeline must reproduce the first one byte for byte.

Before and after every command of a pipeline, `reference.py`
runs as its own process. The `*_ref_s` metrics are wall times divided by
the mean of the two neighbouring reference times and multiplied by
REFERENCE_S: seconds at the speed the reference machine has when
`reference.py` takes REFERENCE_S. The raw wall times are printed too.

With `--trace 1` each untraced pipeline is followed by one run through
`bench/traced_cli.py`, which records spans around the layer calls. Each
metric is the mean over the run's pipelines of that kind (see `summarize`).

Human-readable metrics go to stdout first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checker import artifact_digests, check_pipeline
from spans import self_by_name
from workloads import GENERATORS, generate, pipeline_commands

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COMMANDS = ["ingest", "validate", "stats", "split", "eval", "geofilter", "weights", "sequences"]
SETUP_REPEATS = 5
MIN_PIPELINES = 2
RUN_LIMIT_S = 170.0
# A round figure for the wall time of reference.py on the 2-vCPU reference
# machine, where it ranged over 0.16-0.21 s; it only sets the scale of the
# *_ref_s metrics, so that they read close to wall seconds there.
REFERENCE_S = 0.2

END_TO_END_UNITS = {"pipeline_ref_s": "s", **{f"{c}_ref_s": "s" for c in COMMANDS},
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Layer metric -> unit. Self times are summed over the pipeline's eight
# commands; counts are per pipeline.
LAYER_UNITS = {
    "ingest.parse_images.self_s": "s",
    "ingest.parse_images.calls": "count",
    "ingest.parse_images.rows": "count",
    "ingest.parse_deployments.self_s": "s",
    "ingest.unify.self_s": "s",
    "ingest.unify.kept_ratio": "ratio",
    "ingest.unify.input_images": "count",
    "ingest.unify.deployments": "count",
    "ingest.write_images.self_s": "s",
    "taxonomy.parse_taxonomy.self_s": "s",
    "taxonomy.rollup.calls": "count",
    "geosplit.assign_regions.self_s": "s",
    "geosplit.write_assignment.self_s": "s",
    "geosplit.regions": "count",
    "geosplit.export_split.self_s": "s",
    "geosplit.leakage_check.self_s": "s",
    "geosplit.image_folds.self_s": "s",
    "geosplit.image_folds.calls": "count",
    "geosplit.write_manifest.self_s": "s",
    "geosplit.region_id.calls": "count",
    "scoring.iter_predictions.self_s": "s",
    "scoring.iter_predictions.records": "count",
    "scoring.evaluate.self_s": "s",
    "scoring.evaluate.useful_ratio": "ratio",
    "scoring.parse_predictions.self_s": "s",
    "scoring.parse_predictions.calls": "count",
    "scoring.prediction_lines": "count",
    "scoring.geofilter.self_s": "s",
    "scoring.geofilter.calls": "count",
    "scoring.write_predictions.self_s": "s",
    "scoring.sequence_aggregate.self_s": "s",
    "scoring.write_metrics.self_s": "s",
    "stats.group_bursts.self_s": "s",
    "stats.group_bursts.groups": "count",
    "stats.write_sequences.self_s": "s",
    "stats.class_distribution.self_s": "s",
    "stats.blank_rates.self_s": "s",
    "report.from_issues.self_s": "s",
    "report.from_issues.calls": "count",
    "report.issues": "count",
    "report.write_csv.self_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Self-time metrics whose spans are not named after the metric.
SELF_GROUPS = {
    "stats.blank_rates.self_s": ("stats.blank_rate", "stats.blank_rates_by_source"),
    "cli.self_s": ("cli.main",),
}


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so a child process can
    # subtract the parent's launch reading from its own.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def launch(self, argv_tail, log_path: Path, traced_spans: Path | None = None):
        """Run one CLI process; returns (wall seconds, peak RSS in MB, exit code)."""
        start = monotonic()
        if traced_spans is None:
            argv = [sys.executable, "-m", "trapkit.cli", *argv_tail]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_spans),
                    repr(start), *argv_tail]
        return self._run(argv, log_path, start)

    def reference(self, log_path: Path) -> float:
        """Run reference.py once; returns its wall seconds."""
        wall, _, code = self._run([sys.executable, str(BENCH_DIR / "reference.py")],
                                  log_path, monotonic())
        if code != 0:
            raise RuntimeError(f"reference.py exited {code}:\n{_tail(log_path)}")
        return wall

    def _run(self, argv, log_path: Path, start: float):
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, self.hard_deadline - monotonic()), proc.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN only
                # keeps a running maximum over all children.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def pipeline(self, workload, label: str, traced: bool) -> dict:
        out_root = self.work / label
        logs = self.work / "logs"
        trace_dir = self.work / "traces" / label
        logs.mkdir(parents=True, exist_ok=True)
        if traced:
            trace_dir.mkdir(parents=True, exist_ok=True)
        result = {"traced": traced, "wall": {}, "rss": {}, "exit": {}, "spans": {},
                  "reference": []}
        reference_log = logs / "reference.log"
        for command, argv_tail in pipeline_commands(workload, out_root):
            spans_path = trace_dir / f"{command}.json" if traced else None
            result["reference"].append(self.reference(reference_log))
            wall, rss, code = self.launch(argv_tail, logs / f"{label}-{command}.log", spans_path)
            result["wall"][command] = wall
            result["rss"][command] = rss
            result["exit"][command] = code
            if traced:
                result["spans"][command] = spans_path
        result["reference"].append(self.reference(reference_log))
        return result


def setup(runner: Runner, workload_name: str, seed: int):
    """Generate the inputs and launch the CLI once; returns (workload, seconds)."""
    start = time.perf_counter()
    inputs = runner.work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    workload = generate(workload_name, seed, inputs)
    log = runner.work / "warmup.log"
    _, _, code = runner.launch(["--help"], log)
    if code != 0:
        raise RuntimeError(f"warm-up launch of the CLI exited {code}:\n{_tail(log)}")
    return workload, time.perf_counter() - start


def _tail(log: Path, lines: int = 5) -> str:
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


def layer_metrics(rep: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pipeline, plus trace-arithmetic problems."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    startup = 0.0
    problems = []
    for command, path in rep["spans"].items():
        try:
            with open(path, encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"{command}: no trace ({exc})")
            continue
        names = trace["names"]
        spans = [(sid, names[n], start / 1e9, end / 1e9, parent)
                 for sid, n, start, end, parent in trace["spans"]]
        command_self = self_by_name(spans)
        if sum(command_self.values()) > rep["wall"][command]:
            problems.append(f"{command}: layer self times exceed the traced wall time")
        for name, seconds in command_self.items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        startup += trace["startup_s"]

    metrics = {}
    for name in LAYER_UNITS:
        if name.endswith(".self_s"):
            spans_named = SELF_GROUPS.get(name, (name.removesuffix(".self_s"),))
            metrics[name] = sum(self_s.get(span, 0.0) for span in spans_named)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["ingest.unify.kept_ratio"] = _ratio(counts.get("ingest.unify.kept_images", 0),
                                                counts.get("ingest.unify.input_images", 0))
    metrics["scoring.evaluate.useful_ratio"] = _ratio(counts.get("scoring.evaluate.scored", 0),
                                                      counts.get("scoring.iter_predictions.records", 0))
    metrics["cli.startup_s"] = startup
    return metrics, problems


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def measure(runner: Runner, workload, seconds: float, trace: bool, log) -> list[dict]:
    """Replay the pipeline until ``seconds`` would be exceeded; one dict per pipeline."""
    plan = [False, True] if trace else [False]
    minimum = 1 if trace else MIN_PIPELINES
    reps = []
    first = None
    start = monotonic()
    cycles = 0
    while True:
        for traced in plan:
            label = f"rep{len(reps)}"
            rep = runner.pipeline(workload, label, traced)
            out_root = runner.work / label
            if first is None:
                problems = check_pipeline(out_root, workload, rep["exit"])
                first = {"problems": problems, "digests": artifact_digests(out_root)}
            else:
                digests = artifact_digests(out_root)
                problems = {}
                for command in COMMANDS:
                    prefix = command + os.sep
                    mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
                    theirs = {k: v for k, v in first["digests"].items() if k.startswith(prefix)}
                    if rep["exit"][command] != 0:
                        problems[command] = [f"exit status {rep['exit'][command]}"]
                    elif mine != theirs:
                        problems[command] = ["artifacts differ from the first pipeline"]
                    else:
                        problems[command] = first["problems"][command]
            rep["problems"] = problems
            if traced:
                rep["layers"], trace_problems = layer_metrics(rep)
                if trace_problems:
                    rep["problems"]["trace"] = trace_problems
                shutil.rmtree(runner.work / "traces" / label, ignore_errors=True)
            shutil.rmtree(out_root, ignore_errors=True)
            for command, found in rep["problems"].items():
                for problem in found:
                    print(f"{label} {command}: {problem}", file=log)
                if rep["exit"].get(command, 0) != 0:
                    print(_tail(runner.work / "logs" / f"{label}-{command}.log"), file=log)
            reps.append(rep)
        cycles += 1
        elapsed = monotonic() - start
        if cycles >= minimum and (elapsed + elapsed / cycles > seconds
                                  or monotonic() + elapsed / cycles > runner.hard_deadline):
            break
    return reps


def ref_seconds(rep) -> dict[str, float]:
    """One pipeline's command wall times at the reference speed."""
    reference = rep["reference"]
    return {command: rep["wall"][command] * REFERENCE_S / ((reference[i] + reference[i + 1]) / 2)
            for i, command in enumerate(COMMANDS)}


def summarize(reps, setups) -> tuple[dict, dict]:
    """Per-run metrics: means over the run's pipelines, the median of the set-ups."""
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    scaled = [ref_seconds(rep) for rep in plain]
    e2e = {"pipeline_ref_s": statistics.fmean(sum(rep.values()) for rep in scaled)}
    for command in COMMANDS:
        e2e[f"{command}_ref_s"] = statistics.fmean(rep[command] for rep in scaled)
    e2e["peak_rss_mb"] = statistics.fmean(max(rep["rss"].values()) for rep in plain)
    e2e["setup_s"] = statistics.median(setups)
    layers = {}
    if traced:
        for name in LAYER_UNITS:
            layers[name] = statistics.fmean(rep["layers"][name] for rep in traced)
        layers["trace.overhead_s"] = (
            statistics.fmean(sum(ref_seconds(rep).values()) for rep in traced)
            - e2e["pipeline_ref_s"]
        )
    return e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trapkit" / "cli.py").is_file():
        print(f"error: no trapkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    started = monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(work, started + RUN_LIMIT_S)
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            workload, seconds = setup(runner, args.workload, args.seed)
            setups.append(seconds)
        reps = measure(runner, workload, args.seconds, bool(args.trace), sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(rep["exit"]) for rep in reps)
    failed = sum(1 for rep in reps for command in COMMANDS if rep["problems"].get(command))
    trace_ok = all(not rep["problems"].get("trace") for rep in reps)
    e2e, layers = summarize(reps, setups)

    print(f"workload {args.workload}  seed {args.seed}  pipelines {len(reps)} "
          f"({sum(rep['traced'] for rep in reps)} traced)")
    plain = [rep for rep in reps if not rep["traced"]]
    scaled = [ref_seconds(rep) for rep in plain]
    print("  samples reference_s: " + " ".join(
        f"{statistics.fmean(rep['reference']):.4f}" for rep in plain))
    print("  samples pipeline_s: " + " ".join(f"{sum(rep['wall'].values()):.4f}" for rep in plain))
    print("  samples pipeline_ref_s: " + " ".join(f"{sum(rep.values()):.4f}" for rep in scaled))
    for command in COMMANDS:
        print(f"  samples {command}_s: " + " ".join(f"{rep['wall'][command]:.4f}" for rep in plain))
        print(f"  samples {command}_ref_s: " + " ".join(f"{rep[command]:.4f}" for rep in scaled))
    raw = {"pipeline_s": statistics.fmean(sum(rep["wall"].values()) for rep in plain),
           **{f"{c}_s": statistics.fmean(rep["wall"][c] for rep in plain) for c in COMMANDS},
           "reference_s": statistics.fmean(r for rep in plain for r in rep["reference"])}
    for name, value in raw.items():
        print(f"  {name:<36} {value:12.4f} s (wall)")
    for name, value in e2e.items():
        print(f"  {name:<36} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_ratio':<36} {failed / attempted:12.4f} ratio ({failed}/{attempted})")
    for name, value in layers.items():
        print(f"  {name:<36} {value:12.4f} {LAYER_UNITS[name]}")

    chosen = layers if args.trace else e2e
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
