"""The canonical fixture pipeline: one place defines the golden commands.

Running this file regenerates tests/data/golden from the bundled fixture:

    python tests/pipeline.py

The golden files are committed; tests replay the same commands into a
temporary directory and require byte-identical artifacts.
"""

import sys
from pathlib import Path

TESTS_DIR = Path(__file__).parent
FIXTURE = TESTS_DIR / "data" / "fixture"
GOLDEN = TESTS_DIR / "data" / "golden"


def pipeline_commands(fixture_dir, out_root, jobs=1):
    """Every subcommand invocation of the fixture pipeline, in order."""
    fixture_dir = Path(fixture_dir)
    out_root = Path(out_root)
    dataset_flags = [
        "--deployments", str(fixture_dir / "deployments.csv"),
        "--images", str(fixture_dir / "images.csv"),
        "--taxonomy", str(fixture_dir / "taxonomy.csv"),
        "--source-name", "fixture",
        "--jobs", str(jobs),
        "--overwrite",
    ]
    return [
        ["ingest", *dataset_flags, "-o", str(out_root / "ingest")],
        ["validate", *dataset_flags, "-o", str(out_root / "validate")],
        ["stats", *dataset_flags, "--top-n", "5", "-o", str(out_root / "stats")],
        ["split", *dataset_flags, "--train-fraction", "0.9", "--cell-size-m", "10",
         "--seed", "42", "-o", str(out_root / "split")],
        ["eval", *dataset_flags, "--predictions", str(fixture_dir / "predictions.txt"),
         "--split", str(out_root / "split" / "eval.txt"),
         "--k", "1", "--k", "3", "--level", "species", "-o", str(out_root / "eval")],
        ["geofilter", *dataset_flags, "--predictions", str(fixture_dir / "predictions.txt"),
         "--range-map", str(fixture_dir / "range_map.csv"),
         "-o", str(out_root / "geofilter")],
        ["weights", *dataset_flags, "--cap", "100", "-o", str(out_root / "weights")],
        ["sequences", *dataset_flags, "--max-gap-seconds", "60",
         "--predictions", str(fixture_dir / "predictions.txt"),
         "-o", str(out_root / "sequences")],
    ]


def run_pipeline(fixture_dir, out_root, jobs=1, forks=()):
    """Run every command; return those during which the list ``forks`` grew."""
    from trapkit.cli import main

    forked = []
    for argv in pipeline_commands(fixture_dir, out_root, jobs=jobs):
        started = len(forks)
        status = main(argv)
        if status != 0:
            raise RuntimeError(f"pipeline command failed ({status}): {argv}")
        if len(forks) > started:
            forked.append(argv[0])
    return forked


def artifact_files(out_root):
    """Relative paths of every artifact the pipeline writes."""
    out_root = Path(out_root)
    return sorted(
        path.relative_to(out_root)
        for path in out_root.rglob("*")
        if path.is_file()
    )


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS_DIR.parent / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    run_pipeline(FIXTURE, GOLDEN)
    for artifact in artifact_files(GOLDEN):
        print(f"wrote {artifact}")
