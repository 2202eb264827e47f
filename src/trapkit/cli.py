"""Command-line entry point: batch subcommands with deterministic outputs.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations produce byte-identical artifacts. Nothing is cached
between runs and all intermediates are explicit files, so pipelines can
be rebuilt or diffed at any stage.

Each ``_cmd_*`` function returns its artifacts as writers and its summary
as a callable; ``_run`` does all the I/O around them. A writer may still
read an input as it writes (``geofilter`` and ``sequences`` stream their
predictions), so summaries and the validation report are built only once
every writer is done. Every artifact is streamed into a hidden
``.NAME.partial`` file; only when all of a command's partial files are
whole are they renamed into place, so its artifacts are all there or none.

Every command runs in one process. ``--jobs N`` is accepted and has no
effect, and neither has ``$TRAPKIT_JOBS``.

Exit status: 0 on success; 1 on runtime errors, including input that is
not UTF-8 and running out of memory, or (with --strict) on error-severity
validation issues; 2 on usage errors. A flag value the library rejects, such
as a --k that is not a finite number > 0, is a usage error that quotes the
library rule's own message; this module holds no rule of its own.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
from pathlib import Path

from ._util import positive, token
from .errors import TrapkitError
from .geosplit import (
    EVAL,
    TRAIN,
    SplitConfig,
    assign_regions,
    export_split,
    read_manifest,
    write_assignment,
    write_manifest,
)
from .ingest import Source, parse_deployments, parse_images, unify, write_deployments, write_images
from .report import ValidationReport
from .scoring import (
    evaluate,
    geofilter,
    iter_predictions,
    parse_range_map,
    sequence_aggregate,
    summarize_metrics,
    write_metrics,
    write_predictions,
)
from .stats import (
    blank_rate,
    class_distribution,
    class_weights,
    group_bursts,
    labeling_effort,
    skew_report,
    write_sequences,
    write_skew,
    write_weights,
)
from .taxonomy import Level, parse_taxonomy


def _checked(kind, rule, *args):
    """An argparse type: ``rule(*args, kind(text))``, whose ``ValueError`` is the usage error."""
    def convert(text: str):
        value = kind(text)
        try:
            return rule(*args, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = kind.__name__  # so a kind error reads "invalid int value"
    return convert


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    shared.add_argument("--deployments", action="append", required=True, metavar="CSV",
                        help="deployments file, repeat once per source")
    shared.add_argument("--images", action="append", required=True, metavar="CSV",
                        help="images file, repeat once per source (paired with --deployments "
                             "by order)")
    shared.add_argument("--taxonomy", required=True, metavar="CSV", help="taxonomy file")
    shared.add_argument("--source-name", action="append", default=None, metavar="NAME",
                        type=_checked(str, token, "source_name"),
                        help="provenance name per source (default source0, source1, ...)")
    shared.add_argument("-o", "--output-dir", required=True, metavar="DIR")
    shared.add_argument("--overwrite", action="store_true",
                        help="allow replacing existing output files")
    shared.add_argument("--strict", action="store_true",
                        help="exit 1 when any error-severity validation issue is found")
    shared.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted and ignored: every command runs in one process; "
                             "$TRAPKIT_JOBS has no effect either")
    shared.add_argument("--format", choices=["csv", "summary"], default="summary",
                        help="what to print on stdout: human summary or the primary csv artifact")
    shared.add_argument("-v", "--verbose", action="store_true",
                        help="also print every issue to stderr")

    parser = argparse.ArgumentParser(
        prog="trapkit",
        description="Camera-trap metadata unification, leakage-free splits, and classifier scoring.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    level = _checked(str, Level.from_name)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help, parents=[shared])
        sub.set_defaults(func=func)
        return sub

    add("ingest", _cmd_ingest, "unify sources into one validated dataset")
    add("validate", _cmd_validate, "report data-quality issues without writing a dataset")

    sub = add("stats", _cmd_stats, "class skew, blank rate, and labeling-effort diagnostics")
    sub.add_argument("--top-n", type=_checked(int, positive, "n_top"), default=20, metavar="N",
                     help="rank cutoff for the skew coverage figure (default 20)")
    sub.add_argument("--level", type=level, default=None, metavar="LEVEL",
                     help="roll labels up to this level first (class/order/family/genus/species)")
    sub.add_argument("--images-per-hour", type=_checked(float, positive, "rate"), default=450.0,
                     metavar="RATE",
                     help="expert labeling rate for the effort estimate (default 450)")
    sub.add_argument("--include-blank", action="store_true",
                     help="keep blank/unknown labels in the skew table")

    sub = add("split", _cmd_split, "leakage-free geographic train/eval split")
    sub.add_argument("--train-fraction", default=0.9, metavar="F",
                     type=_checked(float, lambda fraction: SplitConfig(fraction).train_fraction))
    sub.add_argument("--cell-size-m", type=_checked(float, positive, "cell_size_m"), default=10.0,
                     metavar="METERS")
    sub.add_argument("--seed", type=int, default=0, metavar="SEED")

    sub = add("eval", _cmd_eval, "score ranked predictions against ground truth")
    sub.add_argument("--predictions", required=True, metavar="FILE")
    sub.add_argument("--k", action="append", type=_checked(int, positive, "k"), default=None,
                     metavar="K", help="top-k cutoffs, repeatable (default 1 and 3)")
    sub.add_argument("--level", type=level, default=Level.SPECIES, metavar="LEVEL")
    sub.add_argument("--split", default=None, metavar="MANIFEST",
                     help="restrict evaluation to image ids listed in this manifest")

    sub = add("geofilter", _cmd_geofilter, "drop predictions outside each species' range")
    sub.add_argument("--predictions", required=True, metavar="FILE")
    sub.add_argument("--range-map", required=True, metavar="CSV")

    sub = add("weights", _cmd_weights, "export inverse-frequency class weights")
    sub.add_argument("--cap", type=_checked(float, positive, "cap"), default=100.0, metavar="CAP")
    sub.add_argument("--level", type=level, default=None, metavar="LEVEL")

    sub = add("sequences", _cmd_sequences, "group images into burst sequences")
    sub.add_argument("--max-gap-seconds", type=_checked(float, positive, "max_gap_seconds"),
                     default=60.0, metavar="SECONDS")
    sub.add_argument("--predictions", default=None, metavar="FILE",
                     help="also fuse these per-image predictions into one record per sequence")

    return parser


def _require_inputs(args):
    """Every referenced input path must exist before any work starts."""
    paths = [*args.deployments, *args.images, args.taxonomy]
    for attribute in ("predictions", "range_map", "split"):
        value = getattr(args, attribute, None)
        if value:
            paths.append(value)
    missing = [path for path in paths if not Path(path).is_file()]
    if missing:
        raise TrapkitError(f"input file(s) not found: {', '.join(missing)}")


def _read(path, parse):
    """Return ``parse(handle)`` on one input; bytes that are not UTF-8 are fatal.

    A leading UTF-8 byte order mark is dropped here, for every input. Line
    endings reach ``parse`` untranslated, so csv keeps a ``\r\n`` inside a
    quoted field; line-based parsers strip the ``\r`` with the other whitespace.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            return parse(handle)
        except UnicodeDecodeError as exc:
            raise TrapkitError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _load_dataset(args):
    """Parse taxonomy and all sources, unify, and collect every issue."""
    if len(args.deployments) != len(args.images):
        raise TrapkitError(
            f"{len(args.deployments)} --deployments but {len(args.images)} --images; "
            "sources are paired by order"
        )
    names = args.source_name or [f"source{i}" for i in range(len(args.images))]
    if len(names) != len(args.images):
        raise TrapkitError("--source-name must be given once per source")
    _require_inputs(args)

    taxonomy, issues = _read(args.taxonomy, parse_taxonomy)
    sources = []
    for name, deployments_path, images_path in zip(names, args.deployments, args.images):
        deployments, dep_issues = _read(deployments_path, parse_deployments)
        images, image_issues = _read(images_path, parse_images)
        sources.append(Source(name, deployments, images))
        issues.extend(dep_issues + image_issues)

    dataset, unify_issues = unify(sources, taxonomy)
    issues.extend(unify_issues)
    return dataset, issues


def _write_artifacts(outdir: Path, artifacts: dict, overwrite: bool, issues: list):
    """Refuse to clobber before writing anything; then write all artifacts or none.

    Each writer streams into its own partial file, and the partial files are
    renamed into place only after every one is whole. A ``None`` writer stands
    for the validation report. Its partial file is written last, so the report
    holds every issue the other writers appended. Returns that report. When a
    writer fails, the directories this call made are removed again, deepest
    first, up to the first one that is not empty.
    """
    if not overwrite:
        existing = [name for name in artifacts if (outdir / name).exists()]
        if existing:
            raise TrapkitError(
                f"refusing to overwrite {', '.join(existing)} in {outdir} (pass --overwrite)"
            )
    made = []  # the directories this call makes, deepest first
    missing = outdir
    while not missing.exists():
        made.append(missing)
        missing = missing.parent
    outdir.mkdir(parents=True, exist_ok=True)
    partials = {name: outdir / f".{name}.partial" for name in artifacts}
    report = None
    try:
        for name, write in sorted(artifacts.items(), key=lambda item: item[1] is None):
            if write is None:
                report = ValidationReport.from_issues(issues)
                write = report.write_csv
            with open(partials[name], "w", encoding="utf-8", newline="") as handle:
                write(handle)
        for name, partial in partials.items():
            os.replace(partial, outdir / name)
    except BaseException:
        for partial in partials.values():
            partial.unlink(missing_ok=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # not empty: something else wrote into it meanwhile
                break
        raise
    return report or ValidationReport.from_issues(issues)


def _run(args) -> int:
    """Load the inputs, run one command, then write and print its results.

    A command appends its own issues and returns its artifacts as file name ->
    ``write(handle)``, primary first, plus a callable that returns its summary
    lines. A ``None`` writer stands for the validation report. Writers may
    append issues and set counts as they go, so the report and the summary are
    built after writing.
    """
    dataset, issues = _load_dataset(args)
    artifacts, summary = args.func(args, dataset, issues)
    outdir = Path(args.output_dir)
    report = _write_artifacts(outdir, artifacts, args.overwrite, issues)

    if args.verbose:
        for issue in report.issues:
            print(f"{issue.severity.value}: {issue.kind.value}: {issue.key}: {issue.detail}",
                  file=sys.stderr)
    if args.format == "csv":  # the artifact's bytes, line ends untranslated, in chunks
        with open(outdir / next(iter(artifacts)), encoding="utf-8", newline="") as primary:
            shutil.copyfileobj(primary, sys.stdout)
    else:
        print("\n".join([*summary(), report.summary()]))
    if args.strict and report.has_errors:
        print("strict mode: error-severity issues present", file=sys.stderr)
        return 1
    return 0


def _cmd_ingest(args, dataset, issues):
    artifacts = {
        "issues.csv": None,
        "deployments.csv": lambda handle: write_deployments(dataset.deployments.values(), handle),
        "images.csv": lambda handle: write_images(dataset.images.values(), handle),
        "provenance.txt": lambda handle: write_manifest(dataset.provenance, handle),
    }
    return artifacts, lambda: [
        f"unified {len(dataset.deployments)} deployments and {len(dataset.images)} images "
        f"from {len(dataset.provenance)} source(s)",
    ]


def _cmd_validate(args, dataset, issues):
    return {"issues.csv": None}, lambda: [
        f"checked {len(dataset.deployments)} deployments and {len(dataset.images)} images",
    ]


def _cmd_stats(args, dataset, issues):
    histogram = class_distribution(
        dataset,
        level=args.level,
        include_special=args.include_blank,
    )
    skew = skew_report(histogram, args.top_n)
    rate, per_source = blank_rate(dataset)
    effort = labeling_effort(len(dataset.images), args.images_per_hour)
    lines = [
        f"images                  {len(dataset.images)}",
        f"distinct labels         {len(histogram)}"
        + (f" (rolled to {args.level.name.lower()})" if args.level else ""),
        f"top-{args.top_n} coverage        "
        + ("undefined" if skew.coverage_fraction is None else f"{skew.coverage_fraction:.4f}"),
        f"blank rate              {rate:.4f}",
        f"labeling effort         {effort:.1f} h at {args.images_per_hour:g} images/hour",
    ]
    for source, source_rate in per_source.items():
        lines.append(f"  blank rate [{source}]  {source_rate:.4f}")
    return {"skew.csv": lambda handle: write_skew(skew, handle)}, lambda: lines


def _cmd_split(args, dataset, issues):
    config = SplitConfig(args.train_fraction, args.cell_size_m, args.seed)
    assignment = assign_regions(dataset, config)
    train_ids, eval_ids = export_split(dataset, assignment)
    artifacts = {
        "assignment.csv": lambda handle: write_assignment(assignment, handle),
        "train.txt": lambda handle: write_manifest(train_ids, handle),
        "eval.txt": lambda handle: write_manifest(eval_ids, handle),
    }
    folds = assignment.folds
    return artifacts, lambda: [
        f"regions                 {len(folds)} "
        f"(train {sum(1 for f in folds.values() if f == TRAIN)}, "
        f"eval {sum(1 for f in folds.values() if f == EVAL)})",
        f"train images            {assignment.train_images}",
        f"eval images             {assignment.eval_images}",
        f"realized train fraction {assignment.realized_train_fraction:.4f} "
        f"(target {config.train_fraction:g})",
    ]


def _cmd_eval(args, dataset, issues):
    if args.split:
        wanted = _read(args.split, read_manifest)
        missing = sum(image_id not in dataset.images for image_id in wanted)
        if missing:
            print(f"warning: {missing} manifest id(s) not in dataset, ignored", file=sys.stderr)
        truth = {i: dataset.images[i].label_id for i in wanted if i in dataset.images}
    else:
        truth = {image_id: image.label_id for image_id, image in dataset.images.items()}

    metrics = _read(args.predictions, lambda handle: evaluate(
        iter_predictions(handle, issues), truth, dataset.taxonomy, ks=args.k or [1, 3],
        level=args.level,
    ))
    artifacts = {"metrics.csv": lambda handle: write_metrics(metrics, handle)}
    return artifacts, lambda: [summarize_metrics(metrics)]


def _cmd_geofilter(args, dataset, issues):
    range_map, range_issues = _read(args.range_map, parse_range_map)
    issues.extend(range_issues)
    written = changed = passthrough = 0

    def filtered(predictions):
        nonlocal changed, passthrough
        images, deployments = dataset.images, dataset.deployments
        unknown_label_id = dataset.taxonomy.unknown_label_id
        for image_id, entries in iter_predictions(predictions, issues):
            image = images.get(image_id)
            if image is None:
                passthrough += 1
                yield image_id, entries
                continue
            deployment = deployments[image.deployment_id]
            kept = geofilter(entries, deployment.latitude, deployment.longitude,
                             range_map, unknown_label_id)
            changed += kept != entries
            yield image_id, kept

    def write(handle):
        nonlocal written
        written = _read(args.predictions,
                        lambda predictions: write_predictions(filtered(predictions), handle))

    return {"predictions_filtered.txt": write}, lambda: [
        f"records                 {written}",
        f"records changed         {changed}",
        f"unknown image ids       {passthrough} (passed through unfiltered)",
    ]


def _cmd_weights(args, dataset, issues):
    histogram = class_distribution(dataset, level=args.level)
    weights = class_weights(histogram, args.cap)
    return {"weights.csv": lambda handle: write_weights(weights, handle)}, lambda: [
        f"labels weighted         {len(weights)} (cap {args.cap:g})",
    ]


def _cmd_sequences(args, dataset, issues):
    groups = group_bursts(dataset, args.max_gap_seconds)
    ids = [] if args.predictions else None  # each group's id, as sequences.csv holds it
    artifacts = {"sequences.csv": lambda handle: write_sequences(groups, handle, ids)}
    lines = [f"sequences               {len(groups)} from {len(dataset.images)} images"]
    if not args.predictions:
        return artifacts, lambda: lines

    aggregated = 0
    dropped = []  # the issue of each fused record with a non-finite mean

    def write(handle):
        nonlocal aggregated
        aggregated = _read(args.predictions, lambda predictions: write_predictions(
            sequence_aggregate(iter_predictions(predictions, issues), groups, dropped, ids),
            handle))
        issues.extend(dropped)

    artifacts["sequence_predictions.txt"] = write
    return artifacts, lambda: [
        *lines,
        f"aggregated predictions  {aggregated} "
        f"({len(groups) - aggregated - len(dropped)} sequence(s) had no predicted member)",
        *([f"dropped predictions     {len(dropped)} (a fused mean score is not finite)"]
          if dropped else []),
    ]


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off; return its exit status.

    A command builds millions of small objects that all live until it ends,
    so the collector's passes over them free almost nothing. It is turned
    back on at return if it was on at the call; only ``run`` freezes the heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse's usage error, or --help
        return exc.code if isinstance(exc.code, int) else 2
    except (TrapkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the exception's frames are gone, and their memory with them
        print("error: out of memory", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def run():
    """The process entry: exit with the status of ``main()``, freezing the heap first.

    ``gc.freeze`` moves every tracked object into the permanent generation,
    which the interpreter's shutdown collections skip. Shutdown is otherwise
    the normal one: the std streams are flushed and atexit handlers run.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
