"""Command-line entry point: batch subcommands with deterministic outputs.

Every subcommand is a pure function of its input files, flags, and seed:
identical invocations produce byte-identical artifacts. Nothing is cached
between runs and all intermediates are explicit files, so pipelines can
be rebuilt or diffed at any stage.

Exit status: 0 on success, 1 on runtime errors or (with --strict) on
error-severity validation issues, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import TrapkitError
from .geosplit import (
    SplitConfig,
    assign_regions,
    export_split,
    read_manifest,
    write_assignment,
    write_manifest,
)
from .ingest import Source, parse_deployments, parse_images, unify, write_deployments, write_images
from .report import Issue, ValidationReport
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


def _add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--deployments", action="append", required=True, metavar="CSV",
                     help="deployments file, repeat once per source")
    sub.add_argument("--images", action="append", required=True, metavar="CSV",
                     help="images file, repeat once per source (paired with --deployments by order)")
    sub.add_argument("--taxonomy", required=True, metavar="CSV", help="taxonomy file")
    sub.add_argument("--source-name", action="append", default=None, metavar="NAME",
                     help="provenance name per source (default source0, source1, ...)")


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output-dir", required=True, metavar="DIR")
    sub.add_argument("--overwrite", action="store_true",
                     help="allow replacing existing output files")
    sub.add_argument("--strict", action="store_true",
                     help="exit 1 when any error-severity validation issue is found")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="accepted for compatibility and ignored: every command runs in one thread")
    sub.add_argument("--format", choices=["csv", "summary"], default="summary",
                     help="what to print on stdout: human summary or the primary csv artifact")
    sub.add_argument("-v", "--verbose", action="store_true",
                     help="also print every issue to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapkit",
        description="Camera-trap metadata unification, leakage-free splits, and classifier scoring.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("ingest", help="unify sources into one validated dataset")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.set_defaults(func=_cmd_ingest)

    sub = commands.add_parser("validate", help="report data-quality issues without writing a dataset")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("stats", help="class skew, blank rate, and labeling-effort diagnostics")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--top-n", type=int, default=20, metavar="N",
                     help="rank cutoff for the skew coverage figure (default 20)")
    sub.add_argument("--level", type=Level.from_name, default=None, metavar="LEVEL",
                     help="roll labels up to this level first (class/order/family/genus/species)")
    sub.add_argument("--images-per-hour", type=float, default=450.0, metavar="RATE",
                     help="expert labeling rate for the effort estimate (default 450)")
    sub.add_argument("--include-blank", action="store_true",
                     help="keep blank/unknown labels in the skew table")
    sub.set_defaults(func=_cmd_stats)

    sub = commands.add_parser("split", help="leakage-free geographic train/eval split")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--train-fraction", type=float, default=0.9, metavar="F")
    sub.add_argument("--cell-size-m", type=float, default=10.0, metavar="METERS")
    sub.add_argument("--seed", type=int, default=0, metavar="SEED")
    sub.set_defaults(func=_cmd_split)

    sub = commands.add_parser("eval", help="score ranked predictions against ground truth")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--predictions", required=True, metavar="FILE")
    sub.add_argument("--k", action="append", type=int, default=None, metavar="K",
                     help="top-k cutoffs, repeatable (default 1 and 3)")
    sub.add_argument("--level", type=Level.from_name, default=Level.SPECIES, metavar="LEVEL")
    sub.add_argument("--split", default=None, metavar="MANIFEST",
                     help="restrict evaluation to image ids listed in this manifest")
    sub.set_defaults(func=_cmd_eval)

    sub = commands.add_parser("geofilter", help="drop predictions outside each species' range")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--predictions", required=True, metavar="FILE")
    sub.add_argument("--range-map", required=True, metavar="CSV")
    sub.set_defaults(func=_cmd_geofilter)

    sub = commands.add_parser("weights", help="export inverse-frequency class weights")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--cap", type=float, default=100.0, metavar="CAP")
    sub.add_argument("--level", type=Level.from_name, default=None, metavar="LEVEL")
    sub.set_defaults(func=_cmd_weights)

    sub = commands.add_parser("sequences", help="group images into burst sequences")
    _add_dataset_arguments(sub)
    _add_common_arguments(sub)
    sub.add_argument("--max-gap-seconds", type=float, default=60.0, metavar="SECONDS")
    sub.add_argument("--predictions", default=None, metavar="FILE",
                     help="also fuse these per-image predictions into one record per sequence")
    sub.set_defaults(func=_cmd_sequences)

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

    with open(args.taxonomy, encoding="utf-8") as handle:
        taxonomy, taxonomy_report = parse_taxonomy(handle)

    issues = list(taxonomy_report.issues)
    sources = []
    for name, deployments_path, images_path in zip(names, args.deployments, args.images):
        with open(deployments_path, encoding="utf-8") as handle:
            deployments, dep_issues = parse_deployments(handle)
        with open(images_path, encoding="utf-8") as handle:
            images, image_issues = parse_images(handle)
        sources.append(Source(name, deployments, images))
        issues.extend(dep_issues + image_issues)

    dataset, unify_issues = unify(sources, taxonomy)
    issues.extend(unify_issues)
    return dataset, ValidationReport.from_issues(issues)


def _prepare_output(args, filenames: list[str]) -> Path:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if not args.overwrite:
        existing = [name for name in filenames if (outdir / name).exists()]
        if existing:
            raise TrapkitError(
                f"refusing to overwrite {', '.join(existing)} in {outdir} (pass --overwrite)"
            )
    return outdir


def _finish(args, report: ValidationReport, summary: str, primary_path: Path) -> int:
    if args.verbose:
        for issue in report.issues:
            print(f"{issue.severity.value}: {issue.kind.value}: {issue.key}: {issue.detail}",
                  file=sys.stderr)
    if args.format == "csv":
        print(primary_path.read_text(encoding="utf-8"), end="")
    else:
        print(summary)
    if args.strict and report.has_errors:
        print("strict mode: error-severity issues present", file=sys.stderr)
        return 1
    return 0


def _write_issues(report: ValidationReport, outdir: Path) -> Path:
    path = outdir / "issues.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        report.write_csv(handle)
    return path


def _cmd_ingest(args) -> int:
    dataset, report = _load_dataset(args)
    outdir = _prepare_output(args, ["deployments.csv", "images.csv", "provenance.txt", "issues.csv"])
    with open(outdir / "deployments.csv", "w", encoding="utf-8", newline="") as handle:
        write_deployments(dataset.deployments.values(), handle)
    with open(outdir / "images.csv", "w", encoding="utf-8", newline="") as handle:
        write_images(dataset.images.values(), handle)
    with open(outdir / "provenance.txt", "w", encoding="utf-8") as handle:
        for name in dataset.provenance:
            handle.write(name + "\n")
    issues_path = _write_issues(report, outdir)
    summary = "\n".join([
        f"unified {len(dataset.deployments)} deployments and {len(dataset.images)} images "
        f"from {len(dataset.provenance)} source(s)",
        report.summary(),
    ])
    return _finish(args, report, summary, issues_path)


def _cmd_validate(args) -> int:
    dataset, report = _load_dataset(args)
    outdir = _prepare_output(args, ["issues.csv"])
    issues_path = _write_issues(report, outdir)
    summary = "\n".join([
        f"checked {len(dataset.deployments)} deployments and {len(dataset.images)} images",
        report.summary(),
    ])
    return _finish(args, report, summary, issues_path)


def _cmd_stats(args) -> int:
    dataset, report = _load_dataset(args)
    if args.top_n < 1:
        raise TrapkitError(f"--top-n must be >= 1, got {args.top_n}")
    outdir = _prepare_output(args, ["skew.csv"])

    histogram = class_distribution(
        dataset,
        level=args.level,
        include_blank=args.include_blank,
        include_unknown=args.include_blank,
    )
    skew = skew_report(histogram, args.top_n)
    skew_path = outdir / "skew.csv"
    with open(skew_path, "w", encoding="utf-8", newline="") as handle:
        write_skew(skew, handle)

    rate, per_source = blank_rate(dataset)
    effort = labeling_effort(len(dataset.images), args.images_per_hour)
    lines = [
        f"images                  {len(dataset.images)}",
        f"distinct labels         {len(histogram.counts)}"
        + (f" (rolled to {args.level.name.lower()})" if args.level else ""),
        f"top-{args.top_n} coverage        {skew.coverage_fraction:.4f}",
        f"blank rate              {rate:.4f}",
        f"labeling effort         {effort:.1f} h at {args.images_per_hour:g} images/hour",
    ]
    for source, source_rate in per_source.items():
        lines.append(f"  blank rate [{source}]  {source_rate:.4f}")
    lines.append(report.summary())
    return _finish(args, report, "\n".join(lines), skew_path)


def _cmd_split(args) -> int:
    dataset, report = _load_dataset(args)
    config = SplitConfig(args.train_fraction, args.cell_size_m, args.seed)
    assignment = assign_regions(dataset, config)
    train_ids, eval_ids = export_split(dataset, assignment)

    outdir = _prepare_output(args, ["train.txt", "eval.txt", "assignment.csv"])
    with open(outdir / "train.txt", "w", encoding="utf-8") as handle:
        write_manifest(train_ids, handle)
    with open(outdir / "eval.txt", "w", encoding="utf-8") as handle:
        write_manifest(eval_ids, handle)
    assignment_path = outdir / "assignment.csv"
    with open(assignment_path, "w", encoding="utf-8", newline="") as handle:
        write_assignment(assignment, handle)

    folds = assignment.folds
    summary = "\n".join([
        f"regions                 {len(folds)} "
        f"(train {sum(1 for f in folds.values() if f == 'train')}, "
        f"eval {sum(1 for f in folds.values() if f == 'eval')})",
        f"train images            {assignment.train_images}",
        f"eval images             {assignment.eval_images}",
        f"realized train fraction {assignment.realized_train_fraction:.4f} "
        f"(target {config.train_fraction:g})",
        report.summary(),
    ])
    return _finish(args, report, summary, assignment_path)


def _cmd_eval(args) -> int:
    dataset, report = _load_dataset(args)
    ks = args.k or [1, 3]

    truth = {image_id: image.label_id for image_id, image in dataset.images.items()}
    if args.split:
        with open(args.split, encoding="utf-8") as handle:
            wanted = read_manifest(handle)
        missing = [image_id for image_id in wanted if image_id not in truth]
        if missing:
            print(f"warning: {len(missing)} manifest id(s) not in dataset, ignored",
                  file=sys.stderr)
        truth = {image_id: truth[image_id] for image_id in wanted if image_id in truth}

    prediction_issues: list[Issue] = []
    with open(args.predictions, encoding="utf-8") as handle:
        metrics = evaluate(
            iter_predictions(handle, prediction_issues),
            truth,
            dataset.taxonomy,
            ks=ks,
            level=args.level,
        )
    report = ValidationReport.from_issues(list(report.issues) + prediction_issues)

    outdir = _prepare_output(args, ["metrics.csv"])
    metrics_path = outdir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as handle:
        write_metrics(metrics, handle)
    summary = "\n".join([summarize_metrics(metrics), report.summary()])
    return _finish(args, report, summary, metrics_path)


def _cmd_geofilter(args) -> int:
    dataset, report = _load_dataset(args)
    with open(args.range_map, encoding="utf-8") as handle:
        range_map, range_issues = parse_range_map(handle)

    unknown_id = dataset.taxonomy.unknown_label_id or "unknown"
    prediction_issues: list[Issue] = []
    filtered = []
    passthrough = 0
    changed = 0
    with open(args.predictions, encoding="utf-8") as handle:
        for record in iter_predictions(handle, prediction_issues):
            image = dataset.images.get(record.image_id)
            if image is None:
                passthrough += 1
                filtered.append(record)
                continue
            deployment = dataset.deployments[image.deployment_id]
            result = geofilter(
                record, deployment.latitude, deployment.longitude, range_map, unknown_id
            )
            changed += result.entries != record.entries
            filtered.append(result)
    report = ValidationReport.from_issues(
        list(report.issues) + prediction_issues + range_issues
    )

    outdir = _prepare_output(args, ["predictions_filtered.txt"])
    out_path = outdir / "predictions_filtered.txt"
    with open(out_path, "w", encoding="utf-8") as handle:
        write_predictions(filtered, handle)
    summary = "\n".join([
        f"records                 {len(filtered)}",
        f"records changed         {changed}",
        f"unknown image ids       {passthrough} (passed through unfiltered)",
        report.summary(),
    ])
    return _finish(args, report, summary, out_path)


def _cmd_weights(args) -> int:
    dataset, report = _load_dataset(args)
    histogram = class_distribution(dataset, level=args.level)
    weights = class_weights(histogram, args.cap)
    outdir = _prepare_output(args, ["weights.csv"])
    weights_path = outdir / "weights.csv"
    with open(weights_path, "w", encoding="utf-8", newline="") as handle:
        write_weights(weights, handle)
    summary = "\n".join([
        f"labels weighted         {len(weights.weights)} (cap {weights.cap:g})",
        report.summary(),
    ])
    return _finish(args, report, summary, weights_path)


def _cmd_sequences(args) -> int:
    dataset, report = _load_dataset(args)
    if args.max_gap_seconds <= 0:
        raise TrapkitError(f"--max-gap-seconds must be positive, got {args.max_gap_seconds}")
    groups = group_bursts(dataset, args.max_gap_seconds)

    outputs = ["sequences.csv"]
    if args.predictions:
        outputs.append("sequence_predictions.txt")
    outdir = _prepare_output(args, outputs)
    sequences_path = outdir / "sequences.csv"
    with open(sequences_path, "w", encoding="utf-8", newline="") as handle:
        write_sequences(groups, handle)

    lines = [f"sequences               {len(groups)} from {len(dataset.images)} images"]
    if args.predictions:
        prediction_issues: list[Issue] = []
        with open(args.predictions, encoding="utf-8") as handle:
            aggregated, skipped = sequence_aggregate(
                iter_predictions(handle, prediction_issues), groups
            )
        report = ValidationReport.from_issues(list(report.issues) + prediction_issues)
        with open(outdir / "sequence_predictions.txt", "w", encoding="utf-8") as handle:
            write_predictions(aggregated, handle)
        lines.append(f"aggregated predictions  {len(aggregated)} "
                     f"({len(skipped)} sequence(s) had no predicted member)")
    lines.append(report.summary())
    return _finish(args, report, "\n".join(lines), sequences_path)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (TrapkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
