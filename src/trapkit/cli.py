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

``geofilter`` and ``sequences --predictions`` work a predictions file of at
least ``_FORK_BYTES`` (512 KiB) in two processes, when they may run on two or
more CPUs (see ``_cut`` and ``_fork``): the lines after the file's middle
are filtered, or stored, in a forked child, and ``sequences`` then fuses the
later half of its bursts in a second one. Their artifacts, output and exit
status are those of one process. Every other command, and both on a smaller
file or pinned to one CPU (``taskset -c 0``), run in one process. ``--jobs
N`` is accepted and has no effect, and neither has ``$TRAPKIT_JOBS``.

Exit status: 0 on success; 1 on runtime errors, including input that is
not UTF-8 and running out of memory, or (with --strict) on error-severity
validation issues; 2 on usage errors. A flag value the library rejects, such
as a --k that is not a finite number > 0, is a usage error that quotes the
library rule's own message; this module holds no rule of its own.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import shutil
import sys
from itertools import islice
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
    HeldPredictions,
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
    SequenceIds,
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

_FORK_BYTES = 512 << 10  # a predictions file this large is worked in two processes (``_cut``)


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
                        help="accepted and ignored: geofilter and sequences work a predictions "
                             "file of 512 KiB or more in two processes when they may run on two "
                             "CPUs, and every other command runs in one; $TRAPKIT_JOBS has no "
                             "effect either")
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


def _read(path, parse, start=0):
    """Return ``parse(handle)`` on one input, from byte ``start``; bytes not UTF-8 are fatal.

    A leading UTF-8 byte order mark is dropped here, for every input, but only
    at the file's first byte: read from a later ``start``, a mark is text. Line
    endings reach ``parse`` untranslated, so csv keeps a ``\r\n`` inside a
    quoted field; line-based parsers strip the ``\r`` with the other whitespace.
    """
    with open(path, "rb") as raw:
        raw.seek(start)
        handle = io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig", newline="")
        try:
            return parse(handle)
        except UnicodeDecodeError as exc:
            raise TrapkitError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _cut(path):
    """Where a predictions file is split in two: ``(byte offset, lines before it)``, or None.

    A file of at least ``_FORK_BYTES`` bytes is cut after the first ``\n`` at
    or after its middle byte, if a line follows it. The lines before the cut
    are counted as a text file ends them: at each ``\n``, lone ``\r`` and
    ``\r\n``.
    """
    size = os.path.getsize(path)
    if size < _FORK_BYTES:
        return None
    with open(path, "rb") as raw:
        cut = size // 2
        raw.seek(cut)
        while (chunk := raw.read(1 << 16)) and (end := chunk.find(b"\n")) < 0:
            cut += len(chunk)
        if not chunk or cut + end + 1 == size:  # no line starts after the middle byte
            return None
        cut += end + 1
        raw.seek(0)
        count = 0
        carry = b""  # a \r that ends a chunk waits for the next one
        for start in range(0, cut, 1 << 16):
            chunk = carry + raw.read(min(cut - start, 1 << 16))
            carry = b"\r" if chunk.endswith(b"\r") else b""
            count += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n") - len(carry)
    return cut, count


def _fork(here, there, out, span):
    """Return ``here()`` and ``there(text)``, running ``there`` in a forked child where it can.

    ``here`` writes its text to the text file ``out``; ``there`` writes its
    text to ``text`` and returns a picklable result. Where ``os.fork`` exists
    and this process may run on two or more CPUs, a forked child calls
    ``there`` on an unnamed spill file beside ``out`` and pipes back its
    result, or its exception, which is raised here; this process calls
    ``here()``, then appends the spill's text to ``out``. Otherwise, or when
    no process can be forked, ``there(out)`` is called here after ``here()``.
    Either way ``out`` holds ``here``'s text, then ``there``'s. The child
    leaves only through ``os._exit``, so it flushes nothing it inherited. It
    is reaped before this returns or raises, and killed first if its result
    was never read. ``span`` names the child's share of the work in the note
    on its exception and in the error for a child that ends with no result.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return here(), there(out)

    # imported here, so the runs that never fork do not pay for them
    import pickle
    import signal
    import tempfile

    out_of_memory = pickle.dumps(MemoryError())  # made here: the child may have no memory left
    with tempfile.TemporaryFile(dir=os.path.dirname(out.name)) as spill:
        reader, writer = os.pipe()
        with open(reader, "rb") as pipe, open(writer, "wb") as sink:
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                return here(), there(out)
            if pid == 0:
                status = 1
                try:
                    try:
                        with open(spill.fileno(), "w", encoding="utf-8", newline="",
                                  closefd=False) as text:
                            message = pickle.dumps((there(text),))
                    except MemoryError:
                        message = out_of_memory
                    except Exception as exc:  # the parent raises it again
                        import traceback
                        exc.add_note(f"raised in the child process for {span}:\n"
                                     f"{traceback.format_exc()}")
                        message = pickle.dumps(exc)
                    sink.write(message)
                    sink.flush()
                    status = 0
                finally:
                    os._exit(status)
            sink.close()  # only the child writes to the pipe
            result = None  # until its whole result is read
            try:
                mine = here()
                try:  # loaded as it is read, so the pickled bytes are never held whole
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    pass
                pipe.close()
            finally:
                if not pipe.closed:  # its result was never read: it may still be working
                    os.kill(pid, signal.SIGKILL)
                status = os.waitpid(pid, 0)[1]
        if status or result is None:  # it ended before its whole result was written
            raise TrapkitError(f"the process for {span} ended with no result")
        if isinstance(result, BaseException):
            raise result
        out.flush()
        spill.seek(0)
        shutil.copyfileobj(spill, out.buffer)
    return mine, result[0]


def _halves(path, work, out, issues):
    """Return what ``work`` makes of the lines of ``path`` before and after its cut (``_cut``).

    ``work(lines, first, out, found)`` works ``lines``, numbering them from
    ``first``, writes its text to ``out``, appends its issues to ``found``
    and returns its result. The lines after the cut are worked through
    ``_fork``, and their issues appended to ``issues`` after those of the
    lines before it, so text and issues end as one call over the whole file
    leaves them. A file with no cut is worked in one call, whose result
    comes first, with None second.
    """
    cut = _cut(path)
    if cut is None:
        return _read(path, lambda lines: work(lines, 1, out, issues)), None
    start, count = cut

    def after(text):
        found = []
        return _read(path, lambda rest: work(rest, count + 1, text, found), start), found

    mine, (theirs, found) = _fork(
        lambda: _read(path, lambda first: work(islice(first, count), 1, out, issues)),
        after, out, f"lines {count + 1}- of {path}")
    issues.extend(found)
    return mine, theirs


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
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise TrapkitError(f"--source-name {repeated[0]} is repeated; each source needs its own")
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
    counts = [0, 0, 0]  # records written, changed and passed through unfiltered

    def work(lines, first_line, out, found):
        changed = passthrough = 0

        def filtered():
            nonlocal changed, passthrough
            images, deployments = dataset.images, dataset.deployments
            unknown_label_id = dataset.taxonomy.unknown_label_id
            for image_id, entries in iter_predictions(lines, found, first_line):
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

        written = write_predictions(filtered(), out)
        return written, changed, passthrough

    def write(handle):
        mine, theirs = _halves(args.predictions, work, handle, issues)
        counts[:] = mine if theirs is None else map(sum, zip(mine, theirs))

    return {"predictions_filtered.txt": write}, lambda: [
        f"records                 {counts[0]}",
        f"records changed         {counts[1]}",
        f"unknown image ids       {counts[2]} (passed through unfiltered)",
    ]


def _cmd_weights(args, dataset, issues):
    histogram = class_distribution(dataset, level=args.level)
    weights = class_weights(histogram, args.cap)
    return {"weights.csv": lambda handle: write_weights(weights, handle)}, lambda: [
        f"labels weighted         {len(weights)} (cap {args.cap:g})",
    ]


def _cmd_sequences(args, dataset, issues):
    groups = group_bursts(dataset, args.max_gap_seconds)
    ids = SequenceIds() if args.predictions else None  # as sequences.csv holds them
    artifacts = {"sequences.csv": lambda handle: write_sequences(groups, handle, ids)}
    lines = [f"sequences               {len(groups)} from {len(dataset.images)} images"]
    if not args.predictions:
        return artifacts, lambda: lines

    aggregated = 0
    dropped = []  # the issue of each fused record with a non-finite mean

    def write(handle):
        nonlocal aggregated
        held = HeldPredictions.of(groups)

        def store(lines, first_line, out, found):
            # the lines after a cut go to a store of their own, which only their columns leave
            part = held if first_line == 1 else HeldPredictions(held.ordinal, held.sizes)
            part.read(iter_predictions(lines, found, first_line))
            return part.columns() if part is not held else None

        _, later = _halves(args.predictions, store, handle, issues)
        if later is None:
            aggregated = write_predictions(sequence_aggregate(held, ids, dropped), handle)
        else:  # a file large enough to cut: fuse its bursts in two processes too
            held.join(later)
            middle = held.halfway()

            def fuse_rest(text):
                found = []
                return write_predictions(sequence_aggregate(held, ids, found, middle), text), found

            mine, (theirs, found) = _fork(
                lambda: write_predictions(sequence_aggregate(held, ids, dropped, 0, middle),
                                          handle),
                fuse_rest, handle, f"bursts {middle + 1}-{len(groups)}")
            aggregated = mine + theirs
            dropped.extend(found)
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
