import csv
import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import trapkit
from trapkit import _util, cli, report, stats
from trapkit.cli import main
from trapkit.geosplit import SplitConfig
from trapkit.scoring import evaluate, iter_predictions

import line_audit
from pipeline import artifact_files, pipeline_commands, run_pipeline

REPO = Path(__file__).resolve().parent.parent


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _dataset_flags(fixture_dir, out, extra=()):
    return [
        "--deployments", str(fixture_dir / "deployments.csv"),
        "--images", str(fixture_dir / "images.csv"),
        "--taxonomy", str(fixture_dir / "taxonomy.csv"),
        "-o", str(out),
        *extra,
    ]


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_a_usage_error(tmp_path, fixture_dir, capsys):
    argv = ["ingest", *_dataset_flags(fixture_dir, tmp_path), "--bogus"]
    assert main(argv) == 2
    capsys.readouterr()


def test_missing_input_file_exits_one(tmp_path, capsys):
    argv = [
        "ingest",
        "--deployments", str(tmp_path / "nope.csv"),
        "--images", str(tmp_path / "nope2.csv"),
        "--taxonomy", str(tmp_path / "nope3.csv"),
        "-o", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not found" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("collecting", [True, False], ids=["caller_collecting", "caller_not"])
@pytest.mark.parametrize("case, status", [("ok", 0), ("missing_input", 1), ("usage_error", 2)])
def test_main_runs_with_the_collector_off_and_gives_back_the_callers_state(
        tmp_path, fixture_dir, monkeypatch, capsys, collecting, case, status):
    seen = []
    run = cli._run
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(gc.isenabled()) or run(args))
    argv = {
        "ok": ["validate", *_dataset_flags(fixture_dir, tmp_path / "out")],
        "missing_input": ["validate", *_dataset_flags(tmp_path, tmp_path / "out")],
        "usage_error": ["validate", *_dataset_flags(fixture_dir, tmp_path / "out"), "--bogus"],
    }[case]
    frozen = gc.get_freeze_count()
    if not collecting:
        gc.disable()
    try:
        assert main(argv) == status
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen  # only the process entry freezes the heap
    finally:
        gc.enable()
    assert seen == ([] if case == "usage_error" else [False])  # argparse exits before _run
    capsys.readouterr()


def test_multi_source_ingest_reports_cross_source_duplicates(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    argv = [
        "ingest",
        "--deployments", str(fixture_dir / "deployments.csv"),
        "--deployments", str(fixture_dir / "deployments.csv"),
        "--images", str(fixture_dir / "images.csv"),
        "--images", str(fixture_dir / "images.csv"),
        "--taxonomy", str(fixture_dir / "taxonomy.csv"),
        "--source-name", "north",
        "--source-name", "south",
        "--jobs", "2",
        "-o", str(out),
    ]
    assert main(argv) == 0
    assert (out / "provenance.txt").read_text() == "north\nsouth\n"
    stdout = capsys.readouterr().out
    # the second copy only adds benign duplicates: same 4 deployments, 40 images
    assert "unified 4 deployments and 40 images from 2 source(s)" in stdout


def test_jobs_environment_variable_is_accepted(tmp_path, fixture_dir, monkeypatch, capsys):
    monkeypatch.setenv("TRAPKIT_JOBS", "3")
    out = tmp_path / "out"
    assert main(["ingest", *_dataset_flags(fixture_dir, out)]) == 0
    capsys.readouterr()


def test_ingest_writes_expected_artifacts(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["ingest", *_dataset_flags(fixture_dir, out)]) == 0
    for name in ("deployments.csv", "images.csv", "provenance.txt", "issues.csv"):
        assert (out / name).exists()
    assert (out / "provenance.txt").read_text() == "source0\n"
    stdout = capsys.readouterr().out
    assert "unified 4 deployments and 40 images" in stdout


def test_ingest_strict_fails_on_fixture_defects(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    # the fixture plants a bad timestamp, an orphan image, and a duplicate row
    assert main(["ingest", *_dataset_flags(fixture_dir, out, ["--strict"])]) == 1
    capsys.readouterr()


def test_refuses_overwrite_without_flag(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["ingest", *_dataset_flags(fixture_dir, out)]) == 0
    assert main(["ingest", *_dataset_flags(fixture_dir, out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["ingest", *_dataset_flags(fixture_dir, out, ["--overwrite"])]) == 0


PRIMARY_ARTIFACTS = [
    ("ingest", "issues.csv", []),
    ("validate", "issues.csv", []),
    ("stats", "skew.csv", []),
    ("split", "assignment.csv", []),
    ("eval", "metrics.csv", ["--predictions", "predictions.txt"]),
    ("geofilter", "predictions_filtered.txt",
     ["--predictions", "predictions.txt", "--range-map", "range_map.csv"]),
    ("weights", "weights.csv", []),
    ("sequences", "sequences.csv", ["--predictions", "predictions.txt"]),
]


@pytest.mark.parametrize("command, primary, inputs", PRIMARY_ARTIFACTS,
                         ids=[command for command, _, _ in PRIMARY_ARTIFACTS])
def test_format_csv_echoes_primary_artifact(tmp_path, fixture_dir, capsys,
                                            command, primary, inputs):
    out = tmp_path / "out"
    inputs = [arg if arg.startswith("--") else str(fixture_dir / arg) for arg in inputs]
    status = main([command, *_dataset_flags(fixture_dir, out, [*inputs, "--format", "csv"])])
    assert status == 0
    stdout = capsys.readouterr().out
    assert stdout == (out / primary).read_text()


def test_format_csv_prints_the_artifact_bytes_with_line_ends_untranslated(
        tmp_path, fixture_dir, capsysbinary):
    images = tmp_path / "images.csv"
    images.write_bytes((fixture_dir / "images.csv").read_bytes()
                       + b'"bad\rid",d_amaz_01,2015-06-01T12:00:00Z,blank,0,teamA\n')
    out = tmp_path / "out"
    argv = ["validate", *_dataset_flags(fixture_dir, out, ["--format", "csv"])]
    argv[argv.index("--images") + 1] = str(images)
    assert main(argv) == 0
    artifact = (out / "issues.csv").read_bytes()
    assert b'"bad\rid"' in artifact
    assert capsysbinary.readouterr().out == artifact


HUGE = "1" + "0" * 400  # an int that no float holds

# flag -> (its command, its argparse type, the library call that checks its value)
LIBRARY_RULES = {
    "--top-n": ("stats", int, lambda n_top: stats.skew_report({"a": 1}, n_top)),
    "--images-per-hour": ("stats", float, lambda rate: stats.labeling_effort(1, rate)),
    "--cell-size-m": ("split", float, lambda size: SplitConfig(cell_size_m=size)),
    "--train-fraction": ("split", float, lambda fraction: SplitConfig(fraction)),
    "--k": ("eval", int, lambda k: evaluate([], {}, None, ks=[k])),
    "--cap": ("weights", float, lambda cap: stats.class_weights({"a": 1}, cap)),
    "--max-gap-seconds": ("sequences", float, lambda gap: stats.group_bursts(None, gap)),
    "--source-name": ("ingest", str, lambda name: _util.token("source_name", name)),
}


def _rule_message(flag, text):
    """The text a usage error for ``flag`` ``text`` must show: the library rule's own."""
    _, kind, rule = LIBRARY_RULES[flag]
    try:
        value = kind(text)
    except ValueError:
        return f"invalid {kind.__name__} value: {text!r}"
    with pytest.raises(ValueError) as caught:
        rule(value)
    return str(caught.value)


@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, value, id=f"{flag}-{'1e400' if value == HUGE else repr(value)[1:-1]}")
    for flag, values in [
        *((flag, ("nan", "inf", "0", HUGE)) for flag in (
            "--top-n", "--images-per-hour", "--cell-size-m", "--cap", "--max-gap-seconds")),
        ("--k", ("0", "-2", "nan", HUGE)),
        ("--train-fraction", ("0", "1", "1.5", "nan", "inf")),
        ("--source-name", ("", "two words", "two\nlines")),
    ]
    for value in values
])
def test_flag_value_the_library_rejects_is_a_usage_error(tmp_path, fixture_dir, capsys,
                                                         flag, value):
    command = LIBRARY_RULES[flag][0]
    out = tmp_path / "out"
    extra = ["--predictions", str(fixture_dir / "predictions.txt")] if command == "eval" else []
    assert main([command, *_dataset_flags(fixture_dir, out, [*extra, flag, value])]) == 2
    assert f"argument {flag}: {_rule_message(flag, value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["non_utf8", "empty"])
def test_unreadable_images_file_is_a_named_fatal_error(tmp_path, fixture_dir, capsys, case):
    images = tmp_path / "images.csv"
    if case == "non_utf8":
        images.write_bytes((fixture_dir / "images.csv").read_bytes()
                           + b"i_bad_\xff,d_amaz_01,2015-06-01T12:00:00Z,blank,0,teamA\n")
        message = f"error: {images} is not UTF-8 text"
    else:
        images.write_bytes(b"")
        message = ("error: images file is empty, expected header "
                   "image_id,deployment_id,timestamp,label_id,burst_index,source_id\n")
    out = tmp_path / "out"
    argv = ["validate", *_dataset_flags(fixture_dir, out)]
    argv[argv.index("--images") + 1] = str(images)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert not out.exists()


def test_unreadable_row_is_an_issue_naming_its_row(tmp_path, fixture_dir, capsys):
    images = tmp_path / "images.csv"
    wide_row = "i_wide,d_amaz_01,2015-06-01T12:00:00Z,blank,0," + "x" * 200_000 + "\n"
    images.write_text((fixture_dir / "images.csv").read_text(encoding="utf-8") + wide_row,
                      encoding="utf-8")
    out = tmp_path / "out"
    argv = ["validate", *_dataset_flags(fixture_dir, out)]
    argv[argv.index("--images") + 1] = str(images)
    assert main(argv) == 0
    capsys.readouterr()
    rows = (out / "issues.csv").read_text(encoding="utf-8").splitlines()
    assert "missing_field,row 45,row 45: field larger than field limit (131072)" in rows


def test_failed_write_keeps_the_previous_artifact(tmp_path, fixture_dir, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["ingest", *_dataset_flags(fixture_dir, out)]) == 0
    before = (out / "images.csv").read_bytes()

    def write_header_then_fail(images, handle):
        handle.write("image_id,deployment_id,timestamp,label_id,burst_index,source_id\n")
        raise OSError("disk full")

    monkeypatch.setattr("trapkit.cli.write_images", write_header_then_fail)
    assert main(["ingest", *_dataset_flags(fixture_dir, out, ["--overwrite"])]) == 1
    assert "disk full" in capsys.readouterr().err
    assert (out / "images.csv").read_bytes() == before
    assert not list(out.glob("*.partial"))  # pathlib globs match dot files


def test_failed_write_keeps_a_directory_another_writer_filled(tmp_path, fixture_dir,
                                                              monkeypatch, capsys):
    out = tmp_path / "out"

    def write_foreign_file_then_fail(skew, handle):
        (out / "foreign.txt").write_text("not trapkit's\n", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_skew", write_foreign_file_then_fail)
    assert main(["stats", *_dataset_flags(fixture_dir, out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["foreign.txt"]  # no .partial file either


def test_failed_write_removes_every_directory_it_made(tmp_path, fixture_dir, monkeypatch,
                                                      capsys):
    existing = tmp_path / "existing"
    existing.mkdir()

    def fail(images, handle):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_images", fail)
    assert main(["ingest", *_dataset_flags(fixture_dir, existing / "a" / "b" / "c")]) == 1
    assert "disk full" in capsys.readouterr().err
    assert list(existing.iterdir()) == []  # a, a/b and a/b/c are gone; existing stays


def test_split_manifests_partition_the_images(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    argv = ["split", *_dataset_flags(fixture_dir, out), "--seed", "7"]
    assert main(argv) == 0
    train = (out / "train.txt").read_text().split()
    evals = (out / "eval.txt").read_text().split()
    assert len(train) + len(evals) == 40
    assert not set(train) & set(evals)
    assert train and evals
    capsys.readouterr()


def test_split_byte_identical_across_runs(tmp_path, fixture_dir, capsys):
    contents = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["split", *_dataset_flags(fixture_dir, out), "--seed", "42"]) == 0
        contents.append(tuple(
            (out / name).read_bytes()
            for name in ("train.txt", "eval.txt", "assignment.csv")
        ))
    assert contents[0] == contents[1]
    capsys.readouterr()


def test_eval_accepts_split_manifest_and_scores_perfect_predictions(
    tmp_path, fixture_dir, fixture_dataset, capsys
):
    split_out = tmp_path / "split"
    assert main(["split", *_dataset_flags(fixture_dir, split_out), "--seed", "42"]) == 0

    predictions = tmp_path / "perfect.txt"
    with open(predictions, "w") as handle:
        for image_id, image in fixture_dataset.images.items():
            handle.write(f"{image_id} {image.label_id}:1.0\n")

    eval_out = tmp_path / "eval"
    argv = [
        "eval", *_dataset_flags(fixture_dir, eval_out),
        "--predictions", str(predictions),
        "--split", str(split_out / "eval.txt"),
        "--k", "1", "--k", "3",
    ]
    assert main(argv) == 0
    rows = _csv_rows(eval_out / "metrics.csv")
    values = {(row[0], row[1]): row[2] for row in rows[1:]}
    assert values[("top1_accuracy", "overall")] == "1.0"
    assert values[("top3_accuracy", "overall")] == "1.0"
    assert values[("skipped_images", "overall")] == "0"
    capsys.readouterr()


def _eval_metrics(fixture_dir, out, predictions, manifest):
    argv = ["eval", *_dataset_flags(fixture_dir, out), "--predictions", str(predictions),
            "--split", str(manifest)]
    assert main(argv) == 0
    return (out / "metrics.csv").read_bytes()


def test_eval_split_warns_of_every_manifest_id_not_in_the_dataset(
    tmp_path, fixture_dir, golden_dir, capsys
):
    clean = golden_dir / "split" / "eval.txt"
    known = clean.read_text().split()
    manifest = tmp_path / "manifest.txt"
    # two unknown ids, one of them listed twice, and a known id listed twice
    manifest.write_text("\n".join(["i_nope_1", *known, "i_nope_2", "i_nope_1", known[0]]) + "\n")
    predictions = fixture_dir / "predictions.txt"
    capsys.readouterr()

    dirty = _eval_metrics(fixture_dir, tmp_path / "dirty", predictions, manifest)
    assert "warning: 3 manifest id(s) not in dataset, ignored" in capsys.readouterr().err
    assert dirty == _eval_metrics(fixture_dir, tmp_path / "clean", predictions, clean)
    assert "not in dataset" not in capsys.readouterr().err


def test_eval_scores_the_first_of_two_prediction_lines_for_an_image(
    tmp_path, fixture_dir, golden_dir, capsys
):
    manifest = golden_dir / "split" / "eval.txt"
    lines = (fixture_dir / "predictions.txt").read_text().splitlines(keepends=True)
    assert lines[2].startswith("i_am1_003 sp_panthera_pardus:")
    second = "i_am1_003 sp_panthera_onca:1.0\n"  # a different top-1 than the first line
    doubled = tmp_path / "doubled.txt"
    doubled.write_text("".join([*lines, second]))
    replaced = tmp_path / "replaced.txt"
    replaced.write_text("".join([*lines[:2], second, *lines[3:]]))
    capsys.readouterr()

    metrics = _eval_metrics(fixture_dir, tmp_path / "doubled", doubled, manifest)
    assert "  duplicate predictions    1\n" in capsys.readouterr().out
    first = fixture_dir / "predictions.txt"
    assert metrics == _eval_metrics(fixture_dir, tmp_path / "first", first, manifest)
    assert metrics != _eval_metrics(fixture_dir, tmp_path / "second", replaced, manifest)
    assert "duplicate predictions" not in capsys.readouterr().out


@pytest.mark.parametrize("extra, message", [
    (["--images", "more.csv"], "1 --deployments but 2 --images; sources are paired by order"),
    (["--source-name", "a", "--source-name", "b"], "--source-name must be given once per source"),
])
def test_unpaired_sources_are_refused_before_any_input_is_looked_at(tmp_path, capsys,
                                                                     extra, message):
    # no input exists, so the run would end "not found" had it looked at one
    out = tmp_path / "out"
    argv = ["validate", "--deployments", str(tmp_path / "deployments.csv"),
            "--images", str(tmp_path / "images.csv"), "--taxonomy", str(tmp_path / "taxonomy.csv"),
            "-o", str(out), *extra]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_geofilter_drops_out_of_range_labels(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    argv = [
        "geofilter", *_dataset_flags(fixture_dir, out),
        "--predictions", str(fixture_dir / "predictions.txt"),
        "--range-map", str(fixture_dir / "range_map.csv"),
    ]
    assert main(argv) == 0
    lines = dict(
        line.split(" ", 1)
        for line in (out / "predictions_filtered.txt").read_text().splitlines()
    )
    # wolf box covers only the northern hemisphere: dropped at the Serengeti site
    assert lines["i_sg_008"] == "sp_canis_aureus:0.38"
    # lemur box covers Madagascar: the in-range record is untouched
    assert lines["i_md_001"] == "sp_lemur_catta:0.9 blank:0.1"
    # the same lemur label predicted in the Amazon is excluded
    assert lines["i_am2_006"] == "blank:0.35 sp_panthera_onca:0.25"
    capsys.readouterr()


@pytest.mark.parametrize("species, fallback", [
    (["unknown"], "__unknown__"),
    (["unknown", "__unknown__"], "____unknown____"),
], ids=["unknown_taken", "both_taken"])
def test_geofilter_fallback_entry_names_no_label_of_the_taxonomy(tmp_path, fixture_dir, capsys,
                                                                 species, fallback):
    # with no special unknown label, a record whose every label is excluded gets an id
    # by the synthetic blank's rule, not an ordinary label eval would score
    rows = "".join(f"\n{label},Mammalia,Carnivora,Felidae,Panthera,Panthera incognita,"
                   for label in species)
    fixture = _copy_fixture(fixture_dir, tmp_path / "fixture", lambda text: text.replace(
        b"\nunknown,,,,,,unknown", rows.encode()))
    (fixture / "range_map.csv").write_text(  # i_am1_001's labels, all far from its site
        "label_id,lat_min,lat_max,lon_min,lon_max\n"
        + "".join(f"{label},80,81,0,1\n" for label in
                  ("sp_panthera_onca", "sp_panthera_pardus", "blank")), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["geofilter", *_dataset_flags(fixture, out),
                 "--predictions", str(fixture / "predictions.txt"),
                 "--range-map", str(fixture / "range_map.csv")]) == 0
    capsys.readouterr()
    lines = (out / "predictions_filtered.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"i_am1_001 {fallback}:0.0"


def _predictions_with_extra_lines(fixture_dir, path, extra_lines, last_line=b""):
    """The fixture's predictions plus ``extra_lines`` records for image ids not in the dataset."""
    extra = "".join(f"i_extra_{n} sp_panthera_onca:0.7 blank:0.3\n" for n in range(extra_lines))
    path.write_bytes((fixture_dir / "predictions.txt").read_bytes() + extra.encode() + last_line)
    return path


def _peak_bytes(command, fixture_dir, tmp_path, extra_lines, flags=()):
    predictions = _predictions_with_extra_lines(
        fixture_dir, tmp_path / f"predictions-{command}-{extra_lines}.txt", extra_lines)
    out = tmp_path / f"out-{command}-{extra_lines}"
    return _traced_peak([command, *_dataset_flags(fixture_dir, out),
                         "--predictions", str(predictions), *flags])


def _traced_peak(argv):
    """The peak bytes tracemalloc sees while ``main(argv)`` runs; it must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_geofilter_memory_does_not_grow_with_the_prediction_count(tmp_path, fixture_dir, capsys):
    # unknown image ids pass through unfiltered; each record is written as it is
    # read, so 18,000 more of them (about 10 MB if held) must not raise the peak
    flags = ["--range-map", str(fixture_dir / "range_map.csv")]
    small = _peak_bytes("geofilter", fixture_dir, tmp_path, 2_000, flags)
    large = _peak_bytes("geofilter", fixture_dir, tmp_path, 20_000, flags)
    assert "unknown image ids       20001 (passed through unfiltered)" in capsys.readouterr().out
    assert large - small < 1_000_000, (small, large)


def test_sequences_memory_does_not_grow_with_the_prediction_count(tmp_path, fixture_dir, capsys):
    # a record for an image in no burst is dropped as it is read, so 18,000
    # more of them (about 9 MB if held) must not raise the peak
    small = _peak_bytes("sequences", fixture_dir, tmp_path, 2_000)
    large = _peak_bytes("sequences", fixture_dir, tmp_path, 20_000)
    assert capsys.readouterr().out.count("aggregated predictions  31 (1 sequence(s) had") == 2
    assert large - small < 1_000_000, (small, large)


def test_eval_memory_does_not_grow_with_images_outside_the_manifest(
    tmp_path, fixture_dir, golden_dir, capsys
):
    # eval holds the truth of the manifest's images only; every image is
    # loaded, so validate's peak stands for the load and is taken off
    fixture_images = (fixture_dir / "images.csv").read_bytes()
    eval_flags = ["--predictions", str(fixture_dir / "predictions.txt"),
                  "--split", str(golden_dir / "split" / "eval.txt")]

    def eval_over_load(extra_images):
        images = tmp_path / f"images-{extra_images}.csv"
        images.write_bytes(fixture_images + "".join(
            f"i_extra_{n},d_mada_01,2016-03-01T00:00:00Z,sp_lemur_catta,,teamA\n"
            for n in range(extra_images)).encode())
        flags = ["--deployments", str(fixture_dir / "deployments.csv"), "--images", str(images),
                 "--taxonomy", str(fixture_dir / "taxonomy.csv"), "--overwrite"]
        load = _traced_peak(["validate", *flags, "-o", str(tmp_path / "validate")])
        return _traced_peak(["eval", *flags, *eval_flags, "-o", str(tmp_path / "eval")]) - load

    eval_over_load(0)  # the first run in a process also imports what it needs
    small = eval_over_load(2_000)
    large = eval_over_load(20_000)
    assert capsys.readouterr().out.count("evaluated images         10\n") == 3
    # a label for each of 18,000 more images (about 0.7 MB if held) must not raise it
    assert abs(large - small) < 100_000, (small, large)


@pytest.mark.parametrize("command", ["geofilter", "sequences"])
def test_non_utf8_prediction_found_while_writing_leaves_no_artifact(tmp_path, fixture_dir,
                                                                     capsys, command):
    # 20,000 lines come before the bad byte, so it is decoded only after
    # records have been written and every other artifact of the command is whole
    predictions = _predictions_with_extra_lines(
        fixture_dir, tmp_path / "predictions.txt", 20_000, b"i_last sp_\xff:1.0\n")
    out = tmp_path / "out"
    argv = [command, *_dataset_flags(fixture_dir, out), "--predictions", str(predictions)]
    if command == "geofilter":
        argv += ["--range-map", str(fixture_dir / "range_map.csv")]
    assert main(argv) == 1
    assert f"error: {predictions} is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_weights_and_sequences_outputs(tmp_path, fixture_dir, capsys):
    weights_out = tmp_path / "weights"
    assert main(["weights", *_dataset_flags(fixture_dir, weights_out), "--cap", "100"]) == 0
    rows = _csv_rows(weights_out / "weights.csv")
    assert rows[0] == ["label_id", "weight"]
    weights = {row[0]: float(row[1]) for row in rows[1:]}
    # 40 images over 12 observed labels; blank seen 13 times
    assert weights["blank"] == pytest.approx(40 / (12 * 13))
    assert weights["sp_canis_lupus"] == pytest.approx(40 / 12)

    seq_out = tmp_path / "sequences"
    argv = ["sequences", *_dataset_flags(fixture_dir, seq_out),
            "--predictions", str(fixture_dir / "predictions.txt")]
    assert main(argv) == 0
    rows = _csv_rows(seq_out / "sequences.csv")
    by_id = {row[0]: row for row in rows[1:]}
    burst = by_id["d_amaz_01:2015-06-01T12:00:00Z"]
    assert burst[5] == "i_am1_001 i_am1_002 i_am1_003"

    fused = dict(
        line.split(" ", 1)
        for line in (seq_out / "sequence_predictions.txt").read_text().splitlines()
    )
    # jaguar burst: onca tops two of three members and ranks second in the
    # third, so the fused record leads with onca at mean (1 + 1 + 0.4/0.45)/3
    assert fused["d_amaz_01:2015-06-01T12:00:00Z"].startswith(
        "sp_panthera_onca:0.96296296296296"
    )
    capsys.readouterr()


def test_sequences_drops_a_fused_record_whose_mean_overflows(tmp_path, fixture_dir, capsys):
    predictions = tmp_path / "predictions.txt"
    predictions.write_text(
        "i_am1_004 a:1 b:-1.7e308\n"  # one burst of two: the per-label sum overflows
        "i_am1_005 a:1 b:-1.7e308\n"
        "i_am1_006 a:1e-300 b:-1e300\n"  # normalizing by the top score overflows
        "i_am1_007 a:0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["sequences", *_dataset_flags(fixture_dir, out), "--predictions", str(predictions),
            "--verbose"]
    assert main(argv) == 0
    summary, stderr = capsys.readouterr()
    # 32 bursts: one fused record written, two dropped, the other 29 unpredicted
    assert "aggregated predictions  1 (29 sequence(s) had no predicted member)" in summary
    assert "dropped predictions     2 (a fused mean score is not finite)" in summary
    assert (out / "sequence_predictions.txt").read_text(encoding="utf-8") == \
        "d_amaz_01:2015-06-01T23:10:00Z a:1.0\n"
    assert [line for line in stderr.splitlines() if "malformed_prediction" in line] == [
        f"error: malformed_prediction: d_amaz_01:{start}: "
        "mean score of 'b' is not finite, fused record dropped"
        for start in ("2015-06-01T15:30:00Z", "2015-06-01T18:45:10Z")
    ]


def _one_image_bursts(fixture_dir, data_dir, count=30):
    """The fixture's deployments and taxonomy, with ``count`` images ten minutes apart."""
    data_dir.mkdir()
    for name in ("deployments.csv", "taxonomy.csv"):
        (data_dir / name).write_bytes((fixture_dir / name).read_bytes())
    (data_dir / "images.csv").write_text(
        "image_id,deployment_id,timestamp,label_id,burst_index,source_id\n" + "".join(
            f"i{n},d_amaz_01,2015-06-01T{n // 6:02d}:{n % 6}0:00Z,sp_panthera_onca,0,teamA\n"
            for n in range(count)), encoding="utf-8")
    (data_dir / "predictions.txt").write_text("".join(
        f"i{n} sp_panthera_onca:0.7 blank:0.3\n" for n in range(count)), encoding="utf-8")
    return data_dir


@pytest.mark.parametrize("case", ["fixture", "one_image_bursts"])
def test_sequences_formats_each_burst_start_once(tmp_path, fixture_dir, monkeypatch, capsys,
                                                 case):
    data_dir = fixture_dir if case == "fixture" else _one_image_bursts(fixture_dir,
                                                                       tmp_path / "data")
    calls = []
    format_timestamp = stats.format_timestamp
    monkeypatch.setattr(stats, "format_timestamp",
                        lambda value: calls.append(value) or format_timestamp(value))
    out = tmp_path / "out"
    argv = ["sequences", *_dataset_flags(data_dir, out),
            "--predictions", str(data_dir / "predictions.txt")]
    assert main(argv) == 0
    capsys.readouterr()
    rows = _csv_rows(out / "sequences.csv")[1:]
    fused = (out / "sequence_predictions.txt").read_text(encoding="utf-8").splitlines()
    assert len(fused) == (31 if case == "fixture" else 30)
    # the fused ids are the first column's texts: each start is formatted for
    # its row only, and each end only where it is another time
    assert len(calls) == len(rows) + sum(row[2] != row[3] for row in rows)


def test_stats_summary_reports_blank_rate(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["stats", *_dataset_flags(fixture_dir, out), "--top-n", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "blank rate              0.3250" in stdout
    assert (out / "skew.csv").exists()


def test_stats_on_an_all_blank_dataset_reports_undefined_coverage(tmp_path, fixture_dir,
                                                                   capsys):
    # without --include-blank no image is counted, so the top-N coverage is 0/0
    rows = _csv_rows(fixture_dir / "images.csv")
    images = tmp_path / "images.csv"
    with open(images, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(
            [rows[0], *([*row[:3], "blank", *row[4:]] for row in rows[1:] if len(row) == 6)])
    out = tmp_path / "out"
    argv = ["stats", *_dataset_flags(fixture_dir, out)]
    argv[argv.index("--images") + 1] = str(images)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "top-20 coverage        undefined" in stdout
    assert "blank rate              1.0000" in stdout
    assert _csv_rows(out / "skew.csv") == [stats.SKEW_COLUMNS]


def _counts(path):
    return [(row[1], int(row[2])) for row in _csv_rows(path)[1:]]


def test_stats_level_rolls_labels_up(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["stats", *_dataset_flags(fixture_dir, out), "--level", "genus"]) == 0
    assert _counts(out / "skew.csv") == [
        ("Panthera", 11), ("Lemur", 7), ("Canis", 4), ("Leopardus", 4),
    ]
    assert "4 (rolled to genus)" in capsys.readouterr().out


def test_stats_include_blank_counts_blank_and_unknown(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    argv = ["stats", *_dataset_flags(fixture_dir, out), "--level", "genus", "--include-blank"]
    assert main(argv) == 0
    assert _counts(out / "skew.csv") == [
        ("blank", 13), ("Panthera", 11), ("Lemur", 7), ("Canis", 4), ("Leopardus", 4),
        ("unknown", 1),
    ]
    capsys.readouterr()


def test_weights_level_weights_genera(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["weights", *_dataset_flags(fixture_dir, out), "--level", "genus"]) == 0
    rows = _csv_rows(out / "weights.csv")
    assert [row[0] for row in rows[1:]] == [
        "Canis", "Lemur", "Leopardus", "Panthera", "blank", "unknown",
    ]
    capsys.readouterr()


def test_verbose_prints_every_issue_on_stderr(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["validate", *_dataset_flags(fixture_dir, out), "-v"]) == 0
    lines = capsys.readouterr().err.splitlines()
    rows = _csv_rows(out / "issues.csv")
    assert len(rows) == 3 and len(lines) == len(rows)
    for line, (kind, key, detail) in zip(lines, rows):
        severity, rest = line.split(": ", 1)
        assert severity in ("error", "warning")
        assert rest == f"{kind}: {key}: {detail}"


@pytest.mark.parametrize("command", ["stats", "eval", "weights"])
def test_unknown_level_names_the_level(tmp_path, fixture_dir, capsys, command):
    out = tmp_path / "out"
    extra = ["--predictions", str(fixture_dir / "predictions.txt")] if command == "eval" else []
    assert main([command, *_dataset_flags(fixture_dir, out, [*extra, "--level", "bogus"])]) == 2
    assert "argument --level: unknown taxonomic level: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def _assert_golden_outputs(out_root, golden_dir):
    golden_files = artifact_files(golden_dir)
    assert golden_files, "golden outputs are missing; run python tests/pipeline.py"
    assert artifact_files(out_root) == golden_files
    for relative in golden_files:
        assert (out_root / relative).read_bytes() == (golden_dir / relative).read_bytes(), \
            f"{relative} differs from golden copy"


def test_full_pipeline_reproduces_golden_outputs(tmp_path, fixture_dir, golden_dir):
    run_pipeline(fixture_dir, tmp_path)
    _assert_golden_outputs(tmp_path, golden_dir)


def test_pipeline_outputs_identical_for_any_jobs_value(tmp_path, fixture_dir, forks):
    # --jobs is accepted and ignored: every command runs in one process
    assert run_pipeline(fixture_dir, tmp_path / "j1", jobs=1, forks=forks) == []
    assert run_pipeline(fixture_dir, tmp_path / "j8", jobs=8, forks=forks) == []
    files = artifact_files(tmp_path / "j1")
    assert files == artifact_files(tmp_path / "j8")
    for relative in files:
        assert (tmp_path / "j1" / relative).read_bytes() == \
            (tmp_path / "j8" / relative).read_bytes()


def test_every_artifact_reads_back(tmp_path, fixture_dir, capsys):
    out = tmp_path / "pipeline"
    run_pipeline(fixture_dir, out)

    again = tmp_path / "again"
    assert main(["ingest", "--deployments", str(out / "ingest" / "deployments.csv"),
                 "--images", str(out / "ingest" / "images.csv"),
                 "--taxonomy", str(fixture_dir / "taxonomy.csv"),
                 "--source-name", "fixture", "-o", str(again)]) == 0
    for name in ("deployments.csv", "images.csv"):
        assert (again / name).read_bytes() == (out / "ingest" / name).read_bytes(), name
    assert (again / "issues.csv").read_bytes() == b""

    for path in (out / "geofilter" / "predictions_filtered.txt",
                 out / "sequences" / "sequence_predictions.txt"):
        issues = []
        with open(path, encoding="utf-8", newline="") as handle:
            assert list(iter_predictions(handle, issues)), path
        assert issues == [], path

    capsys.readouterr()
    for manifest in ("train.txt", "eval.txt"):
        argv = ["eval", *_dataset_flags(fixture_dir, tmp_path / manifest),
                "--predictions", str(fixture_dir / "predictions.txt"),
                "--split", str(out / "split" / manifest)]
        assert main(argv) == 0
        assert "not in dataset" not in capsys.readouterr().err


# Names no command calls, each kept for the reason given.
UNREACHED = {
    "taxonomy.distinct_counts": "acceptance criteria 3 and 4 call it",
    "report.ValidationReport.of_kind": "bench/traced_cli.py wraps it (ROADMAP item 2 drops both)",
    "cli.run": "process entry; the subprocess tests run it",
}


def _package_functions():
    """The qualified name of every module-level function and class method in trapkit."""
    names = {}
    for info in pkgutil.iter_modules(trapkit.__path__):
        module = importlib.import_module(f"trapkit.{info.name}")
        for name, value in vars(module).items():
            members = {name: value}
            if isinstance(value, type):
                members = {f"{name}.{attr}": member for attr, member in vars(value).items()}
            for qualname, member in members.items():
                function = getattr(member, "fget", None) or getattr(member, "__func__", member)
                code = getattr(function, "__code__", None)
                if code is not None and code.co_filename == module.__file__:  # defined here
                    names[code] = f"{info.name}.{qualname}"
    return names


def test_every_package_function_is_reached_by_a_command(tmp_path, fixture_dir, capsys):
    # functions only: a branch no test reaches is for `python tests/line_audit.py` to print
    def flags(name):
        return _dataset_flags(fixture_dir, tmp_path / name)

    # with no blank or unknown label, each gets an id no label of the taxonomy has
    plain = tmp_path / "taxonomy.csv"
    lines = (fixture_dir / "taxonomy.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    plain.write_text("".join(line for line in lines
                             if not line.endswith((",blank\n", ",unknown\n"))), encoding="utf-8")
    runs = [
        *pipeline_commands(fixture_dir, tmp_path / "pipeline"),
        ["geofilter", *flags("plain"), "--taxonomy", str(plain),
         "--predictions", str(fixture_dir / "predictions.txt"),
         "--range-map", str(fixture_dir / "range_map.csv")],
        ["validate", *flags("strict"), "--strict"],
        ["sequences", *flags("sequences")],
        ["stats", *flags("stats"), "--level", "genus", "--include-blank"],
        ["ingest", *flags("ingest"), "--format", "csv", "-v"],
    ]
    names = _package_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        statuses = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert statuses == [0] * 9 + [1, 0, 0, 0]  # the fixture's defect rows fail --strict
    missed = sorted(name for code, name in names.items() if code not in called)
    assert missed == sorted(UNREACHED)


def test_line_audit_prints_the_statements_a_call_did_not_run():
    path = Path(report.__file__)
    previous = sys.gettrace()
    with line_audit.traced(path.parent) as hits:
        report.ValidationReport([]).summary()
    assert sys.gettrace() is previous
    source = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    none, per_kind = (source.index(line) + 1 for line in [
        'lines.append("  none")', 'lines.append(f"  {kind.value:<22} {count}")'])
    missed = {line: function for line, function, _ in line_audit.unreached(path, hits[str(path)])}
    assert none not in missed
    assert missed[per_kind] == "ValidationReport.summary"


def _python(*args):
    """Run a fresh interpreter at the repository root with only ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


# The two ways a process enters the CLI: ``python -m trapkit.cli`` and the console script.
ENTRIES = {"module": ["-m", "trapkit.cli"],
           "script": ["-c", "from trapkit.cli import run; run()"]}


def test_pipeline_through_the_process_entry_reproduces_golden_outputs(tmp_path, fixture_dir,
                                                                      golden_dir, capsys):
    # -X dev prints every ResourceWarning: a file left open for the shutdown collections,
    # which skip the frozen heap, would never be flushed
    for argv, process_argv in zip(pipeline_commands(fixture_dir, tmp_path / "in_process"),
                                  pipeline_commands(fixture_dir, tmp_path / "process")):
        assert main(argv) == 0
        expected = capsys.readouterr()
        result = _python("-X", "dev", *ENTRIES["module"], *process_argv)
        assert result.returncode == 0, (argv[0], result.stderr)
        assert "ResourceWarning" not in result.stderr, argv[0]
        assert (result.stdout, result.stderr) == (expected.out, expected.err), argv[0]
    _assert_golden_outputs(tmp_path / "process", golden_dir)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("case, status", [("no_arguments", 2), ("unknown_flag", 2),
                                          ("missing_input", 1), ("strict", 1), ("help", 0)])
def test_exit_status_and_output_through_each_process_entry(tmp_path, fixture_dir, monkeypatch,
                                                           capsys, entry, case, status):
    def argv(out):
        return {
            "no_arguments": [],
            "unknown_flag": ["validate", *_dataset_flags(fixture_dir, out), "--bogus"],
            "missing_input": ["validate", *_dataset_flags(tmp_path, out)],
            "strict": ["validate", *_dataset_flags(fixture_dir, out), "--strict"],
            "help": ["--help"],
        }[case]

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal's width
    result = _python(*ENTRIES[entry], *argv(tmp_path / "process"))
    assert result.returncode == status, result.stderr
    assert main(argv(tmp_path / "in_process")) == status
    expected = capsys.readouterr()
    assert (result.stdout, result.stderr) == (expected.out, expected.err)


def test_process_entry_freezes_the_heap_and_still_runs_atexit_handlers():
    result = _python("-c", "import atexit, gc; from trapkit.cli import run; "
                     "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
                     "run()", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: trapkit")
    assert result.stdout.endswith("\nfrozen True\n")


def test_cli_import_loads_no_module_only_some_commands_need():
    # every command runs in one process, so nothing loads pickle or a process pool
    unwanted = ("{'dataclasses', 'fractions', 'inspect', "
                "'pickle', 'multiprocessing', 'concurrent.futures', 'subprocess'}")
    result = _python("-c", f"import sys, trapkit.cli; print(sorted({unwanted} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_package_import_loads_no_submodule_and_exports_only_its_version():
    result = _python("-c", "import sys, trapkit; "
                     "print([m for m in sys.modules if m.startswith('trapkit.')]); "
                     "print([n for n in vars(trapkit) if not n.startswith('_')]); "
                     "print(trapkit.__version__)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]", "0.1.0"]


# The counts per command that read 0 if the traced path no longer reaches its layers.
TRACED_COUNTS = {
    "ingest": ("ingest.parse_images.rows",),
    "validate": ("ingest.unify.input_images",),
    "stats": ("stats.class_distribution.calls",),
    "split": ("geosplit.region_id.calls", "geosplit.image_folds.calls",
              "geosplit.leakage_check.calls"),
    "eval": ("taxonomy.rollup.calls",),
    "geofilter": ("scoring.geofilter.calls",),
    "weights": ("stats.class_weights.calls",),
    "sequences": ("stats.group_bursts.groups",),
}


def test_traced_benchmark_run_of_every_pipeline_command(tmp_path, fixture_dir):
    # in pipeline order and one directory: eval reads split/eval.txt
    for argv in pipeline_commands(fixture_dir, tmp_path):
        spans = tmp_path / f"{argv[0]}.spans.json"
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = _python("bench/traced_cli.py", str(spans), repr(launch), *argv)
        assert result.returncode == 0, (argv[0], result.stderr)
        trace = json.loads(spans.read_text(encoding="utf-8"))
        assert trace["status"] == 0, argv[0]
        assert trace["counts"]["report.from_issues.calls"] >= 1, argv[0]
        for name in TRACED_COUNTS[argv[0]]:
            assert trace["counts"].get(name, 0) >= 1, (argv[0], name)
        if argv[0] == "split":
            # binned once to assign, once more by the independent leakage check
            assert trace["counts"]["geosplit.region_id.calls"] == \
                2 * trace["counts"]["ingest.unify.deployments"] == 8
        if argv[0] == "sequences":
            # the counter is len() of what group_bursts returns: one per written group
            rows = (tmp_path / "sequences" / "sequences.csv").read_text(encoding="utf-8")
            assert trace["counts"]["stats.group_bursts.groups"] == len(rows.splitlines()) - 1


def _copy_fixture(fixture_dir, target, edit):
    target.mkdir()
    for path in fixture_dir.iterdir():
        (target / path.name).write_bytes(edit(path.read_bytes()))
    return target


def test_crlf_inside_a_quoted_field_survives_ingest(tmp_path, fixture_dir, golden_dir, capsys):
    fixture = _copy_fixture(fixture_dir, tmp_path / "fixture", lambda text: text.replace(
        b",river terrace\n", b',"two\r\nlines"\n'))
    out = tmp_path / "out"
    assert main(["ingest", *_dataset_flags(fixture, out)]) == 0
    capsys.readouterr()
    written = (out / "deployments.csv").read_bytes()
    assert b',"two\r\nlines"\n' in written
    assert written.replace(b',"two\r\nlines"\n', b",river terrace\n") == \
        (golden_dir / "ingest" / "deployments.csv").read_bytes()


def test_crlf_fixture_reproduces_golden_outputs(tmp_path, fixture_dir, golden_dir):
    fixture = _copy_fixture(fixture_dir, tmp_path / "fixture",
                            lambda text: text.replace(b"\n", b"\r\n"))
    run_pipeline(fixture, tmp_path / "out")
    _assert_golden_outputs(tmp_path / "out", golden_dir)


def test_byte_order_mark_on_every_input_reproduces_golden_outputs(tmp_path, fixture_dir,
                                                                  golden_dir, capsys):
    # a mark read as text made the first id of a line-based input unknown
    bom = b"\xef\xbb\xbf"
    fixture = _copy_fixture(fixture_dir, tmp_path / "fixture", lambda text: bom + text)
    out = tmp_path / "out"
    manifest = tmp_path / "eval.txt"
    for argv in pipeline_commands(fixture, out):
        if argv[0] == "eval":
            manifest.write_bytes(bom + (out / "split" / "eval.txt").read_bytes())
            argv[argv.index("--split") + 1] = str(manifest)
        assert main(argv) == 0, argv[0]
    capsys.readouterr()
    _assert_golden_outputs(out, golden_dir)
