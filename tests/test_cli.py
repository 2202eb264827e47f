import csv

import pytest

from trapkit.cli import main

from pipeline import artifact_files, run_pipeline


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


def test_format_csv_echoes_primary_artifact(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    status = main(["validate", *_dataset_flags(fixture_dir, out, ["--format", "csv"])])
    assert status == 0
    stdout = capsys.readouterr().out
    assert stdout == (out / "issues.csv").read_text()


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
    rows = list(csv.reader(open(eval_out / "metrics.csv")))
    values = {(row[0], row[1]): row[2] for row in rows[1:]}
    assert values[("top1_accuracy", "overall")] == "1.0"
    assert values[("top3_accuracy", "overall")] == "1.0"
    assert values[("skipped_images", "overall")] == "0"
    capsys.readouterr()


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


def test_weights_and_sequences_outputs(tmp_path, fixture_dir, capsys):
    weights_out = tmp_path / "weights"
    assert main(["weights", *_dataset_flags(fixture_dir, weights_out), "--cap", "100"]) == 0
    rows = list(csv.reader(open(weights_out / "weights.csv")))
    assert rows[0] == ["label_id", "weight"]
    weights = {row[0]: float(row[1]) for row in rows[1:]}
    # 40 images over 12 observed labels; blank seen 13 times
    assert weights["blank"] == pytest.approx(40 / (12 * 13))
    assert weights["sp_canis_lupus"] == pytest.approx(40 / 12)

    seq_out = tmp_path / "sequences"
    argv = ["sequences", *_dataset_flags(fixture_dir, seq_out),
            "--predictions", str(fixture_dir / "predictions.txt")]
    assert main(argv) == 0
    rows = list(csv.reader(open(seq_out / "sequences.csv")))
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


def test_stats_summary_reports_blank_rate(tmp_path, fixture_dir, capsys):
    out = tmp_path / "out"
    assert main(["stats", *_dataset_flags(fixture_dir, out), "--top-n", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "blank rate              0.3250" in stdout
    assert (out / "skew.csv").exists()


def test_full_pipeline_reproduces_golden_outputs(tmp_path, fixture_dir, golden_dir):
    run_pipeline(fixture_dir, tmp_path)
    golden_files = artifact_files(golden_dir)
    assert golden_files, "golden outputs are missing; run python tests/pipeline.py"
    assert artifact_files(tmp_path) == golden_files
    for relative in golden_files:
        fresh = (tmp_path / relative).read_bytes()
        golden = (golden_dir / relative).read_bytes()
        assert fresh == golden, f"{relative} differs from golden copy"


def test_pipeline_outputs_identical_for_any_jobs_value(tmp_path, fixture_dir):
    run_pipeline(fixture_dir, tmp_path / "j1", jobs=1)
    run_pipeline(fixture_dir, tmp_path / "j8", jobs=8)
    files = artifact_files(tmp_path / "j1")
    assert files == artifact_files(tmp_path / "j8")
    for relative in files:
        assert (tmp_path / "j1" / relative).read_bytes() == \
            (tmp_path / "j8" / relative).read_bytes()
