"""Hostile input end to end: ``cli.main`` in-process on the fixture.

Whatever the flag values or input bytes, ``main`` returns 0, 1 or 2 and lets
no exception escape; ``-o`` holds all of the command's artifacts or none, and
no ``.partial`` file; and after exit 0 no artifact or stdout token is ``inf``,
``-inf`` or ``nan`` in any case. ``main`` runs with the cyclic garbage
collector off, so a hostile input file must leave it no more cyclic garbage
than a clean run of the same command, and ten times the input no more either.
A prediction line too large for memory is run in a child interpreter under
an address-space limit: it exits 1 with one line on stderr.
"""

import contextlib
import csv
import functools
import gc
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trapkit.cli import main
from trapkit.scoring import iter_predictions

from pipeline import pipeline_commands

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# What each fixture pipeline command writes: the golden artifacts of its run.
ARTIFACTS = {
    command.name: {path.name for path in command.iterdir()}
    for command in sorted(GOLDEN_DIR.iterdir())
}

NUMERIC_FLAGS = [(command, "--jobs") for command in ARTIFACTS] + [
    ("stats", "--top-n"),
    ("stats", "--images-per-hour"),
    ("split", "--train-fraction"),
    ("split", "--cell-size-m"),
    ("split", "--seed"),
    ("eval", "--k"),
    ("weights", "--cap"),
    ("sequences", "--max-gap-seconds"),
]

EXTREME_VALUES = ["5e-324", "1e-320", "1e308", "-0.0", "0", str(10**30), str(-10**30)]

INPUT_FILES = {
    "deployments": "deployments.csv",
    "images": "images.csv",
    "taxonomy": "taxonomy.csv",
    "predictions": "predictions.txt",
    "range map": "range_map.csv",
}

# The commands that read each input kind; every command reads the dataset files.
READERS = {"predictions": ("eval", "geofilter", "sequences"), "range map": ("geofilter",)}

# Bytes put into the middle of the first record after the header line, or of
# the last line, or at any byte offset of an input file.
INSERTED = {
    "non-UTF-8 byte": b"\xff",
    "NUL": b"\x00",
    "bare CR": b"\r",
    "200,000-character field": b"x" * 200_000,
    "stray quote": b'"',
}


def _argv(command, fixture_dir, out_root):
    """The fixture pipeline's argv for ``command``, without eval's --split manifest."""
    argv = next(argv for argv in pipeline_commands(fixture_dir, out_root) if argv[0] == command)
    if "--split" in argv:
        at = argv.index("--split")
        del argv[at:at + 2]
    return argv


def _run_and_check(argv):
    out = Path(argv[argv.index("-o") + 1])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    written = {path.name for path in out.iterdir()} if out.exists() else set()
    expected = ARTIFACTS[argv[0]]
    assert written in ([expected] if code == 0 else [set(), expected]), written
    if code == 0:
        texts = [stdout.getvalue(), *((out / name).read_text(encoding="utf-8") for name in written)]
        for text in texts:
            tokens = re.split(r"[\s,:]+", text.lower())
            assert not {"inf", "-inf", "nan"} & set(tokens), text
    return code


def _cyclic_garbage(call):
    """``call()`` run with the collector off, and the count ``gc.collect()`` then finds.

    Objects made before the call are frozen, so the count is only the call's.
    """
    gc.disable()
    gc.freeze()
    try:
        return call(), gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()


@functools.cache
def _clean_garbage(command):
    """The cyclic garbage a run of ``command`` on the bundled fixture leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(command, Path(__file__).parent / "data" / "fixture", Path(tmp))
        code, garbage = _cyclic_garbage(lambda: _run_and_check(argv))
    assert code == 0, command
    return garbage


def _repeat_records(lines, separator, copies):
    """``lines`` ``copies`` times over, each copy's leading id suffixed with its number."""
    return "".join(f"{key}_{n}{separator}{rest}"
                   for n in range(copies)
                   for key, rest in (line.split(separator, 1) for line in lines))


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, fixture_dir):
    large = tmp_path / "large"
    shutil.copytree(fixture_dir, large)
    header, *rows = (fixture_dir / "images.csv").read_text(encoding="utf-8").splitlines(True)
    (large / "images.csv").write_text(header + _repeat_records(rows, ",", 10), encoding="utf-8")
    predictions = (fixture_dir / "predictions.txt").read_text(encoding="utf-8")
    (large / "predictions.txt").write_text(
        _repeat_records(predictions.splitlines(True), " ", 10), encoding="utf-8")
    for command in ARTIFACTS:
        code, garbage = _cyclic_garbage(lambda: _run_and_check(_argv(command, large, tmp_path)))
        assert code == 0, command
        assert garbage == _clean_garbage(command), command


@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
@pytest.mark.parametrize("value", EXTREME_VALUES)
def test_extreme_flag_value_exits_cleanly(tmp_path, fixture_dir, command, flag, value):
    _run_and_check([*_argv(command, fixture_dir, tmp_path), f"{flag}={value}"])


@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
@settings(max_examples=20, deadline=None)
@given(value=st.floats())
def test_any_float_flag_value_exits_cleanly(fixture_dir, command, flag, value):
    with tempfile.TemporaryDirectory() as tmp:
        _run_and_check([*_argv(command, fixture_dir, Path(tmp)), f"{flag}={value!r}"])


def _corrupt(data: bytes, fault: str, where: str) -> bytes:
    if fault == "wrong header":
        return b"wrong,header\n" + data.split(b"\n", 1)[1]
    if where == "last line":
        head, record, end = data.rsplit(b"\n", 2)  # the file ends with a line break
    else:
        head, record, end = data.split(b"\n", 2)
    middle = len(record) // 2
    return b"\n".join([head, record[:middle] + INSERTED[fault] + record[middle:], end])


@pytest.mark.parametrize("kind, fault, where", [
    *((kind, fault, "first record") for kind in INPUT_FILES for fault in [*INSERTED, "wrong header"]),
    # geofilter and sequences read their predictions while writing, so a fault
    # on the last line can be found after another artifact is written
    *(("predictions", fault, "last line") for fault in INSERTED),
])
def test_hostile_input_file_exits_cleanly(tmp_path, fixture_dir, kind, fault, where):
    inputs = tmp_path / "inputs"
    shutil.copytree(fixture_dir, inputs)
    path = inputs / INPUT_FILES[kind]
    path.write_bytes(_corrupt(path.read_bytes(), fault, where))
    for command in READERS.get(kind, ARTIFACTS):
        argv = _argv(command, inputs, tmp_path / "out")
        code, garbage = _cyclic_garbage(lambda: _run_and_check(argv))
        assert garbage <= _clean_garbage(command), command
        if fault == "non-UTF-8 byte":  # a file that is not UTF-8 is fatal: nothing is written
            out = Path(argv[argv.index("-o") + 1])
            assert code == 1, command
            assert not out.exists() or not any(out.iterdir()), (command, sorted(out.iterdir()))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: csv reads every line after a stray quote "
                   "as one field, and the rows in it vanish with no issue naming them")
def test_stray_quote_costs_only_the_record_it_opens(tmp_path, fixture_dir):
    inputs = tmp_path / "inputs"
    shutil.copytree(fixture_dir, inputs)
    path = inputs / "images.csv"
    header, first, second, third, rest = path.read_bytes().split(b"\n", 4)
    path.write_bytes(b"\n".join([header, first, second, b'"' + third, rest]))
    argv = _argv("validate", inputs, tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    checked = re.search(r"checked \d+ deployments and (\d+) images", stdout.getvalue())
    assert int(checked[1]) >= 39, stdout.getvalue()  # 40 on the clean fixture
    assert "row 4" in (tmp_path / "validate" / "issues.csv").read_text(encoding="utf-8")


def _fault_at_offset(size):
    """A fault and the offset of a ``size``-byte file it applies at."""
    return st.sampled_from(sorted([*INSERTED, "deleted byte"])).flatmap(
        lambda fault: st.tuples(st.just(fault), st.integers(0, size - (fault == "deleted byte"))))


@given(data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fault_at_any_byte_offset_exits_cleanly(tmp_path, fixture_dir, data):
    kind = data.draw(st.sampled_from(sorted(INPUT_FILES)), label="kind")
    text = (fixture_dir / INPUT_FILES[kind]).read_bytes()
    faults = data.draw(st.lists(_fault_at_offset(len(text)), min_size=1, max_size=3,
                                unique_by=lambda pair: pair[1]), label="faults")
    faulty = text
    # from the highest offset down, so each offset still points into the original bytes
    for fault, offset in sorted(faults, key=lambda pair: pair[1], reverse=True):
        deleted = fault == "deleted byte"  # the byte at the offset goes, nothing is inserted
        faulty = faulty[:offset] + (b"" if deleted else INSERTED[fault]) + faulty[offset + deleted:]
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        inputs = Path(root, "inputs")
        shutil.copytree(fixture_dir, inputs)
        (inputs / INPUT_FILES[kind]).write_bytes(faulty)
        for command in READERS.get(kind, ARTIFACTS):
            _run_and_check(_argv(command, inputs, Path(root, "out")))


@pytest.fixture(scope="module")
def oversized_predictions(tmp_path_factory, fixture_dir):
    """The fixture's 40 lines, then one 36 MiB line of 6Mi entries.

    ``str.split`` cannot hold that line's entries under 400 MB.
    """
    path = tmp_path_factory.mktemp("oversized") / "predictions.txt"
    with open(path, "wb") as handle:
        handle.write((fixture_dir / "predictions.txt").read_bytes())
        handle.write(b"i_huge " + b"a:0.1 " * (6 << 20) + b"\n")
    return path


# Run in a child interpreter: limit its own address space, count forks, then run the CLI.
OUT_OF_MEMORY = """
import os, resource, sys
from trapkit.cli import main
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, resource.RLIM_INFINITY))
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
print(f"status {main(sys.argv[1:])}, {len(forks)} fork(s)")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="RLIMIT_AS and os.fork are POSIX-only")
@pytest.mark.parametrize("command", READERS["predictions"])
def test_out_of_memory_exits_one_without_a_traceback_or_artifact(tmp_path, fixture_dir,
                                                                 oversized_predictions, command):
    argv = _argv(command, fixture_dir, tmp_path)
    argv[argv.index("--predictions") + 1] = str(oversized_predictions)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY, *argv], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "status 1, 0 fork(s)\n"
    assert result.stderr == "error: out of memory\n"
    # eval fails before it makes the directory; geofilter and sequences remove it again
    assert not (tmp_path / command).exists()


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("cell, dep_id", [
    (b"d_amaz 01", "d_amaz 01"),
    (b"d_amaz\t01", "d_amaz\t01"),
    (b'"d_amaz\n01"', "d_amaz\n01"),
], ids=["space", "tab", "line_break"])
def test_deployment_id_with_whitespace_is_dropped_so_fused_predictions_parse_back(
        tmp_path, fixture_dir, cell, dep_id):
    # a fused record's id starts with its deployment id, and prediction lines split on whitespace
    inputs = tmp_path / "inputs"
    shutil.copytree(fixture_dir, inputs)
    for name in ("deployments.csv", "images.csv"):
        path = inputs / name
        path.write_bytes(path.read_bytes().replace(b"d_amaz_01,", cell + b","))
    for command in ARTIFACTS:
        assert _run_and_check(_argv(command, inputs, tmp_path / "out")) == 0, command

    golden = _csv_rows(GOLDEN_DIR / "validate" / "issues.csv")
    added = [row for row in _csv_rows(tmp_path / "out" / "validate" / "issues.csv")
             if row not in golden]
    orphans = sorted(row[0] for row in _csv_rows(GOLDEN_DIR / "ingest" / "images.csv")
                     if row[1] == "d_amaz_01")
    assert orphans
    assert added == [
        *(["orphan_image", image_id, f"references missing deployment {dep_id!r}, excluded"]
          for image_id in orphans),
        ["missing_field", dep_id, "row 2: deployment_id contains whitespace"],
    ]
    issues = []
    path = tmp_path / "out" / "sequences" / "sequence_predictions.txt"
    with open(path, encoding="utf-8", newline="") as handle:
        records = list(iter_predictions(handle, issues))
    assert issues == []
    fused = (GOLDEN_DIR / "sequences" / "sequence_predictions.txt").read_text(encoding="utf-8")
    assert [image_id for image_id, _ in records] == \
        [line.split()[0] for line in fused.splitlines() if not line.startswith("d_amaz_01:")]


@pytest.mark.parametrize("cell, label_id", [
    (b"un known", "un known"),
    (b"un\tknown", "un\tknown"),
    (b'"un\nknown"', "un\nknown"),
], ids=["space", "tab", "line_break"])
def test_label_id_with_whitespace_is_dropped_so_filtered_predictions_parse_back(
        tmp_path, fixture_dir, cell, label_id):
    # geofilter writes the unknown label into a record whose every label it excludes
    inputs = tmp_path / "inputs"
    shutil.copytree(fixture_dir, inputs)
    path = inputs / "taxonomy.csv"
    path.write_bytes(path.read_bytes().replace(b"\nunknown,", b"\n" + cell + b","))
    (inputs / "predictions.txt").write_text("i_am1_001 sp_canis_lupus:0.9\n", encoding="utf-8")
    for command in ("validate", "geofilter"):
        assert _run_and_check(_argv(command, inputs, tmp_path / "out")) == 0, command

    golden = _csv_rows(GOLDEN_DIR / "validate" / "issues.csv")
    added = [row for row in _csv_rows(tmp_path / "out" / "validate" / "issues.csv")
             if row not in golden]
    unknowns = sorted(row[0] for row in _csv_rows(GOLDEN_DIR / "ingest" / "images.csv")
                      if row[3] == "unknown")
    assert unknowns
    assert added == [
        *(["unknown_label", image_id, "label 'unknown' not in taxonomy, excluded"]
          for image_id in unknowns),
        ["missing_field", label_id, "row 13: label_id contains whitespace"],
    ]
    issues = []
    path = tmp_path / "out" / "geofilter" / "predictions_filtered.txt"
    with open(path, encoding="utf-8", newline="") as handle:
        records = list(iter_predictions(handle, issues))
    assert issues == []
    assert records == [("i_am1_001", (("unknown", 0.0),))]
