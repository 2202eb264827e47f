"""Hostile input end to end: ``cli.main`` in-process on the fixture.

Whatever the flag values or input bytes, ``main`` returns 0, 1 or 2 and lets
no exception escape; ``-o`` holds all of the command's artifacts or none, and
no ``.partial`` file; and after exit 0 no artifact or stdout token is ``inf``,
``-inf`` or ``nan`` in any case.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trapkit.cli import main

from pipeline import pipeline_commands

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

# Bytes put into the middle of the first record after the header line.
INSERTED = {
    "non-UTF-8 byte": b"\xff",
    "NUL": b"\x00",
    "bare CR": b"\r",
    "200,000-character field": b"x" * 200_000,
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


def _corrupt(data: bytes, fault: str) -> bytes:
    header, record, rest = data.split(b"\n", 2)
    if fault == "wrong header":
        return b"\n".join([b"wrong,header", record, rest])
    middle = len(record) // 2
    return b"\n".join([header, record[:middle] + INSERTED[fault] + record[middle:], rest])


@pytest.mark.parametrize("kind", INPUT_FILES)
@pytest.mark.parametrize("fault", [*INSERTED, "wrong header"])
def test_hostile_input_file_exits_cleanly(tmp_path, fixture_dir, kind, fault):
    inputs = tmp_path / "inputs"
    shutil.copytree(fixture_dir, inputs)
    path = inputs / INPUT_FILES[kind]
    path.write_bytes(_corrupt(path.read_bytes(), fault))
    codes = [
        _run_and_check(_argv(command, inputs, tmp_path / "out"))
        for command in READERS.get(kind, ARTIFACTS)
    ]
    if fault == "non-UTF-8 byte":
        assert set(codes) == {1}  # a file that is not UTF-8 is fatal
