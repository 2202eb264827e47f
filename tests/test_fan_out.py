"""`geofilter --jobs N`: forked workers give the bytes, issues and exit status of one process.

Tests that need the fan-out set the CPU probe (``os.sched_getaffinity``), so
they hold on a host with any number of CPUs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trapkit import cli
from trapkit.cli import main

REPO = Path(__file__).resolve().parent.parent
BOM = b"\xef\xbb\xbf"


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the CPU probe report ``n`` usable CPUs."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return set_count


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` starts in this process, in order."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def _argv(fixture_dir, predictions, out, jobs, command="geofilter"):
    argv = [
        command,
        "--deployments", str(fixture_dir / "deployments.csv"),
        "--images", str(fixture_dir / "images.csv"),
        "--taxonomy", str(fixture_dir / "taxonomy.csv"),
        "--predictions", str(predictions),
        "-o", str(out), "--jobs", str(jobs), "-v",
    ]
    if command == "geofilter":
        argv += ["--range-map", str(fixture_dir / "range_map.csv")]
    return argv


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _files(out):
    """Every file in ``out``, hidden partial files included, by name."""
    return {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None


def _run(fixture_dir, predictions, out, jobs, capsys):
    status = main(_argv(fixture_dir, predictions, out, jobs))
    captured = capsys.readouterr()
    assert _no_child_left()
    return status, captured.out, captured.err, _files(out)


def _alternate_cr(text):
    """Every second line ending turned into a lone ``\\r``."""
    lines = text.split(b"\n")
    return b"".join(line + (b"\r" if n % 2 else b"\n") for n, line in enumerate(lines[:-1]))


# Prediction files made from the fixture's; each fault is on the last line,
# which every cut leaves in the last worker's range.
CASES = {
    "fixture": lambda text: text,
    "CRLF": lambda text: text.replace(b"\n", b"\r\n"),
    "lone CR": lambda text: text.replace(b"\n", b"\r"),
    "CR and LF": _alternate_cr,
    "byte order mark": lambda text: BOM + text,
    # line 21 of 40 opens the second run of 2 workers and the fifth of 8
    "mark opening a later run": lambda text: (
        b"".join(text.splitlines(keepends=True)[:20]) + BOM
        + b"".join(text.splitlines(keepends=True)[20:])),
    "no trailing newline": lambda text: text.rstrip(b"\n"),
    "one line": lambda text: text[:text.index(b"\n") + 1],
    "three lines": lambda text: b"".join(text.splitlines(keepends=True)[:3]),
    "no lines": lambda text: b"",
    "malformed": lambda text: text + b"i_am1_001 sp_canis_lupus\n",
    "duplicate label": lambda text: text + b"i_am1_002 blank:0.5 blank:0.4\n",
    "unsorted": lambda text: text + b"i_am1_003 blank:0.1 sp_canis_lupus:0.9\n",
    "CR and LF, unsorted": lambda text: _alternate_cr(text) + b"i_am1_003 blank:0.1 a:0.9\n",
    "CRLF, malformed": lambda text: text.replace(b"\n", b"\r\n") + b"i_am1_001 x\r\n",
    "non-UTF-8 byte": lambda text: text + b"i_am1_004 sp_\xff:1.0\n",
}

# one line or none is one run; a non-UTF-8 file fails in the line count, before any fork
SINGLE_RANGE = {"one line", "no lines", "non-UTF-8 byte"}


@pytest.mark.parametrize("case", CASES)
def test_geofilter_is_byte_identical_for_any_jobs(tmp_path, fixture_dir, capsys, cpus, forks,
                                                  case):
    cpus(8)
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(CASES[case]((fixture_dir / "predictions.txt").read_bytes()))
    runs = {}
    for jobs in (1, 2, 8):
        forks.clear()
        runs[jobs] = _run(fixture_dir, predictions, tmp_path / f"out{jobs}", jobs, capsys)
        assert (len(forks) > 0) == (jobs > 1 and case not in SINGLE_RANGE), (jobs, forks)
    assert runs[2] == runs[1]
    assert runs[8] == runs[1]
    status, _, err, files = runs[1]
    if case == "non-UTF-8 byte":
        assert (status, err, files) == \
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", {})
    else:
        assert status == 0 and set(files) == {"predictions_filtered.txt"}


@pytest.mark.parametrize("case", ["malformed", "duplicate label", "unsorted"])
def test_an_issue_in_the_last_range_names_its_line(tmp_path, fixture_dir, capsys, cpus, forks,
                                                   case):
    cpus(2)
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(CASES[case]((fixture_dir / "predictions.txt").read_bytes()))
    status, _, err, _ = _run(fixture_dir, predictions, tmp_path / "out", 2, capsys)
    assert status == 0 and len(forks) == 1
    assert ": line 41: " in err  # the fixture's 40 lines come first


@pytest.mark.parametrize("error", [KeyError, MemoryError])
@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_exception_in_either_range_leaves_no_process_or_file(tmp_path, fixture_dir, capsys,
                                                                monkeypatch, cpus, forks,
                                                                error, where):
    cpus(2)
    lines = (fixture_dir / "predictions.txt").read_text().splitlines()
    victim = (lines[0] if where == "parent" else lines[-2]).split()[0]  # the last is an orphan
    real = cli.geofilter

    def failing(record, *args):
        if record.image_id == victim:
            raise error(victim)
        return real(record, *args)

    monkeypatch.setattr(cli, "geofilter", failing)
    out = tmp_path / "out"
    argv = _argv(fixture_dir, fixture_dir / "predictions.txt", out, 2)
    if error is MemoryError:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
    else:
        with pytest.raises(KeyError, match=victim) as raised:
            main(argv)
        notes = getattr(raised.value, "__notes__", [])  # a child's traceback travels with it
        assert len(notes) == (where == "child")
        assert all("raised in the worker for lines 21-40 of" in note and "Traceback" in note
                   for note in notes)
    assert len(forks) == 1
    assert _no_child_left()
    assert _files(out) == {}


def test_jobs_beyond_the_usable_cpus_start_one_worker_per_cpu(tmp_path, fixture_dir, capsys,
                                                             monkeypatch, cpus):
    cpus(3)
    started = []
    real_fork = os.fork

    def fork():  # a plan past the probe's 3 CPUs fails here, before it starts a third child
        assert len(started) < 2, "more workers than usable CPUs"
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    predictions = fixture_dir / "predictions.txt"
    many = _run(fixture_dir, predictions, tmp_path / "many", str(10**30), capsys)
    assert len(started) == 2
    assert many == _run(fixture_dir, predictions, tmp_path / "one", 1, capsys)


# \x85, U+2028 and \x1c end a line for str.splitlines, but not in a text file
PIECES = [b"a", b" ", b"\n", b"\r", b"\r\n", "\x85".encode(), "\u2028".encode(), b"\x1c"]


def _numbered(lines, first_line, out, found):
    """A trivial ``work``: each line with its number, written out and kept as an issue."""
    for number, line in enumerate(lines, first_line):
        out.write(f"{number} {line}")
        found.append((number, line))


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=40), mark=st.booleans(),
       count=st.integers(1, 8))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_runs_of_any_worker_count_read_as_one_process(tmp_path, cpus, pieces, mark, count):
    path = tmp_path / "lines.txt"
    path.write_bytes(BOM * mark + b"".join(pieces))
    runs = []
    for jobs in (1, 8):
        cpus(count)
        issues = []
        with open(tmp_path / f"out{jobs}", "w", encoding="utf-8", newline="") as out:
            results = cli._fan_out(path, jobs, _numbered, out, issues)
        assert _no_child_left()
        runs.append(((tmp_path / f"out{jobs}").read_bytes(), issues))
    assert runs[1] == runs[0]
    assert len(results) == max(1, min(count, len(issues)))  # one run per worker, none empty


@pytest.fixture(scope="module")
def oversized_predictions(tmp_path_factory, fixture_dir):
    """The fixture's 40 lines, then one 36 MiB line of 6Mi entries.

    ``str.split`` cannot hold that line's entries under 400 MB. Two workers
    cut after line 20, so the line is the child's.
    """
    path = tmp_path_factory.mktemp("oversized") / "predictions.txt"
    with open(path, "wb") as handle:
        handle.write((fixture_dir / "predictions.txt").read_bytes())
        handle.write(b"i_huge " + b"a:0.1 " * (6 << 20) + b"\n")
    return path


# Run in a child interpreter: limit its own address space, then run the CLI.
OUT_OF_MEMORY = """
import os, resource, sys
from trapkit.cli import main
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, resource.RLIM_INFINITY))
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
status = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(f"status {status}, {len(forks)} fork(s), no child left")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker needs os.fork")
@pytest.mark.parametrize("command, jobs", [
    pytest.param("geofilter", 1, id="1"),
    pytest.param("geofilter", 2, id="2"),
    pytest.param("eval", 1, id="eval"),
    pytest.param("sequences", 1, id="sequences"),
])
def test_out_of_memory_exits_one_without_a_traceback_or_artifact(tmp_path, fixture_dir,
                                                                 oversized_predictions,
                                                                 command, jobs):
    out = tmp_path / "out"
    argv = _argv(fixture_dir, oversized_predictions, out, jobs, command)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY, *argv], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"status 1, {jobs - 1} fork(s), no child left\n"
    assert result.stderr == "error: out of memory\n"
    assert not _files(out)  # eval fails before it makes the directory, sequences after
