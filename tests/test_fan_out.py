"""`--jobs N`: forked workers give the bytes, issues and exit status of one process.

``geofilter`` splits its prediction lines, ``sequences --predictions`` its
bursts. Tests that need the fan-out set the CPU probe with the ``cpus``
fixture, so they hold on a host with any number of CPUs.
"""

import csv
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trapkit import cli
from trapkit.cli import main
from trapkit.report import ValidationReport

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "golden"
BOM = b"\xef\xbb\xbf"
FROM_ISSUES = ValidationReport.from_issues  # taken before any test patches it


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


def _run(fixture_dir, predictions, out, jobs, capsys, command="geofilter"):
    status = main(_argv(fixture_dir, predictions, out, jobs, command))
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
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", None)
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


with open(GOLDEN / "sequences" / "sequences.csv", encoding="utf-8") as _handle:
    BURSTS = [row["image_ids"].split() for row in csv.DictReader(_handle)]  # the fixture's 32

# Records every file starts or ends with, each for the first member of its burst.
# Two workers split the bursts after 16 and three after 10 and 21, so bursts 0,
# 15 and 31 are in different runs for both. Those three members' fused means
# overflow, so their issues come from different runs.
OVERFLOWS = [f"{BURSTS[burst][0]} sp_a:1e-300 sp_b:-1e308" for burst in (0, 15, 31)]
# the first record of each is the one kept: the later one falls in the other run of two
REPEATS = [f"{BURSTS[5][0]} sp_a:0.9", f"{BURSTS[26][0]} sp_b:0.8"]
REPEATED = [f"{BURSTS[26][0]} sp_a:0.7", f"{BURSTS[5][0]} sp_b:0.9 sp_a:0.1"]
# a member whose empty ranking, a malformed line, comes before a valid (unsorted) record
EMPTY, VALID = f"{BURSTS[20][0]}", f"{BURSTS[20][0]} sp_b:0.4 sp_a:0.6"
TAKEN = {line.split()[0] for line in [*OVERFLOWS, *REPEATS, EMPTY]}

_member = st.sampled_from([image for burst in BURSTS for image in burst if image not in TAKEN]
                          + ["i_in_no_burst"])
_entry = st.builds("{}:{}".format, st.sampled_from(["blank", "sp_a", "sp_b"]),
                   st.sampled_from(["0.9", "0.5", "0.1", "0", "-0.2", "1e-300", "-1e308"]))
_record = st.builds(lambda image, entries: " ".join([image, *entries]),
                    _member, st.lists(_entry, min_size=1, max_size=4))
_malformed = st.builds("{}{}".format, _member,
                       st.sampled_from(["", " sp_a", " sp_a:nan", " :0.5", " sp_a:1e999"]))


@given(records=st.lists(st.one_of(_record, _malformed, st.just("")), max_size=30),
       mark=st.booleans(), crlf=st.booleans(),
       tail=st.sampled_from([b"", b"i_in_no_burst sp_\xff:1.0\n"]))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sequences_is_byte_identical_for_any_jobs(tmp_path, fixture_dir, capsys, monkeypatch,
                                                  cpus, forks, records, mark, crlf, tail):
    lines = [*OVERFLOWS, *REPEATS, EMPTY, *records, VALID, *REPEATED]
    text = "".join(f"{line}\r\n" if crlf else f"{line}\n" for line in lines)
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(BOM * mark + text.encode() + tail)
    issues = []  # in the order the command left them, which the report's sort hides
    monkeypatch.setattr(ValidationReport, "from_issues",
                        lambda found: issues.append(list(found)) or FROM_ISSUES(found))

    def run(out, jobs):
        issues.clear()
        return _run(fixture_dir, predictions, out, jobs, capsys, "sequences"), issues[:]

    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        one = run(Path(root, "1"), 1)
        for count in (2, 3):
            cpus(count)
            for jobs in (2, 8):
                forks.clear()
                assert run(Path(root, f"{count}-{jobs}"), jobs) == one
                assert len(forks) == min(jobs, count) - 1
    (status, _, err, files), _ = one
    if tail:
        assert (status, err, files) == \
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", None)
    else:
        assert status == 0 and set(files) == {"sequences.csv", "sequence_predictions.txt"}
        assert err.count("is not finite, fused record dropped") >= 3


# The artifact each command writes through the fan-out, and what a child's note
# names: two workers cut the fixture's 40 lines after line 20, its 32 bursts after 16.
FANNED_OUT = {
    "geofilter": ("predictions_filtered.txt", "lines 21-40 of "),
    "sequences": ("sequence_predictions.txt", "bursts 17-32:"),
}


@pytest.mark.parametrize("error", [KeyError, MemoryError])
@pytest.mark.parametrize("where", ["parent", "child"])
@pytest.mark.parametrize("command", FANNED_OUT)
def test_an_exception_in_either_range_leaves_no_process_or_file(tmp_path, fixture_dir, capsys,
                                                                monkeypatch, cpus, forks,
                                                                command, where, error):
    cpus(2)
    artifact, units = FANNED_OUT[command]
    written = (GOLDEN / command / artifact).read_text().splitlines()
    victim = (written[0] if where == "parent" else written[-1]).split()[0]
    real = cli.write_predictions

    def failing(records, stream):
        def checked():
            for record in records:
                if record.image_id == victim:
                    raise error(victim)
                yield record
        return real(checked(), stream)

    monkeypatch.setattr(cli, "write_predictions", failing)
    out = tmp_path / "out"
    argv = _argv(fixture_dir, fixture_dir / "predictions.txt", out, 2, command)
    if error is MemoryError:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
    else:
        with pytest.raises(KeyError, match=victim) as raised:
            main(argv)
        notes = getattr(raised.value, "__notes__", [])  # a child's traceback travels with it
        assert len(notes) == (where == "child")
        assert all(f"raised in the worker for {units}" in note and "Traceback" in note
                   for note in notes)
    assert len(forks) == 1
    assert _no_child_left()
    assert _files(out) is None  # the command made the directory, so it takes it away again


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


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=40), mark=st.booleans(),
       count=st.integers(1, 8))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_runs_of_any_worker_count_read_as_one_process(tmp_path, cpus, pieces, mark, count):
    path = tmp_path / "lines.txt"
    path.write_bytes(BOM * mark + b"".join(pieces))

    def numbered(start, stop, out, found):
        """Write and keep each line of the run, read as ``geofilter`` reads it, with its number."""
        def work(lines):
            if stop is not None:
                lines = islice(lines, start, stop)
            for number, line in enumerate(lines, start + 1):
                out.write(f"{number} {line}")
                found.append((number, line))
        cli._read(path, work)

    def line_count():
        return cli._read(path, lambda lines: sum(1 for _ in lines))

    runs = []
    for jobs in (1, 8):
        cpus(count)
        issues = []
        with open(tmp_path / f"out{jobs}", "w", encoding="utf-8", newline="") as out:
            results = cli._fan_out(jobs, line_count, numbered, out, issues,
                                   lambda first, last: f"lines {first}-{last}")
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
from trapkit.report import ValidationReport
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
    pytest.param("sequences", 2, id="sequences-2"),
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
    assert not out.exists()  # eval fails before it makes the directory; sequences removes it
