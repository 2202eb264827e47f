"""`--jobs N` has no effect: any value gives the bytes, issues and exit status of ``--jobs 1``.

No value starts a worker. Only a large predictions file does: ``geofilter``
filters the second half of one of at least ``cli._FORK_BYTES`` in a forked
child, and ``sequences`` stores that half in one child and fuses the later
half of its bursts in another. The tests at the end force those splits on
small files to show they give the bytes, issues and exit status of one
process. The inputs here are
the ones a split of the work would be most likely to get wrong: odd line
endings, byte order marks, faults on the last line, and records whose issues
come from the start and the end of a file.
"""

import csv
import errno
import itertools
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trapkit import cli
from trapkit.cli import main
from trapkit.errors import TrapkitError
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


def _files(out):
    """Every file in ``out``, hidden partial files included, by name."""
    return {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None


def _run(fixture_dir, predictions, out, jobs, capsys, command="geofilter"):
    status = main(_argv(fixture_dir, predictions, out, jobs, command))
    captured = capsys.readouterr()
    return status, captured.out, captured.err, _files(out)


def _alternate_cr(text):
    """Every second line ending turned into a lone ``\\r``."""
    lines = text.split(b"\n")
    return b"".join(line + (b"\r" if n % 2 else b"\n") for n, line in enumerate(lines[:-1]))


# Prediction files made from the fixture's; each fault is on the last line.
CASES = {
    "fixture": lambda text: text,
    "CRLF": lambda text: text.replace(b"\n", b"\r\n"),
    "lone CR": lambda text: text.replace(b"\n", b"\r"),
    "CR and LF": _alternate_cr,
    "byte order mark": lambda text: BOM + text,
    # a mark anywhere but at the start is part of the line it opens
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


@pytest.mark.parametrize("case", CASES)
def test_geofilter_is_byte_identical_for_any_jobs(tmp_path, fixture_dir, capsys, forks, case):
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(CASES[case]((fixture_dir / "predictions.txt").read_bytes()))
    runs = {jobs: _run(fixture_dir, predictions, tmp_path / f"out{jobs}", jobs, capsys)
            for jobs in (1, 2, 8)}
    assert forks == []
    assert runs[2] == runs[1]
    assert runs[8] == runs[1]
    status, _, err, files = runs[1]
    if case == "non-UTF-8 byte":
        assert (status, err, files) == \
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", None)
    else:
        assert status == 0 and set(files) == {"predictions_filtered.txt"}


@pytest.mark.parametrize("case", ["malformed", "duplicate label", "unsorted"])
def test_an_issue_on_the_last_line_names_its_line(tmp_path, fixture_dir, capsys, forks, case):
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(CASES[case]((fixture_dir / "predictions.txt").read_bytes()))
    status, _, err, _ = _run(fixture_dir, predictions, tmp_path / "out", 2, capsys)
    assert status == 0 and forks == []
    assert ": line 41: " in err  # the fixture's 40 lines come first


with open(GOLDEN / "sequences" / "sequences.csv", encoding="utf-8") as _handle:
    BURSTS = [row["image_ids"].split() for row in csv.DictReader(_handle)]  # the fixture's 32

# Records every file starts or ends with, each for the first member of its burst.
# Those three members' fused means overflow, so each of bursts 0, 15 and 31
# leaves an issue: one from the start, middle and end of the bursts.
OVERFLOWS = [f"{BURSTS[burst][0]} sp_a:1e-300 sp_b:-1e308" for burst in (0, 15, 31)]
# the first record of each is the one kept; the repeat comes at the end of the file
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


_SEQUENCE_INPUTS = given(
    records=st.lists(st.one_of(_record, _malformed, st.just("")), max_size=30),
    mark=st.booleans(), crlf=st.booleans(),
    tail=st.sampled_from([b"", b"i_in_no_burst sp_\xff:1.0\n"]))


def _predictions(path, lines, mark, crlf, tail):
    text = "".join(f"{line}\r\n" if crlf else f"{line}\n" for line in lines)
    path.write_bytes(BOM * mark + text.encode() + tail)
    return path


def _record_issues(monkeypatch):
    """The issues each run leaves, in the order the command left them, which the report's sort
    hides."""
    issues = []
    monkeypatch.setattr(ValidationReport, "from_issues",
                        lambda found: issues.append(list(found)) or FROM_ISSUES(found))
    return issues


def _assert_fused(result, predictions, tail):
    status, _, err, files = result
    if tail:
        assert (status, err, files) == \
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", None)
    else:
        assert status == 0 and set(files) == {"sequences.csv", "sequence_predictions.txt"}
        assert err.count("is not finite, fused record dropped") >= 3


@_SEQUENCE_INPUTS
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sequences_is_byte_identical_for_any_jobs(tmp_path, fixture_dir, capsys, monkeypatch,
                                                  forks, records, mark, crlf, tail):
    lines = [*OVERFLOWS, *REPEATS, EMPTY, *records, VALID, *REPEATED]
    predictions = _predictions(tmp_path / "predictions.txt", lines, mark, crlf, tail)
    issues = _record_issues(monkeypatch)

    def run(out, jobs):
        issues.clear()
        return _run(fixture_dir, predictions, out, jobs, capsys, "sequences"), issues[:]

    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        one = run(Path(root, "1"), 1)
        for jobs in (2, 8):
            assert run(Path(root, str(jobs)), jobs) == one
    assert forks == []
    _assert_fused(one[0], predictions, tail)


# The artifact each command streams from its predictions
STREAMED = {"geofilter": "predictions_filtered.txt", "sequences": "sequence_predictions.txt"}


@pytest.mark.parametrize("error", [KeyError, MemoryError])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("command", STREAMED)
def test_an_exception_at_either_end_leaves_no_process_or_file(tmp_path, fixture_dir, capsys,
                                                              monkeypatch, forks,
                                                              command, where, error):
    written = (GOLDEN / command / STREAMED[command]).read_text().splitlines()
    victim = (written[0] if where == "first" else written[-1]).split()[0]
    real = cli.write_predictions

    def failing(records, stream):
        def checked():
            for record in records:
                if record[0] == victim:
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
        assert not getattr(raised.value, "__notes__", [])  # raised here, not in a worker
    assert forks == []
    assert _files(out) is None  # the command made the directory, so it takes it away again


def test_a_jobs_value_beyond_any_cpu_count_starts_no_worker(tmp_path, fixture_dir, capsys,
                                                            forks):
    predictions = fixture_dir / "predictions.txt"
    many = _run(fixture_dir, predictions, tmp_path / "many", str(10**30), capsys)
    assert forks == []
    assert many == _run(fixture_dir, predictions, tmp_path / "one", 1, capsys)


# \x85, U+2028 and \x1c end a line for str.splitlines, but not in a text file
PIECES = [b"a", b" ", b"\n", b"\r", b"\r\n", "\x85".encode(), " ".encode(), b"\x1c"]


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=40), mark=st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lines_are_read_as_a_text_file_ends_them(tmp_path, pieces, mark):
    path = tmp_path / "lines.txt"
    text = b"".join(pieces)
    path.write_bytes(BOM * mark + text)
    # only \n, \r and \r\n end a line, each kept untranslated; the mark is dropped
    expected = [line.decode() for line in re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", text)]
    assert cli._read(path, list) == expected


# The split: a large predictions file is cut after the first \n at or after
# its middle byte. geofilter works the lines before the cut and forks a child
# for the lines after it; sequences stores them so, then forks a second child
# to fuse the bursts from the one that holds the middle stored entry on. The
# tests below force the split on files of any size.


def _force_split(monkeypatch):
    monkeypatch.setattr(cli, "_FORK_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # not a child of this process any more
            os.waitpid(pid, os.WNOHANG)


@_SEQUENCE_INPUTS
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_split_sequences_is_byte_identical_to_one_process(tmp_path, fixture_dir, capsys,
                                                            monkeypatch, forks, records, mark,
                                                            crlf, tail):
    # overflowing means in bursts 0, 15 and 31, from the start, middle and end of
    # the file; the members of REPEATS are predicted again after the cut
    middle = len(records) // 2
    lines = [OVERFLOWS[0], *REPEATS, EMPTY, *records[:middle], OVERFLOWS[1], *records[middle:],
             VALID, OVERFLOWS[2], *REPEATED]
    predictions = _predictions(tmp_path / "predictions.txt", lines, mark, crlf, tail)
    text = predictions.read_bytes()
    issues = _record_issues(monkeypatch)
    forks.clear()

    def run(out):
        issues.clear()
        return _run(fixture_dir, predictions, out, 1, capsys, "sequences"), issues[:]

    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        one = run(Path(root, "one"))
        assert forks == []
        with monkeypatch.context() as patch:
            _force_split(patch)
            start, _ = cli._cut(predictions)
            assert text.index(REPEATS[-1].encode()) < start < text.index(REPEATED[0].encode())
            assert run(Path(root, "two")) == one
    assert len(forks) == (1 if tail else 2)
    _assert_reaped(forks)
    _assert_fused(one[0], predictions, tail)


def _lone_cr_but(end):
    """The fixture's lines ended by lone CRs, but for ``end`` where the cut falls."""
    def make(text):
        text = text.replace(b"\n", b"\r") + b"i_am1_001 sp_canis_lupus\r"
        at = text.index(b"\r", len(text) // 2 + len(end))
        return text[:at] + end + text[at + 1:]
    return make


def _chunk_ends(text):
    """Fixture lines past 320 KiB, then a malformed line; the lines before the cut
    are counted in 64 KiB chunks, the first of which ends inside a CRLF and the
    second in a lone CR. Each run of ``x`` is a malformed line that names its line."""
    lines = itertools.cycle(text.splitlines(keepends=True))
    body = bytearray()
    for boundary, end in ((1 << 16, b"\r\n"), (2 << 16, b"\r")):
        while len(body) < boundary - 1000:
            body += next(lines)
        body += b"x" * (boundary - 1 - len(body)) + end
    while len(body) < 5 << 16:
        body += next(lines)
    return bytes(body) + b"i_am1_001 sp_canis_lupus\n"


SPLIT = {
    **CASES,
    "cut right after a CRLF": _lone_cr_but(b"\r\n"),
    "cut after a run of lone CRs": _lone_cr_but(b"\r\r\r\n"),
    "mark right after the cut": _lone_cr_but(b"\n" + BOM),
    "CRLF and lone CR across count chunks": _chunk_ends,
    "only LF is the last byte": lambda text: text.replace(b"\n", b"\r")[:-1] + b"\n",
}
# no line starts after the first \n at or after the middle byte, so nothing forks
UNCUT = {"lone CR", "one line", "no lines", "only LF is the last byte"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")
@pytest.mark.parametrize("case", SPLIT)
@pytest.mark.parametrize("command", STREAMED)
def test_a_split_is_byte_identical_to_one_process(tmp_path, fixture_dir, capsys, monkeypatch,
                                                  forks, command, case):
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(SPLIT[case]((fixture_dir / "predictions.txt").read_bytes()))
    issues = _record_issues(monkeypatch)
    one = _run(fixture_dir, predictions, tmp_path / "one", 1, capsys, command), issues[:]
    assert forks == []
    issues.clear()
    _force_split(monkeypatch)
    assert (_run(fixture_dir, predictions, tmp_path / "two", 1, capsys, command), issues[:]) == one
    # sequences forks again to fuse, once the child has stored the lines after the cut
    stored = command == "geofilter" or case == "non-UTF-8 byte"
    assert len(forks) == (0 if case in UNCUT else 1 if stored else 2)
    _assert_reaped(forks)


# Each fork a test makes fail: geofilter's, and the two of sequences --predictions
FORKS = {"geofilter": "geofilter", "sequences store": "sequences", "sequences fuse": "sequences"}
LAST_BURST = (GOLDEN / "sequences" / STREAMED["sequences"]).read_text().split()[-3]
VICTIM = (("sp_victim", 0.5),)  # the entries of the one record a test's failure is for


def _after_the_cut(fixture_dir, tmp_path):
    """The fixture's predictions, then a last record ranking ``VICTIM``; and that line's number."""
    text = (fixture_dir / "predictions.txt").read_bytes() + b"i_am1_001 sp_victim:0.5\n"
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(text)
    cut = text.index(b"\n", len(text) // 2) + 1
    return predictions, text[:cut].count(b"\n") + 1


def _in_the_child(monkeypatch, fork, act):
    """Call ``act()`` on what only ``fork``'s child works: the record that ranks ``VICTIM``, on
    the last line, or the last burst's fused record. Returns what this process worked."""
    seen = []
    if fork == "sequences fuse":
        real_write = cli.write_predictions

        def write(records, stream):
            def failing():
                for record in records:
                    seen.append(record[0])
                    if record[0] == LAST_BURST:
                        act()
                    yield record
            return real_write(failing(), stream)

        monkeypatch.setattr(cli, "write_predictions", write)
        return seen
    real_read = cli.iter_predictions

    def failing(lines, found, first_line=1):
        for record in real_read(lines, found, first_line):
            seen.append(record[1])
            if record[1] == VICTIM:
                act()
            yield record

    monkeypatch.setattr(cli, "iter_predictions", failing)
    return seen


def _span(fork, predictions, first):
    """A pattern for the share of the work ``fork``'s child is named by."""
    if fork == "sequences fuse":
        return r"bursts \d+-32"
    return re.escape(f"lines {first}- of {predictions}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")
@pytest.mark.parametrize("error", [TrapkitError, MemoryError, KeyError])
@pytest.mark.parametrize("fork", FORKS)
def test_an_error_after_the_cut_is_raised_again_here(tmp_path, fixture_dir, capsys, monkeypatch,
                                                    forks, fork, error):
    predictions, first = _after_the_cut(fixture_dir, tmp_path)
    command = FORKS[fork]

    def fail():
        raise error("no range for sp_victim")

    seen = _in_the_child(monkeypatch, fork, fail)
    out = tmp_path / "two"
    if error is KeyError:  # a fault in the program: it leaves main with the child's traceback
        _force_split(monkeypatch)
        with pytest.raises(KeyError, match="sp_victim") as raised:
            main(_argv(fixture_dir, predictions, out, 1, command))
        notes = raised.value.__notes__
        assert re.match(f"raised in the child process for {_span(fork, predictions, first)}:\n",
                        notes[0])
        assert "in failing" in notes[0]
        capsys.readouterr()
    else:
        one = _run(fixture_dir, predictions, tmp_path / "one", 1, capsys, command)
        assert one[0] == 1 and one[3] is None
        seen.clear()
        _force_split(monkeypatch)
        assert _run(fixture_dir, predictions, out, 1, capsys, command) == one
    assert VICTIM not in seen and LAST_BURST not in seen  # the child worked it
    assert len(forks) == (2 if fork == "sequences fuse" else 1) and _files(out) is None
    _assert_reaped(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")
@pytest.mark.parametrize("command", STREAMED)
def test_a_non_utf8_byte_after_the_cut_fails_as_in_one_process(tmp_path, fixture_dir, capsys,
                                                              monkeypatch, forks, command):
    # past the 8 KiB this process decodes beyond the cut, so only the child reads it
    text = (fixture_dir / "predictions.txt").read_bytes() * 32 + b"i_am1_004 sp_\xff:1.0\n"
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(text)
    one = _run(fixture_dir, predictions, tmp_path / "one", 1, capsys, command)
    assert one[:3] == (1, "", f"error: {predictions} is not UTF-8 text (invalid start byte)\n")
    _force_split(monkeypatch)
    assert _run(fixture_dir, predictions, tmp_path / "two", 1, capsys, command) == one
    assert len(forks) == 1 and one[3] is None  # sequences fails before it fuses
    _assert_reaped(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")
@pytest.mark.parametrize("end", ["killed", "exit 0"])
@pytest.mark.parametrize("fork", FORKS)
def test_a_child_that_ends_with_no_result_fails_the_command(tmp_path, fixture_dir, capsys,
                                                            monkeypatch, forks, fork, end):
    predictions, first = _after_the_cut(fixture_dir, tmp_path)
    _in_the_child(monkeypatch, fork, lambda: os.kill(os.getpid(), signal.SIGKILL)
                  if end == "killed" else os._exit(0))
    _force_split(monkeypatch)
    out = tmp_path / "out"
    status, stdout, err, files = _run(fixture_dir, predictions, out, 1, capsys, FORKS[fork])
    assert (status, stdout, files) == (1, "", None)
    assert re.fullmatch(f"error: the process for {_span(fork, predictions, first)} "
                        "ended with no result\n", err)
    assert len(forks) == (2 if fork == "sequences fuse" else 1)
    _assert_reaped(forks)


@pytest.mark.parametrize("fault", ["one CPU", "no process to spare"])
@pytest.mark.parametrize("fork", FORKS)
def test_a_split_that_cannot_fork_works_both_halves_here(tmp_path, fixture_dir, capsys,
                                                         monkeypatch, forks, fork, fault):
    predictions = fixture_dir / "predictions.txt"
    command = FORKS[fork]
    one = _run(fixture_dir, predictions, tmp_path / "one", 1, capsys, command)
    _force_split(monkeypatch)
    failing = 1 if fork == "sequences fuse" else 0  # the fork that cannot start
    calls = itertools.count()
    if fault == "one CPU":  # as under ``taskset -c 0``
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if next(calls) == failing else {0, 1}, raising=False)
    else:
        fork_here = os.fork

        def fork_or_fail():
            if next(calls) == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork_here()

        monkeypatch.setattr(os, "fork", fork_or_fail)
    assert _run(fixture_dir, predictions, tmp_path / "two", 1, capsys, command) == one
    assert len(forks) == (command == "sequences")  # the other fork of sequences still starts
    _assert_reaped(forks)


# Run in a child interpreter, whose forked children may each map only 8 MiB
# more than it holds at the fork, then run the CLI with the split forced.
CHILD_OUT_OF_MEMORY = """
import os, resource, sys
from trapkit import cli
cli._FORK_BYTES = 0
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, forks = os.fork, []

def fork():
    pid = real_fork()
    if pid == 0:
        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        resource.setrlimit(resource.RLIMIT_AS, (size + (8 << 20), resource.RLIM_INFINITY))
    else:
        forks.append(pid)
    return pid

os.fork = fork
status = cli.main(sys.argv[1:])
for pid in forks:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pid = "reaped"
    print(f"status {status}, child {pid}")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="sizes the child by statm")
@pytest.mark.parametrize("fork", FORKS)
def test_a_child_out_of_memory_fails_as_one_process_does(tmp_path, fixture_dir, fork):
    # 2 MiB of the fixture's lines and a line of 256Ki entries, which neither
    # str.split nor a fusion's sums can hold in 8 MiB. Last, it is read after
    # the cut. First, for a burst member, this process reads it and the fuse
    # child sums it: its burst holds the middle stored entry.
    lines = itertools.cycle((fixture_dir / "predictions.txt").read_bytes().splitlines(True))
    text = bytearray()
    while len(text) < 2 << 20:
        text += next(lines)
    if fork == "sequences fuse":
        huge = f"{BURSTS[20][0]} ".encode() + b"".join(b"a%d:0.1 " % n for n in range(256 << 10))
        text[:0] = huge + b"\n"
    else:
        text += b"i_huge " + b"a:0.1 " * (256 << 10) + b"\n"
    predictions = tmp_path / "predictions.txt"
    predictions.write_bytes(bytes(text))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", CHILD_OUT_OF_MEMORY,
                             *_argv(fixture_dir, predictions, out, 1, FORKS[fork])],
                            cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    children = 2 if fork == "sequences fuse" else 1
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, "status 1, child reaped\n" * children, "error: out of memory\n")
    assert _files(out) is None
