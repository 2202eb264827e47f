"""`--jobs N` has no effect: any value gives the bytes, issues and exit status of ``--jobs 1``.

Every command runs in one process, so no value starts a worker. The inputs
here are the ones a split of the work would be most likely to get wrong:
odd line endings, byte order marks, faults on the last line, and records
whose issues come from the start and the end of a file.
"""

import csv
import re
import tempfile
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


@given(records=st.lists(st.one_of(_record, _malformed, st.just("")), max_size=30),
       mark=st.booleans(), crlf=st.booleans(),
       tail=st.sampled_from([b"", b"i_in_no_burst sp_\xff:1.0\n"]))
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sequences_is_byte_identical_for_any_jobs(tmp_path, fixture_dir, capsys, monkeypatch,
                                                  forks, records, mark, crlf, tail):
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
        for jobs in (2, 8):
            assert run(Path(root, str(jobs)), jobs) == one
    assert forks == []
    (status, _, err, files), _ = one
    if tail:
        assert (status, err, files) == \
            (1, f"error: {predictions} is not UTF-8 text (invalid start byte)\n", None)
    else:
        assert status == 0 and set(files) == {"sequences.csv", "sequence_predictions.txt"}
        assert err.count("is not finite, fused record dropped") >= 3


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
