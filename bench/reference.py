"""A fixed piece of work that measures how fast the machine is right now.

Usage:
    python bench/reference.py

It starts an interpreter, parses a CSV table it builds itself, groups and
sorts the rows, and fills and probes a dict far larger than the CPU caches,
the same kinds of work a trapkit command does. It touches no file and
never imports trapkit, so no change to the program changes its run time.
`run.py` launches it as its own process before and after every timed
command; dividing a command's wall time by the neighbouring reference
times cancels the machine's changes of speed (see NOTES.md, "Noise").
"""

import csv
import io
from datetime import datetime, timedelta, timezone

ROWS = 8_000
TABLE = 30_000


def main() -> int:
    epoch = datetime(2016, 1, 1, tzinfo=timezone.utc)
    text = "".join(
        f"img{i:07d},dep{i % 977:05d},{(epoch + timedelta(seconds=i * 37)).isoformat()},"
        f"{i % 465},{i % 3},src\n"
        for i in range(ROWS)
    )
    by_deployment: dict[str, list] = {}
    for image_id, deployment, stamp, label, burst, _ in csv.reader(io.StringIO(text)):
        by_deployment.setdefault(deployment, []).append(
            (datetime.fromisoformat(stamp), image_id, int(label), int(burst)))
    out = io.StringIO()
    for deployment in sorted(by_deployment):
        rows = sorted(by_deployment[deployment])
        out.write(f"{deployment},{len(rows)},{rows[0][0].isoformat()}\n")

    table = {f"k{(i * 7919) % TABLE:07d}": (i, str(i)) for i in range(TABLE)}
    total = sum(table[f"k{(i * 104729) % TABLE:07d}"][0] for i in range(TABLE))
    ordered = sorted(table.items(), key=lambda item: item[1][1])
    return 0 if total == TABLE * (TABLE - 1) // 2 and len(ordered) == TABLE else 1


if __name__ == "__main__":
    raise SystemExit(main())
