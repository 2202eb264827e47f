"""Run one trapkit command with spans recorded around every layer call.

Usage:
    PYTHONPATH=src python bench/traced_cli.py SPANS_JSON LAUNCH_TIME CLI_ARG...

LAUNCH_TIME is the CLOCK_MONOTONIC reading the parent took just before it
started this process. Before calling ``trapkit.cli.main`` the public
functions are wrapped in the namespaces the code resolves them from: the
names ``trapkit.cli`` imported, the geosplit helpers ``export_split``
calls, the ``rollup`` that scoring and stats use, and the
``ValidationReport`` methods. Spans stay in memory and are written to
SPANS_JSON when the command ends, together with counts taken from the
wrapped calls' arguments and return values. The program's own code is
not modified.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: dict[int, list] = {}  # id -> [name, start_ns, end_ns, parent id]
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _open(self, name):
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            parent = stack[-1] if stack else None
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1]
            else:  # a worker thread's outermost call belongs to the main thread's span
                parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        self.spans[sid] = [name, time.perf_counter_ns(), None, parent]
        stack.append(sid)
        return sid, stack

    def _close(self, sid, stack):
        self.spans[sid][2] = time.perf_counter_ns()
        stack.pop()

    def wrap(self, func, name, count=None):
        calls = name + ".calls"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.counts[calls] += 1
            sid, stack = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, stack)
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return traced

    def wrap_generator(self, func, name):
        """One span per item pulled, so only time inside the generator counts."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return self._pull(func(*args, **kwargs), name)
        return traced

    def _pull(self, iterator, name):
        while True:
            sid, stack = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(sid, stack)
            self.counts[name + ".records"] += 1
            yield item

    def dump(self, path, startup_s, status):
        names = sorted({span[0] for span in self.spans.values()})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [sid, index[name], start, end, parent]
            for sid, (name, start, end, parent) in sorted(self.spans.items())
            if end is not None
        ]
        text = json.dumps({"startup_s": startup_s, "status": status, "names": names,
                           "spans": rows, "counts": dict(self.counts)})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _layer_name(func) -> str:
    return f"{func.__module__.removeprefix('trapkit.')}.{func.__name__}"


# Layer name -> counts taken from a call's arguments and return value.
COUNTERS = {
    "ingest.parse_images": lambda args, result: {"ingest.parse_images.rows": len(result[0])},
    "ingest.unify": lambda args, result: {
        "ingest.unify.input_images": sum(len(source.images) for source in args[0]),
        "ingest.unify.kept_images": len(result[0].images),
        "ingest.unify.deployments": len(result[0].deployments),
    },
    "geosplit.assign_regions": lambda args, result: {"geosplit.regions": len(result.folds)},
    "scoring.evaluate": lambda args, result: {
        "scoring.evaluate.scored": result.evaluated - result.skipped,
    },
    "scoring.parse_predictions": lambda args, result: {
        "scoring.prediction_lines": len(result[0]) + sum(
            1 for issue in result[1] if issue.kind.value == "malformed_prediction"
        ),
    },
    "stats.group_bursts": lambda args, result: {"stats.group_bursts.groups": len(result)},
    "report.from_issues": lambda args, result: {"report.issues": len(result.issues)},
}


def instrument(tracer: Tracer):
    """Wrap the layer functions; returns the wrapped ``trapkit.cli.main``."""
    from trapkit import cli, geosplit, scoring, stats
    from trapkit.report import ValidationReport

    def wrapped(func):
        name = _layer_name(func)
        if inspect.isgeneratorfunction(func):
            return tracer.wrap_generator(func, name)
        return tracer.wrap(func, name, COUNTERS.get(name))

    for attr, value in list(vars(cli).items()):
        if (inspect.isfunction(value) and value.__module__.startswith("trapkit.")
                and value.__module__ != "trapkit.cli"):
            setattr(cli, attr, wrapped(value))
    for attr in ("leakage_check", "image_folds", "region_id"):
        setattr(geosplit, attr, wrapped(getattr(geosplit, attr)))
    for module in (scoring, stats):
        module.rollup = wrapped(module.rollup)

    from_issues = ValidationReport.__dict__["from_issues"].__func__
    ValidationReport.from_issues = classmethod(wrapped(from_issues))
    for attr in ("counts", "of_kind", "write_csv", "summary"):
        setattr(ValidationReport, attr, wrapped(getattr(ValidationReport, attr)))
    return tracer.wrap(cli.main, "cli.main")


def main(argv) -> int:
    spans_path, launch = argv[0], float(argv[1])
    tracer = Tracer()
    traced_main = instrument(tracer)
    startup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - launch
    status = 1
    try:
        status = traced_main(argv[2:])
    finally:
        tracer.dump(spans_path, startup_s, status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
