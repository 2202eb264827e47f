"""Self-time arithmetic over recorded spans.

A span is (span_id, name, start, end, parent_id). Spans of one thread nest;
spans opened by a worker thread name as parent the span that was open in
the main thread, so they overlap their siblings.

A span's self time is the wall time during which it is an innermost open
span, that is, open with none of its children open. Where several spans
are innermost at once (worker threads running side by side), each gets an
equal share of that time. For spans on a single thread this is the span's
duration minus the time its child spans cover, and in every case the self
times of all spans add up to the wall time the spans cover, never more.
"""

from __future__ import annotations

from collections import defaultdict

_END, _START = 0, 1


def self_times(spans) -> dict:
    """Self seconds per span id."""
    parent_of = {sid: parent for sid, _, _, _, parent in spans}
    depth_of: dict = {}

    def depth(sid):
        if sid not in depth_of:
            parent = parent_of.get(sid)
            depth_of[sid] = 0 if parent is None else depth(parent) + 1
        return depth_of[sid]

    events = []
    for sid, _, start, end, _ in spans:
        if end > start:
            level = depth(sid)
            # At equal times: ends before starts, children end before their
            # parents, parents start before their children.
            events.append((start, _START, level, sid))
            events.append((end, _END, -level, sid))
    events.sort()

    own = defaultdict(float)
    open_children = defaultdict(int)
    active: set = set()
    innermost: set = set()
    previous = None
    for time, kind, _, sid in events:
        if innermost and time > previous:
            share = (time - previous) / len(innermost)
            for leaf in innermost:
                own[leaf] += share
        previous = time
        parent = parent_of[sid]
        if kind == _START:
            active.add(sid)
            innermost.add(sid)
            if parent in active:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return {sid: own.get(sid, 0.0) for sid, _, _, _, _ in spans}


def self_by_name(spans) -> dict[str, float]:
    """Self seconds summed per span name."""
    names = {sid: name for sid, name, _, _, _ in spans}
    totals: dict[str, float] = defaultdict(float)
    for sid, seconds in self_times(spans).items():
        totals[names[sid]] += seconds
    return dict(totals)
