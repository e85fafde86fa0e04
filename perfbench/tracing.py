"""In-memory spans for the traced benchmark run.

A span is (id, parent id, name, start, end) with ``time.perf_counter``
times, which on Linux read CLOCK_MONOTONIC and so line up across the
benchmark's processes.  The layer of a span is the part of its name before
the first dot (``graphslam.optimize`` belongs to ``graphslam``).  Spans
are kept in a list and written out once, when the run ends.
"""

import collections
import json
import time


class Tracer:
    """Records spans; ``prefix`` keeps ids unique across processes."""

    def __init__(self, prefix, parent=None):
        self.prefix = prefix
        self.spans = []
        self._stack = [parent]
        self._count = 0

    def start(self, name):
        self._count += 1
        sid = "%s%d" % (self.prefix, self._count)
        self._stack.append(sid)
        return [sid, self._stack[-2], name, time.perf_counter(), None]

    def end(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        def traced(*args):
            span = self.start(name)
            try:
                return fn(*args)
            finally:
                self.end(span)
        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)


def span_cost_s(calls=20000):
    """Time one traced call costs beyond the call itself."""
    def noop():
        return None

    traced = Tracer("calibrate-").wrap("bench.noop", noop)
    took = []
    for fn in (noop, traced):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        took.append(time.perf_counter() - t)
    return max(0.0, (took[1] - took[0]) / calls)


def self_times(spans):
    """Seconds per layer: each span's duration minus its children's."""
    child_total = collections.defaultdict(float)
    for _, parent, _, start, end in spans:
        child_total[parent] += end - start
    out = collections.defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name.split(".")[0]] += (end - start) - child_total[sid]
    return dict(out)


def total_s(spans, name):
    return sum(end - start for _, _, n, start, end in spans if n == name)


def write_jsonl(path, run_id, spans):
    with open(path, "w", encoding="ascii") as fh:
        for sid, parent, name, start, end in spans:
            fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")
