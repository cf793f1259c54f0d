"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code around calls into the
library's layers; the library itself is not instrumented. Every span keeps
its name, start, end, the span that caused it and the identifier of the
pass it belongs to. Nothing is written until the run ends.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans and counts, grouped by pass.

    Spans must nest (one thread); a span's self time is its duration minus
    the durations of its direct children.
    """

    def __init__(self):
        self.spans = []          # [pass_id, span_id, parent_id, name, start, end]
        self.counts = Counter()  # (pass_id, name) -> count
        self.pass_id = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [self.pass_id, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self.pass_id, name)] += n

    def pass_count(self, pass_id, name):
        return self.counts[(pass_id, name)]

    def durations(self, pass_id, name):
        """Wall durations of every span with this name in one pass."""
        return [s[5] - s[4] for s in self.spans if s[0] == pass_id and s[3] == name]

    def self_times(self, pass_id):
        """Total self time per span name in one pass."""
        own = {}
        for s in self.spans:
            if s[0] == pass_id:
                own[s[1]] = s[5] - s[4]
        for s in self.spans:
            if s[0] == pass_id and s[2] is not None:
                own[s[2]] -= s[5] - s[4]
        totals = Counter()
        for s in self.spans:
            if s[0] == pass_id:
                totals[s[3]] += own[s[1]]
        return totals

    def span_total(self, pass_id):
        return sum(1 for s in self.spans if s[0] == pass_id)

    def dump(self, path):
        """Write every span as one JSON line, then the counts."""
        with open(path, "w") as fh:
            for p, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": p, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            for (p, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"pass": p, "count": name, "value": n}) + "\n")


class NullTracer:
    """Stand-in used by untimed runs: records nothing."""

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


def span_cost(samples=20000):
    """Seconds one empty span costs a Tracer, measured on a fresh one."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
