"""Span tracer for the traced run, wrapped around agectl's layer boundaries.

The benchmark does not edit the program: `Tracer.patch` swaps a module or
class attribute for a timing wrapper and `Tracer.restore` puts every
original back. Each span records its name, start, end and the span that
caused it. Totals, counts and self time (a span's duration less the part
its child spans cover) are kept for every span; the raw spans are kept in
memory only up to `keep` of them, so a long run cannot exhaust memory, and
are written out when the run ends.
"""

import itertools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open spans: [name, start, child_seconds, span_id]
        self.totals = None


class Tracer:
    def __init__(self, keep=20_000):
        self.keep = keep
        self.spans = []  # (span_id, parent_id, name, start, end), the first `keep`
        self.counts = defaultdict(int)  # named tallies, such as rows written
        self._state = _ThreadState()
        self._all_totals = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched = []

    def _totals(self):
        totals = self._state.totals
        if totals is None:
            totals = self._state.totals = defaultdict(lambda: [0, 0.0, 0.0])
            with self._lock:
                self._all_totals.append(totals)
        return totals

    def call(self, name, fn, *args, **kw):
        """Run fn(*args, **kw) inside a span called `name`."""
        stack = self._state.stack
        span_id = next(self._ids)
        frame = [name, _clock(), 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kw)
        finally:
            end = _clock()
            stack.pop()
            duration = end - frame[1]
            entry = self._totals()[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            parent = None
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][3]
            if len(self.spans) < self.keep:
                self.spans.append((span_id, parent, name, frame[1], end))

    def wrap(self, name, fn):
        def traced(*args, **kw):
            return self.call(name, fn, *args, **kw)
        return traced

    def patch(self, owner, attr, name=None, wrapper=None):
        """Replace owner.attr by a traced wrapper (or by `wrapper(original)`)."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original) if wrapper else self.wrap(name, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self):
        """name -> (calls, total_seconds, self_seconds), merged over threads."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for totals in self._all_totals:
                for name, (n, total, own) in totals.items():
                    m = merged[name]
                    m[0] += n
                    m[1] += total
                    m[2] += own
        return {name: tuple(v) for name, v in merged.items()}

    def mean_us(self, *names):
        """Mean inclusive microseconds per call of the first name, over all names' time."""
        totals = self.totals()
        n = totals.get(names[0], (0,))[0]
        return sum(totals.get(x, (0, 0.0))[1] for x in names) / n * 1e6 if n else None

    def dump(self):
        return {
            "totals": {name: {"calls": n, "total_s": total, "self_s": own}
                       for name, (n, total, own) in sorted(self.totals().items())},
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans": [list(s) for s in self.spans],
        }
