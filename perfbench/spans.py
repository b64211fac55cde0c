"""Span tracing from outside the program.

The tracer replaces a function where its caller looks it up (a module
global such as ``saddlemap.driver.diffusion_maps``, or a method on a class)
with a wrapper that records one span per call: name, start, end, parent span
and run id. Spans stay in memory until :meth:`Tracer.write`; self times are
derived afterwards, so a layer's time excludes the wrapped layers it calls.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, RUN, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(result)`` may return ``{counter: increment}`` for the
        counts this call contributes to the current run.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1,
                    self.run_id, True]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
                span[FAILED] = False
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if count is not None:
                for key, inc in count(result).items():
                    self.counts[self.run_id][key] += inc
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def counting(self, fn, key: str):
        """``fn`` with every call counted under ``key`` (no span)."""
        def counted(*args, **kwargs):
            self.counts[self.run_id][key] += 1
            return fn(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,run,failed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[RUN]},{int(s[FAILED])}\n")

    def summary(self, run_id: int) -> dict:
        """Per span name of one run: total and self time, calls, failures.

        Self time is a span's duration minus the time its direct child spans
        cover (children never overlap: the program is single-threaded).
        ``children`` holds, per span of that name, whether it failed and
        how many direct children of each name it had. A name with no span
        reads as zeros.
        """
        runs = [(i, s) for i, s in enumerate(self.spans) if s[RUN] == run_id]
        child_time: dict = defaultdict(float)
        child_count: dict = defaultdict(lambda: defaultdict(int))
        for _, s in runs:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                child_count[s[PARENT]][s[NAME]] += 1
        out: dict = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0, "failed": 0,
                                         "children": []})
        for i, s in runs:
            dur = s[END] - s[START]
            entry = out[s[NAME]]
            entry["total"] += dur
            entry["self"] += dur - child_time[i]
            entry["calls"] += 1
            entry["failed"] += int(s[FAILED])
            entry["children"].append((bool(s[FAILED]), dict(child_count[i])))
        return out
