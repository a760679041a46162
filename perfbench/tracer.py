"""In-memory span recording around the program's public functions.

Each traced function is replaced, in the module namespace where its caller
looks it up, by a wrapper that records a span (name, start, end, parent,
call id).  Functions called once per iteration are folded: their calls only
add to a count and a total time on the enclosing span, which keeps memory
bounded.  A folded function must call no other traced function.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "folded")

    def __init__(self, name: str, parent: int | None, call_id: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.call_id = call_id
        self.folded: dict[str, list] = {}  # name -> [count, total seconds]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._call_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self._call_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable, fold: bool = False, count: Callable | None = None):
        """A wrapper recording a span (or a folded count) for each call of fn.

        ``count(counters, args, result)`` may add operation counts after
        the span has closed.
        """
        spans, stack = self.spans, self._stack
        counters = self.counters

        if fold:
            def folded(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    agg = spans[stack[-1]].folded.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += perf_counter() - t0
            return folded

        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result
        return traced

    def patch(self, module, attr: str, name: str, fold: bool = False, count: Callable | None = None):
        """Replace ``module.attr`` by its traced wrapper until restore()."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self.present.add(name)
        self._patches.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, fold, count))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def root(self, name: str, fn: Callable, *args):
        """Run fn(*args) as the root span of a new call id."""
        self._call_id += 1
        return self.wrap(name, fn)(*args)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "call_id": s.call_id}
                if s.folded:
                    rec["folded"] = s.folded
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> dict[str, list]:
    """Per name: [calls, self seconds, list of span durations].

    Self time is a span's duration minus the durations of its child spans
    and of the folded calls under it.  Folded calls are leaves, so their
    whole time is their self time.  Durations are listed for unfolded
    spans only.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, []])
    for i, s in enumerate(spans):
        dur = s.end - s.start
        rec = out[s.name]
        rec[0] += 1
        rec[1] += dur - child[i] - sum(t for _, t in s.folded.values())
        rec[2].append(dur)
        for fname, (n, t) in s.folded.items():
            out[fname][0] += n
            out[fname][1] += t
    return dict(out)
