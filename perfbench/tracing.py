"""Spans and counts recorded around the program's public functions.

The tracer replaces a function at the module attribute through which its
callers reach it (``acx.experiments.an_exact``, ``acx.cli.main``, ...) with
a wrapper that records a span: name, start, end and the span that was open
when it started.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children, which nest inside it because everything runs on one
thread.  Work done in worker processes is invisible here: the pool classes
are replaced by a subclass that only counts pools started and tasks mapped.
"""

from __future__ import annotations

import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def count_pools(self, module, name: str) -> None:
        """Count pools started and tasks mapped through ``module.ProcessPoolExecutor``."""
        counts = self.counts
        counts[f"{name}.pool_starts"] = 0
        counts[f"{name}.pool_tasks"] = 0

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counts[f"{name}.pool_starts"] += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                items = list(iterables[0])
                counts[f"{name}.pool_tasks"] += len(items)
                return super().map(fn, items, *iterables[1:], **kwargs)

        module.ProcessPoolExecutor = CountingPool

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - children
        return out

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as handle:
            json.dump({"summary": summary, "layers": self.layers(), "counts": self.counts,
                       "spans": [[n, round(s - origin, 7), round(e - origin, 7), p]
                                 for n, s, e, p in self.spans]}, handle)
