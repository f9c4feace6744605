"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: run.py opens one root
span per trial and wraps the callables it hands to the program, plus the
module-global names `sbmlab.reduce` looks up at call time.  Nothing inside
the package changes.  Spans stay in memory and are written when the run ends.

Memory: when `tracemalloc` is tracing, each span records its *self* peak, the
traced high-water mark reached while the span itself (not a child) was
running, above the level at which the span was entered.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call at a layer boundary; `parent` indexes the recorder's list."""

    name: str
    start: float
    end: float
    parent: int | None
    trial: int
    arm: str
    peak_bytes: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one process; children inherit (trial, arm) from the stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int, int]] = []  # (index, entry level, self peak)

    @contextmanager
    def span(self, name: str, trial: int | None = None, arm: str | None = None):
        memory = tracemalloc.is_tracing()
        if self._stack:
            top = self.spans[self._stack[-1][0]]
            trial = top.trial if trial is None else trial
            arm = top.arm if arm is None else arm
            if memory:
                idx, level, peak = self._stack[-1]
                self._stack[-1] = (idx, level, max(peak, tracemalloc.get_traced_memory()[1]))
        level = 0
        if memory:
            tracemalloc.reset_peak()
            level = tracemalloc.get_traced_memory()[0]
        s = Span(name, time.perf_counter(), 0.0, self._stack[-1][0] if self._stack else None,
                 -1 if trial is None else trial, arm or "")
        self.spans.append(s)
        self._stack.append((len(self.spans) - 1, level, level))
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            _, level, peak = self._stack.pop()
            if memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                s.peak_bytes = peak - level
                tracemalloc.reset_peak()

    def wrap(self, name: str, fn, observe=None):
        """`fn` inside a span; `observe(span, result)` may attach counts to it.

        An exception leaves its type name in the span's `raised` attribute and
        propagates unchanged.
        """

        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    s.attrs["raised"] = type(exc).__name__
                    raise
                if observe is not None:
                    observe(s, out)
                return out

        return traced

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one span per line in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(dict(asdict(s), id=i), sort_keys=True) + "\n")
