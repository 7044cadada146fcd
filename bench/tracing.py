"""In-memory span recording for the traced benchmark run.

A span is one timed call from the benchmark into a module of the program:
its name is ``<layer>.<function>``, so the layer is the text before the
first dot.  Spans nest (the parent is the span open when it started), carry
the run id and the pass index, and are written out once, when the run ends.
The untraced run uses ``NullTracer``, which records nothing.

Once the run ends, ``settle`` gives each span the time the speed sampler
took inside it (``paused``) and its pass's reference-speed factor;
durations and self times are net of the first and scaled by the second.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "run", "pass_index",
                 "attrs", "paused", "factor")

    def __init__(self, sid, parent, name, start, run, pass_index, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.run = run
        self.pass_index = pass_index
        self.attrs = attrs
        self.paused = 0.0
        self.factor = 1.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end - self.start - self.paused) * self.factor

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "run": self.run,
            "pass": self.pass_index,
            "paused": self.paused,
            "factor": self.factor,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans in memory; ``span`` is a context manager."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.pass_index = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), parent, name, 0.0, self.run_id,
                  self.pass_index, attrs)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        sp.start = time.perf_counter()
        try:
            yield sp.attrs
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Stand-in for the untraced run: spans cost one context manager."""

    enabled = False
    pass_index = -1

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


def settle(spans: list[Span], pause, pass_factor: dict) -> None:
    """Set each span's paused seconds, from pause(start, end), and factor."""
    for sp in spans:
        sp.paused = pause(sp.start, sp.end)
        sp.factor = pass_factor[sp.pass_index]


def _no_pause(start: float, end: float) -> float:
    return 0.0


def self_times(spans: list[Span], pause=_no_pause) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.  Paused
    time outside the children, from pause(start, end), is subtracted too.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        intervals = sorted(
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.sid, ())
        )
        merged: list[list[float]] = []
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        own = sp.end - sp.start - pause(sp.start, sp.end)
        for lo, hi in merged:
            own -= hi - lo - pause(lo, hi)
        out[sp.sid] = own * sp.factor
    return out


def layer_self_times(spans: list[Span], pause=_no_pause) -> dict[str, float]:
    """Summed self time per layer over all given spans."""
    own = self_times(spans, pause)
    totals: dict[str, float] = {}
    for sp in spans:
        totals[sp.layer] = totals.get(sp.layer, 0.0) + own[sp.sid]
    return totals


def per_pass_top_level(spans: list[Span]) -> list[float]:
    """Per pass, the summed duration of the spans that have no parent."""
    sums: dict[int, float] = {}
    for sp in spans:
        if sp.parent is None:
            sums[sp.pass_index] = sums.get(sp.pass_index, 0.0) + sp.duration
    return [sums[i] for i in sorted(sums)]


def write_trace(path, meta: dict, spans: list[Span], summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"meta": meta, "summary": summary,
             "spans": [sp.as_dict() for sp in spans]},
            handle,
            separators=(",", ":"),
        )
        handle.write("\n")
