"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark's own code around each public call
into a package layer (``core``, ``simulator``, ``batch``, ``runner``,
``experiments``).  They stay in memory while the run measures and go
into the run's record when it ends, so recording them costs a list
append per call and no I/O inside the timed region.

A span's *self time* is its duration minus the part of it its direct
children cover (children never overlap: the benchmark is one thread).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class Tracer:
    """Records ``(id, name, start, end, parent)`` spans.

    A disabled tracer records nothing, and its :meth:`span` yields
    ``None`` at the cost of one attribute test, so the untraced run and
    the traced run execute the same benchmark code.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    # ------------------------------------------------------------------
    def total(self, name: str, first: int = 0) -> float:
        """Summed duration of every span called ``name``, from span
        index ``first`` on."""
        return sum(s["end"] - s["start"] for s in self.spans[first:]
                   if s["name"] == name)

    def children_total(self, span_id: int) -> float:
        """Summed duration of the direct children of span ``span_id``."""
        return sum(s["end"] - s["start"] for s in self.spans[span_id + 1:]
                   if s["parent"] == span_id)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out
