"""In-memory span recording around calls into the program's layers.

The traced run wraps public functions and methods of the live objects
(never the program's source) so each call records a span: name, start,
end and the span that was open on the same thread when it began. Spans
stay in memory until the run ends and are then written out or reduced.

Self time follows the usual definition: a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter


class SpanRecorder:
    """Spans as ``[name, start, end, parent]`` rows; parent is a row index
    or -1. Safe to record from several threads."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, function, name: str):
        """``function`` with a span named ``name`` around every call."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            with recorder._lock:
                index = len(recorder.rows)
                recorder.rows.append(row)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()

        return traced

    def count(self, function, name: str):
        """``function`` with a call counter (no span) named ``name``."""
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def trace_attribute(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced form."""
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name))

    def count_attribute(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.count(getattr(owner, attribute), name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rows": self.rows, "counts": dict(self.counts)}, handle)


def load(path) -> tuple[list[list], dict[str, int]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["rows"], data["counts"]


def summarise(rows: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the sorted
    durations (for percentiles)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in rows:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for index, (name, start, end, _parent) in enumerate(rows):
        duration = end - start
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        entry = out.setdefault(
            name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered
        entry["durations"].append(duration)
    for entry in out.values():
        entry["durations"].sort()
    return out


def mean_us(summary: dict, name: str, per: float | None = None) -> float:
    """Mean duration of span ``name`` in µs, or total ÷ ``per`` when given."""
    entry = summary.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return 1e6 * entry["total"] / (per if per else entry["calls"])


def quantile_us(summary: dict, name: str, q: float) -> float:
    entry = summary.get(name)
    if not entry or not entry["durations"]:
        return 0.0
    values = entry["durations"]
    return 1e6 * values[min(len(values) - 1, int(q * len(values)))]
