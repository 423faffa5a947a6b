"""In-memory span recorder for the benchmark's traced runs.

The benchmark times the program from outside: each span wraps one call
into a public function of one layer.  Spans nest (a request span holds
the layer spans it caused), every span names its parent and the request
it belongs to, and nothing is written until the run ends.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Records ``(name, start, end, parent, request)`` spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _record(self, name: str, start: float, attrs: dict) -> dict:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        record = {
            "id": sid,
            "name": name,
            "parent": parent,
            "request": sid if parent is None else self.spans[parent]["request"],
            "start": start,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._record(name, time.perf_counter(), attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an already-timed span as a child of the open span."""
        self._record(name, start, attrs)["end"] = end

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child_s[s["id"]]
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh, default=str)
            fh.write("\n")
