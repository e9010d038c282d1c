"""Benchmark-owned spans around the calls into each layer.

The program's own tracer (``repro.obs``) records only elapsed time and
nesting; the benchmark's spans carry {name, start, end, parent,
workload} and are kept in memory until the run ends.  A traced run
merges the two: each program root span is hung under the shortest span
whose interval contains it, and a span's *self time* is its duration
minus the part its children cover.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: program span name prefix -> layer (module name); benchmark spans are
#: named ``<layer>:<what>`` and carry their layer themselves
PROGRAM_LAYERS = (("serve.", "serve"), ("commit.", "storage"),
                  ("wal.", "storage"), ("recovery", "storage"),
                  ("imc.", "imc"), ("query", "engine"),
                  ("operator", "engine"))


class SpanLog:
    """An in-memory list of closed spans; thread-safe."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None
             ) -> Iterator[str]:
        span_id = f"b{next(self._ids)}"
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append({"id": span_id, "name": name,
                                   "start": start, "end": end,
                                   "parent": parent,
                                   "workload": self.workload})

    def merge_program_spans(self, roots: List[Any]) -> None:
        """Fold ``repro.obs.take_spans()`` output in.  A program root
        span (one per worker thread and unit of work) is hung under the
        shortest span — the benchmark's or an already merged program
        span — whose interval contains it; one that fits nowhere, or
        carries no start time, stays a root."""
        owned = sorted(self.spans, key=lambda s: s["start"])
        starts = [s["start"] for s in owned]
        merged: Dict[str, List[Dict[str, Any]]] = {}   # under each owned span
        timed = [r for r in roots if getattr(r, "_start", None) is not None]
        # longest first, so a container is merged before what it contains
        for root in sorted(timed, key=lambda r: -(r.elapsed_ms or 0.0)):
            start = root._start
            end = start + (root.elapsed_ms or 0.0) / 1000.0
            holder = None
            # few spans are ever open at once: look a short way back
            position = bisect.bisect_right(starts, start)
            for candidate in reversed(owned[max(0, position - 16):position]):
                if candidate["end"] >= end and (
                        holder is None or candidate["end"] - candidate["start"]
                        < holder["end"] - holder["start"]):
                    holder = candidate
            parent = holder
            for inner in merged.get(holder["id"], ()) if holder else ():
                if (inner["start"] <= start and end <= inner["end"]
                        and inner["end"] - inner["start"]
                        < parent["end"] - parent["start"]):
                    parent = inner
            added = self._add_program_span(root, parent and parent["id"])
            if holder is not None:
                merged.setdefault(holder["id"], []).extend(added)
        for root in roots:
            if getattr(root, "_start", None) is None:
                self._add_program_span(root, None)

    def _add_program_span(self, span: Any, parent: Optional[str]
                          ) -> List[Dict[str, Any]]:
        """Append ``span`` and its descendants; returns what was added."""
        begin = getattr(span, "_start", None) or 0.0
        record = {"id": f"p{span.span_id}", "name": span.name,
                  "start": begin,
                  "end": begin + (span.elapsed_ms or 0.0) / 1000.0,
                  "parent": parent, "workload": self.workload}
        self.spans.append(record)
        added = [record]
        for child in span.children:
            added.extend(self._add_program_span(child, record["id"]))
        return added


def layer_of(name: str) -> Optional[str]:
    """The layer a span's time is attributed to (None: the benchmark's
    own client-side spans, which belong to no layer)."""
    if ":" in name:
        layer = name.split(":", 1)[0]
        return None if layer == "client" else layer
    for prefix, layer in PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> self time in seconds (duration minus children's)."""
    covered: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    return {span["id"]: max(0.0, span["end"] - span["start"]
                            - covered.get(span["id"], 0.0))
            for span in spans}


def layer_self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Layer -> summed self time (seconds) of the spans attributed to it."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + own[span["id"]]
    return out
