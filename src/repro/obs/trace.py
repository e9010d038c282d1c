"""Contextvar-based tracer: nestable spans with a hard kill switch.

A :class:`Span` measures one unit of engine work — a query, one operator
stage, an OSON navigation, a WAL commit.  Spans nest through a
``contextvars.ContextVar``, so generators consumed on the opening
thread attach children to the right parent without any explicit
plumbing.  A new thread starts with an *empty* context: work handed to
one nests only if it runs under a copy of the caller's context
(``contextvars.copy_context().run``).  A span opened with no live
parent becomes a *root* span and lands in the bounded in-memory ring
buffer when it closes.

The tracer is **off by default** (enable with ``REPRO_TRACE=1`` or
:func:`set_tracing_enabled`).  When off, :func:`span` returns a shared
no-op context manager — no allocation, no clock read, no contextvar
write.  ``benchmarks/test_obs_overhead.py`` holds the disabled path
under 2% of the Figure 3 suite's runtime; treat that gate as part of
this module's contract when adding instrumentation points.

Span trees can be large (a traced OLAP query navigates thousands of
documents), so every span caps its recorded children at
:data:`MAX_CHILDREN` and counts the overflow in ``dropped`` instead of
growing without bound.  Exports validate against
:data:`repro.obs.schema.TRACE_SCHEMA`.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from repro.obs import locks as _locks

__all__ = [
    "MAX_CHILDREN",
    "Span",
    "current_span",
    "export_traces",
    "monotonic",
    "set_tracing_enabled",
    "span",
    "take_spans",
    "tracing_enabled",
]

#: the project clock.  Instrumented modules are lint-forbidden from
#: calling ``time.*`` directly (rule ``direct-time``); they import this.
monotonic = time.perf_counter

#: recorded children per span before overflow counting kicks in
MAX_CHILDREN = 256

#: completed root spans retained in memory
RING_SIZE = 256

_enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0", "false")

_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                    default=None)

_ids = itertools.count(1)

_RING_LOCK = _locks.make_lock("obs.trace.ring")

#: completed root spans  # guarded-by: _RING_LOCK
_RING: deque = deque(maxlen=RING_SIZE)

#: serializes child attachment on span close.  Worker threads that run
#: under a copied context share one parent Span object, so the
#: child-cap check-then-append (and the ``dropped`` tally) race without
#: it.  Module-level because the parent is reached through a local
#: alias; contention is nil — tracing is off by default and attach is
#: a few list ops.
_ATTACH_LOCK = _locks.make_lock("obs.trace.attach")


def set_tracing_enabled(enabled: bool) -> bool:
    """Flip the tracer kill switch; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    return _enabled


class Span:
    """One timed unit of work.  Use via :func:`span`::

        with span("query", source="po_oson") as s:
            ...
            s.record("rows_out", count)

    ``elapsed_ms`` is valid after the ``with`` block exits.  ``counters``
    holds named numeric deltas attached by instrumentation (cache
    hits/misses around an operator, rows in/out, bytes appended).
    """

    __slots__ = ("span_id", "name", "attrs", "counters", "children",
                 "dropped", "elapsed_ms", "_start", "_token")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None
                 ) -> None:
        self.span_id = next(_ids)
        self.name = name
        self.attrs = attrs or {}
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []  # guarded-by: _ATTACH_LOCK
        self.dropped = 0                  # guarded-by: _ATTACH_LOCK
        self.elapsed_ms: Optional[float] = None
        self._start: float = 0.0
        self._token = None

    def record(self, name: str, value: float) -> None:
        """Attach (accumulating) one named counter delta to this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self._start = monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_ms = (monotonic() - self._start) * 1000.0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        token = self._token
        self._token = None
        parent = token.old_value if token is not None else None
        if token is not None:
            _CURRENT.reset(token)
        if isinstance(parent, Span):
            with _ATTACH_LOCK:
                if len(parent.children) < MAX_CHILDREN:
                    parent.children.append(self)
                else:
                    parent.dropped += 1
        else:
            with _RING_LOCK:
                _RING.append(self)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "span_id": self.span_id,
            "name": self.name,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        if self.dropped:
            out["dropped_children"] = self.dropped
        return out

    def __repr__(self) -> str:
        timing = (f"{self.elapsed_ms:.3f}ms" if self.elapsed_ms is not None
                  else "open")
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class _NoopSpan:
    """Shared do-nothing span for the disabled path.

    ``__enter__``/``__exit__``/``record`` are all empty-bodied; the whole
    cost of a disabled instrumentation point is one module-attribute
    check plus entering this context manager.
    """

    __slots__ = ()
    elapsed_ms = None
    counters: Dict[str, float] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def record(self, name: str, value: float) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a span (or the shared no-op when tracing is disabled)."""
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs or None)


def current_span():
    """The innermost live span (no-op singleton when none / disabled).

    Leaf instrumentation that only wants to bump a counter on whatever
    span is open uses this instead of opening its own span.
    """
    if not _enabled:
        return NOOP_SPAN
    live = _CURRENT.get()
    return live if live is not None else NOOP_SPAN


def take_spans() -> List[Span]:
    """Drain and return the completed root spans (oldest first)."""
    with _RING_LOCK:
        spans = list(_RING)
        _RING.clear()
    return spans


def peek_spans() -> List[Span]:
    """The completed root spans without draining the ring."""
    with _RING_LOCK:
        return list(_RING)


def export_traces(drain: bool = True) -> Dict[str, Any]:
    """JSON-ready export of the ring buffer's completed root spans."""
    spans = take_spans() if drain else peek_spans()
    return {
        "schema": "repro.obs.trace/v1",
        "spans": [s.to_dict() for s in spans],
    }
