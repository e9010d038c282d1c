"""Runtime lock sanitizer: an instrumented ``threading.Lock`` factory.

Every lock in the instrumented subsystems (:mod:`repro.core.counters`,
:mod:`repro.obs`, :mod:`repro.storage`) is created through
:func:`make_lock` / :func:`make_rlock` instead of ``threading.Lock()``.
With the sanitizer disabled (the default) the factory returns the plain
``threading`` primitive — zero overhead, byte-for-byte the old
behaviour.  With it enabled (``REPRO_SANITIZE=1`` in the environment,
or :func:`set_sanitizer_enabled` before the lock is created) the
factory returns a :class:`SanitizedLock` that records, per thread:

* the **acquisition stack** — which sanitized locks this thread holds,
  and where each was acquired (``file:line`` of the acquiring frame);
* **cross-thread order edges** — acquiring ``B`` while holding ``A``
  records the edge ``A -> B``; a later acquisition of ``A`` under ``B``
  (by *any* thread, no actual deadlock required) is a **lock-order
  inversion** and produces a report with both witness locations;
* **blocking I/O under a lock** — :func:`note_blocking_io` is called
  from the storage layer's fsync paths; holding any sanitized lock not
  created with ``allow_io=True`` across it is reported (no product
  lock is exempted: since group commit, every store fsync runs on the
  commit pipeline's leader with no lock held);
* **suspiciously long hold times** — a release after more than
  :func:`hold_threshold_ms` milliseconds is reported with the hold
  duration and the acquiring location.

Findings accumulate in an in-process registry exported by
:func:`report` (JSON-ready, ``repro.obs.locksan/v1``) and folded into
the unified metrics export as the ``lock_sanitizer`` provider section
of :func:`repro.obs.metrics.snapshot_metrics`.  The pytest session
hook in ``tests/conftest.py`` writes the report to
``SANITIZER_report.json`` when the env flag is set, which CI uploads
as an artifact.

Layering: this module sits at the very bottom of the stack — it
imports only the standard library, so ``repro.obs.metrics`` and
``repro.obs.trace`` can create their own locks through it without a
cycle (metrics registers the provider section itself, after its import
completes).  The public facade for tooling and tests is
:mod:`repro.analysis.concurrency.sanitizer`, which re-exports this
module's surface.

Enabling the sanitizer only affects locks created *afterwards*: locks
already handed out as plain primitives stay plain.  The env flag is
read at import time, so ``REPRO_SANITIZE=1 pytest`` wraps every lock
in the process.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Tuple

__all__ = [
    "SanitizedLock",
    "guarded_by",
    "hold_threshold_ms",
    "make_lock",
    "make_rlock",
    "note_blocking_io",
    "report",
    "reset",
    "sanitizer_enabled",
    "sanitizer_provider",
    "set_hold_threshold_ms",
    "set_sanitizer_enabled",
]

#: reports retained in memory before overflow counting kicks in
MAX_REPORTS = 200

_enabled = os.environ.get("REPRO_SANITIZE", "") not in ("", "0", "false")

_hold_threshold_ms = 50.0

#: per-thread acquisition stack of live (SanitizedLock, t_acquire,
#: "file:line") records — thread-confined, so no locking needed
_TLS = threading.local()

#: guards the shared findings state below.  Deliberately a *raw*
#: threading.Lock: the sanitizer must never instrument itself.
_STATE_LOCK = threading.Lock()

#: sanitized locks ever created, in creation order  # guarded-by: _STATE_LOCK
_LOCKS: List["SanitizedLock"] = []

#: observed acquired-before relation: (first, second) lock names ->
#: "file:line" witness of the second acquisition  # guarded-by: _STATE_LOCK
_EDGES: Dict[Tuple[str, str], str] = {}

#: detailed findings (bounded at MAX_REPORTS)  # guarded-by: _STATE_LOCK
_REPORTS: List[Dict[str, Any]] = []

#: tallies: kind -> count (counts keep growing past the report cap)
#: # guarded-by: _STATE_LOCK
_COUNTS: Dict[str, int] = {}


def set_sanitizer_enabled(enabled: bool) -> bool:
    """Flip the sanitizer switch; returns the previous state.

    Only locks created *after* enabling are sanitized — existing plain
    locks are not retrofitted.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def sanitizer_enabled() -> bool:
    return _enabled


def set_hold_threshold_ms(threshold: float) -> float:
    """Set the long-hold reporting threshold; returns the previous one."""
    global _hold_threshold_ms
    previous = _hold_threshold_ms
    _hold_threshold_ms = float(threshold)
    return previous


def hold_threshold_ms() -> float:
    return _hold_threshold_ms


def make_lock(name: str, allow_io: bool = False):
    """A named mutex: plain ``threading.Lock`` unless sanitizing.

    ``allow_io=True`` documents that this lock intentionally covers
    blocking I/O (fsync) and exempts it from the io-under-lock check.
    """
    if not _enabled:
        return threading.Lock()
    return SanitizedLock(name, threading.Lock(), reentrant=False,
                         allow_io=allow_io)


def make_rlock(name: str, allow_io: bool = False):
    """A named reentrant mutex: plain ``threading.RLock`` unless
    sanitizing."""
    if not _enabled:
        return threading.RLock()
    return SanitizedLock(name, threading.RLock(), reentrant=True,
                         allow_io=allow_io)


def guarded_by(*locknames: str):
    """Declare that the decorated function runs with the named lock(s)
    held by every caller.

    A no-op at runtime; the static concurrency pass
    (:mod:`repro.analysis.concurrency`) treats the locks as held for
    the whole body, and the lock-order graph adds edges from them to
    any lock acquired inside.  Lives here, at the bottom of the stack,
    so product code can annotate internal helpers without importing
    the lint engine.
    """

    def decorate(func):
        func.__guarded_by__ = locknames
        return func

    return decorate


def _held_stack() -> List[List[Any]]:
    stack = getattr(_TLS, "held", None)
    if stack is None:
        stack = []
        _TLS.held = stack
    return stack


def _caller_location(depth: int) -> str:
    """``file:line`` of the frame ``depth`` levels above the caller."""
    try:
        frame = sys._getframe(depth + 1)
    except ValueError:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _record(kind: str, detail: Dict[str, Any]) -> None:
    entry = dict(detail)
    entry["kind"] = kind
    entry["thread"] = threading.current_thread().name
    entry["stack"] = traceback.format_stack(limit=8)[:-2]
    with _STATE_LOCK:
        _COUNTS[kind] = _COUNTS.get(kind, 0) + 1
        if len(_REPORTS) < MAX_REPORTS:
            _REPORTS.append(entry)
        else:
            _COUNTS["dropped-reports"] = _COUNTS.get("dropped-reports", 0) + 1


class SanitizedLock:
    """A ``threading.Lock``/``RLock`` wrapper that feeds the sanitizer.

    Exposes the primitive's surface (``acquire``/``release``/context
    manager/``locked``) so it drops into any ``with self._lock:`` site
    unchanged.  Per-instance tallies (acquisitions, max hold) are
    mutated only while the lock itself is held, so they need no extra
    synchronization; cross-lock state goes through the module registry.
    """

    __slots__ = ("name", "allow_io", "reentrant", "acquisitions",
                 "max_hold_ms", "_inner", "_depth")

    def __init__(self, name: str, inner: Any, reentrant: bool,
                 allow_io: bool) -> None:
        self.name = name
        self.allow_io = allow_io
        self.reentrant = reentrant
        self.acquisitions = 0
        self.max_hold_ms = 0.0
        self._inner = inner
        self._depth = 0  # reentrant depth; only the holder mutates it
        with _STATE_LOCK:
            _LOCKS.append(self)

    # -- the lock surface --------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._on_acquired(_caller_location(1))
        return acquired

    def release(self) -> None:
        self._on_release()
        self._inner.release()

    def __enter__(self) -> "SanitizedLock":
        self._inner.acquire()
        self._on_acquired(_caller_location(1))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._on_release()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:
        return (f"SanitizedLock({self.name!r}, "
                f"acquisitions={self.acquisitions})")

    # -- bookkeeping -------------------------------------------------------

    def _on_acquired(self, location: str) -> None:
        if self.reentrant and self._depth:
            # reentrant re-acquire: already on this thread's stack;
            # recording another frame would fake self-ordering edges
            self._depth += 1
            return
        self._depth += 1
        self.acquisitions += 1
        held = _held_stack()
        for outer_entry in held:
            self._note_edge(outer_entry[0], outer_entry[2], location)
        held.append([self, time.perf_counter(), location])

    def _note_edge(self, outer: "SanitizedLock", outer_location: str,
                   location: str) -> None:
        edge = (outer.name, self.name)
        if edge not in _EDGES:  # lock-free fast path for known edges
            with _STATE_LOCK:
                _EDGES.setdefault(edge, location)
        reverse = _EDGES.get((self.name, outer.name))
        if reverse is not None and outer.name != self.name:
            _record("lock-order-inversion", {
                "first": outer.name,
                "second": self.name,
                "held_at": outer_location,
                "acquired_at": location,
                "reverse_witness": reverse,
            })

    def _on_release(self) -> None:
        if self.reentrant and self._depth > 1:
            self._depth -= 1
            return
        self._depth = 0
        held = _held_stack()
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry[0] is self:
                del held[index]
                held_ms = (time.perf_counter() - entry[1]) * 1000.0
                if held_ms > self.max_hold_ms:
                    self.max_hold_ms = held_ms
                if held_ms > _hold_threshold_ms:
                    _record("long-hold", {
                        "lock": self.name,
                        "held_ms": round(held_ms, 3),
                        "acquired_at": entry[2],
                    })
                return
        # release without a matching acquire record: acquire() raced a
        # mid-run enable, or the lock was handed across threads
        _record("unmatched-release", {"lock": self.name})


def note_blocking_io(kind: str) -> None:
    """Hook called from blocking-I/O sites (storage fsync paths).

    Reports every sanitized, non-exempt lock the current thread holds
    across the call.  A no-op when the sanitizer is disabled.
    """
    if not _enabled:
        return
    held = getattr(_TLS, "held", None)
    if not held:
        return
    location = _caller_location(1)
    for entry in held:
        lock = entry[0]
        if not lock.allow_io:
            _record("io-under-lock", {
                "lock": lock.name,
                "io": kind,
                "held_at": entry[2],
                "io_at": location,
            })


def report() -> Dict[str, Any]:
    """JSON-ready sanitizer findings (schema ``repro.obs.locksan/v1``)."""
    with _STATE_LOCK:
        locks = list(_LOCKS)
        edges = dict(_EDGES)
        findings = [dict(entry) for entry in _REPORTS]
        counts = dict(_COUNTS)
    per_lock: Dict[str, Dict[str, Any]] = {}
    for lock in locks:
        stats = per_lock.setdefault(lock.name, {"acquisitions": 0,
                                                "max_hold_ms": 0.0,
                                                "allow_io": lock.allow_io})
        stats["acquisitions"] += lock.acquisitions
        stats["max_hold_ms"] = round(
            max(stats["max_hold_ms"], lock.max_hold_ms), 3)
    return {
        "schema": "repro.obs.locksan/v1",
        "enabled": _enabled,
        "hold_threshold_ms": _hold_threshold_ms,
        "counts": counts,
        "locks": per_lock,
        "order_edges": [{"first": first, "second": second,
                         "witness": witness}
                        for (first, second), witness in sorted(edges.items())],
        "reports": findings,
    }


def sanitizer_provider() -> Dict[str, Any]:
    """The ``lock_sanitizer`` section of the unified metrics export.

    Kept to the summary tallies — the full per-finding detail stays in
    :func:`report` so metrics snapshots remain small.
    """
    if not _enabled:
        return {"enabled": False}
    with _STATE_LOCK:
        counts = dict(_COUNTS)
        tracked = len(_LOCKS)
        edge_count = len(_EDGES)
    return {"enabled": True, "counts": counts, "locks_tracked": tracked,
            "order_edges": edge_count}


def reset() -> None:
    """Drop all findings and per-lock tallies (test isolation hook)."""
    with _STATE_LOCK:
        _EDGES.clear()
        _REPORTS.clear()
        _COUNTS.clear()
        for lock in _LOCKS:
            lock.acquisitions = 0
            lock.max_hold_ms = 0.0
        _LOCKS.clear()
