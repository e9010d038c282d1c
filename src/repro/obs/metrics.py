"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

Every instrumented subsystem registers named instruments here; one
:func:`snapshot_metrics` call produces the complete JSON-ready picture
for ``BENCH_results.json``, the CI artifact, and ``tools/obs``.

Design constraints (they shape the API):

* **thread-safe** — tracing hooks fire from worker threads; registration
  uses a lock around its check-then-insert, increments take the
  instrument's lock (its own, or one its owner shares with it) so
  concurrent updates never lose counts.  Reads of an already-registered
  instrument take the lock-free dict fast path.
* **no wall-clock randomness** — histogram bucket boundaries are fixed
  at registration, so two runs of the same workload land the same
  distribution shape regardless of timer jitter.
* **no dependencies** — importable from the bottom of the stack
  (``repro.core``) without cycles.

Cache hit/miss/eviction tallies are ordinary counters here
(``<cache>.hits`` / ``.misses`` / ``.evictions``, registered by
:class:`repro.core.counters.BoundedCache` with the cache's own lock).
:func:`register_provider` attaches read-only snapshot sections from
modules that sit below this one (the lock sanitizer).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import locks as _locks

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "register_provider",
    "registered_metrics",
    "reset_metrics",
    "snapshot_metrics",
]

#: default histogram boundaries for millisecond durations (upper bounds;
#: a final +inf bucket is implicit).  Fixed here, never derived from
#: observed data — see the module docstring.
DURATION_MS_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0)

#: default boundaries for byte-size distributions
BYTES_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)


class Counter:
    """A monotonically increasing named count.

    ``lock`` lets an owner share one mutex with the counter, so it can
    bump the count with :meth:`add_held` inside a critical section it
    already holds (a cache probe stays one lock acquisition).
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: Any = None) -> None:
        self.name = name
        self._lock = (lock if lock is not None
                      else _locks.make_lock(f"obs.metrics.{name}"))
        self._value = 0  # guarded-by: _lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @_locks.guarded_by("_lock")
    def add_held(self, amount: int) -> None:
        """:meth:`inc` for a caller already holding this counter's lock."""
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A named value that can go up and down (e.g. resident bytes)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = _locks.make_lock(f"obs.metrics.{name}")
        self._value: float = 0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """A fixed-boundary histogram: counts per bucket plus sum/count.

    ``boundaries`` are inclusive upper bounds in ascending order; one
    extra overflow bucket catches everything above the last boundary.
    Boundaries are fixed at registration so exports are comparable
    across runs.
    """

    __slots__ = ("name", "boundaries", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} needs strictly ascending boundaries")
        self.name = name
        self.boundaries = bounds
        self._lock = _locks.make_lock(f"obs.metrics.{name}")
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock
        self._sum = 0.0    # guarded-by: _lock
        self._count = 0    # guarded-by: _lock

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def _bucket_index(self, value: float) -> int:
        # linear scan: boundary lists are short (<= ~16) and the scan
        # avoids importing bisect machinery on the hot path
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                return i
        return len(self.boundaries)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.boundaries) + 1)
            self._sum = 0.0
            self._count = 0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, observed = self._sum, self._count
        return {
            "type": "histogram",
            "boundaries": list(self.boundaries),
            "counts": counts,
            "sum": total,
            "count": observed,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"


_REGISTRY_LOCK = _locks.make_lock("obs.metrics.registry")

#: registered instruments  # guarded-by: _REGISTRY_LOCK
_INSTRUMENTS: Dict[str, Any] = {}

#: snapshot providers: name -> zero-arg callable returning a JSON-ready
#: dict merged into the export under that section name (the lock
#: sanitizer's summary, which cannot import this module)
# guarded-by: _REGISTRY_LOCK
_PROVIDERS: Dict[str, Callable[[], Dict[str, Any]]] = {}

_KINDS = {"counter": Counter, "gauge": Gauge}


def _get_or_create(name: str, factory: Callable[[], Any],
                   expected: type) -> Any:
    instrument = _INSTRUMENTS.get(name)  # lock-free read fast path
    if instrument is None:
        with _REGISTRY_LOCK:
            instrument = _INSTRUMENTS.get(name)  # re-check under the lock
            if instrument is None:
                instrument = factory()
                _INSTRUMENTS[name] = instrument
    if not isinstance(instrument, expected):
        raise ValueError(
            f"metric {name!r} already registered as "
            f"{type(instrument).__name__}, not {expected.__name__}")
    return instrument


def counter(name: str, lock: Any = None) -> Counter:
    """The counter registered under ``name`` (created on first use).

    ``lock`` only applies on first registration, like a histogram's
    boundaries; read the shared lock back from the returned counter.
    """
    return _get_or_create(name, lambda: Counter(name, lock), Counter)


def gauge(name: str) -> Gauge:
    """The gauge registered under ``name`` (created on first use)."""
    return _get_or_create(name, lambda: Gauge(name), Gauge)


def histogram(name: str,
              boundaries: Sequence[float] = DURATION_MS_BUCKETS) -> Histogram:
    """The histogram registered under ``name`` (created on first use).

    ``boundaries`` only applies on first registration; later callers get
    the existing instrument unchanged.
    """
    return _get_or_create(name, lambda: Histogram(name, boundaries),
                          Histogram)


def register_provider(name: str,
                      provider: Callable[[], Dict[str, Any]]) -> None:
    """Attach an external snapshot section to the unified export."""
    with _REGISTRY_LOCK:
        _PROVIDERS[name] = provider


def registered_metrics() -> Iterator[Any]:
    with _REGISTRY_LOCK:
        instruments = list(_INSTRUMENTS.values())
    return iter(instruments)


def snapshot_metrics() -> Dict[str, Any]:
    """One JSON-ready export of every instrument and provider section."""
    with _REGISTRY_LOCK:
        instruments = sorted(_INSTRUMENTS.items())
        providers = list(_PROVIDERS.items())
    out: Dict[str, Any] = {
        "schema": "repro.obs.metrics/v1",
        "metrics": {name: instrument.snapshot()
                    for name, instrument in instruments},
    }
    for name, provider in providers:
        out.setdefault("providers", {})[name] = provider()
    return out


def reset_metrics() -> None:
    """Zero every registered instrument (benchmark harness hook)."""
    for instrument in registered_metrics():
        instrument.reset()


def metric_deltas(before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-metric change between two :func:`snapshot_metrics` exports.

    Counters and histograms diff their totals; gauges report the new
    value.  Metrics with no change are omitted, which keeps EXPLAIN
    ANALYZE per-operator annotations readable.
    """
    deltas: Dict[str, Any] = {}
    old = before.get("metrics", {})
    for name, snap in after.get("metrics", {}).items():
        prior = old.get(name)
        if snap["type"] == "counter":
            delta = snap["value"] - (prior or {"value": 0})["value"]
            if delta:
                deltas[name] = delta
        elif snap["type"] == "gauge":
            if prior is None or snap["value"] != prior["value"]:
                deltas[name] = snap["value"]
        else:  # histogram: diff observation count and sum
            prior_count = (prior or {"count": 0})["count"]
            prior_sum = (prior or {"sum": 0.0})["sum"]
            if snap["count"] != prior_count:
                deltas[name] = {"count": snap["count"] - prior_count,
                                "sum": snap["sum"] - prior_sum}
    return deltas


def find_metric(name: str) -> Optional[Any]:
    """The live instrument registered under ``name``, or None."""
    return _INSTRUMENTS.get(name)


def metric_names() -> List[str]:
    with _REGISTRY_LOCK:
        return sorted(_INSTRUMENTS)


# the lock sanitizer's summary joins the unified export; registered
# here (not from repro.obs.locks) so the bottom-of-stack locks module
# keeps its zero-dependency layering
register_provider("lock_sanitizer", _locks.sanitizer_provider)
