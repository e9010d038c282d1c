"""Cache instrumentation: named hit/miss/eviction counters and bounded maps.

Every cache on the query hot path — the path-compilation memo, the OSON
adapter cache, the DMDV row cache, the interned dictionary-segment cache
— registers a :class:`CacheCounters` record here, so benchmarks and the
``BENCH_results.json`` emitter can report hit rates for one run without
reaching into each subsystem.
The whole registry also feeds the unified observability export: it is
registered as the ``cache_counters`` provider section of
:func:`repro.obs.metrics.snapshot_metrics`.

:class:`BoundedCache` is the shared bounded-LRU building block: an
insertion-capped ordered map that counts hits, misses and evictions and
can be disabled wholesale (the ablation benchmarks measure the pre-cache
baseline that way).  Keys compare by value, document images included:
CPython stores a ``bytes`` object's hash, so a resident image hashes
once and an equal copy (a snapshot's, a shard's) finds the same entry.

**Thread safety.**  Tracing hooks and future sharded executors probe
these caches from worker threads, so every mutation is serialized:

* registry lookups (``counters_for`` / ``cache_named``) take a lock-free
  dict-read fast path and fall into a double-checked locked insert only
  on first registration — the unsynchronized check-then-insert this code
  used to do could register two records for one name and silently drop
  half the tallies;
* counter increments go through locked ``record_*`` methods (a bare
  ``hits += 1`` is a read-modify-write the GIL may interleave);
* a cache and its counters record share one lock, and
  ``get``/``put``/``clear`` hold it for their whole critical section,
  tally included — an LRU probe mutates the map (``move_to_end``), so
  there is no safe lock-free read of the entries, and a probe costs one
  acquisition, not one for the map and one for the tally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs import locks as _locks
from repro.obs import metrics as _obs_metrics


class CacheCounters:
    """Hit/miss/eviction tally for one named cache.

    Increments must go through the ``record_*`` methods, which serialize
    under the record's lock; the attributes stay public for reads and
    for single-threaded test setup.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0        # guarded-by: _lock
        self.misses = 0      # guarded-by: _lock
        self.evictions = 0   # guarded-by: _lock
        self._lock = _locks.make_lock(f"core.counters.{name}")

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_eviction(self) -> None:
        with self._lock:
            self.evictions += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 4),
        }

    def __repr__(self) -> str:
        return (f"CacheCounters({self.name!r}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


#: guards first registration in both registries below; steady-state
#: lookups read the dicts without it
_REGISTRY_LOCK = _locks.make_lock("core.counters.registry")

#: global registry: cache name -> counters record  # guarded-by: _REGISTRY_LOCK
_REGISTRY: Dict[str, CacheCounters] = {}


def counters_for(name: str) -> CacheCounters:
    """Return (registering on first use) the counters record for ``name``."""
    record = _REGISTRY.get(name)  # lock-free fast path
    if record is None:
        with _REGISTRY_LOCK:
            record = _REGISTRY.get(name)  # double-checked under the lock
            if record is None:
                record = CacheCounters(name)
                _REGISTRY[name] = record
    return record


def registered() -> Iterator[CacheCounters]:
    with _REGISTRY_LOCK:
        records = list(_REGISTRY.values())
    return iter(records)


def snapshot_all() -> Dict[str, Dict[str, Any]]:
    """One JSON-ready dict of every registered cache's counters."""
    with _REGISTRY_LOCK:
        items = sorted(_REGISTRY.items())
    return {name: record.snapshot() for name, record in items}


def reset_all() -> None:
    for record in registered():
        record.reset()


#: cache name -> live :class:`BoundedCache`; lets
#: the ablation harness flip ``enabled`` on a subsystem's caches without
#: importing each owning module's private global
# guarded-by: _REGISTRY_LOCK
_CACHES: Dict[str, Any] = {}


def cache_named(name: str) -> Optional[Any]:
    """The live cache registered under ``name``, or None."""
    return _CACHES.get(name)


def set_caches_enabled(enabled: bool, names: Optional[Any] = None
                       ) -> Dict[str, bool]:
    """Enable/disable registered caches; returns the previous ``enabled``
    flags so callers can restore them (``names=None`` means all)."""
    with _REGISTRY_LOCK:
        selected = dict(_CACHES) if names is None else {
            name: _CACHES[name] for name in names if name in _CACHES}
    previous = {name: cache.enabled for name, cache in selected.items()}
    for cache in selected.values():
        cache.enabled = enabled
    return previous


def restore_caches_enabled(previous: Dict[str, bool]) -> None:
    for name, enabled in previous.items():
        cache = _CACHES.get(name)
        if cache is not None:
            cache.enabled = enabled


def _register_cache(name: str, cache: Any) -> None:
    with _REGISTRY_LOCK:
        _CACHES[name] = cache


class BoundedCache:
    """A bounded LRU map with registered counters.

    ``get`` returns ``None`` for a miss (values must therefore never be
    ``None``); ``put`` evicts the least recently used entry once
    ``maxsize`` is reached.  Setting ``enabled = False`` turns the cache
    into a pass-through (every get misses, puts are dropped) without
    unregistering its counters — the ablation benchmarks flip this to
    measure the uncached baseline.

    All entry access and its tally are serialized under one lock, the
    counters record's (see the module docstring).
    """

    __slots__ = ("counters", "maxsize", "enabled", "_entries", "_lock",
                 "_doomed")

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache {name} needs a positive maxsize")
        self.counters = counters_for(name)
        self.maxsize = maxsize
        self.enabled = True
        # guarded-by: _lock
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = self.counters._lock
        #: key predicates queued by :meth:`discard` (appended lock-free)
        self._doomed: List[Callable[[Any], bool]] = []
        _register_cache(name, self)

    def __len__(self) -> int:
        with self._lock:
            self._sweep()
            return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        counters = self.counters
        with self._lock:
            entry = self._entries.get(key) if self.enabled else None
            if entry is None:
                counters.misses += 1
                return None
            self._entries.move_to_end(key)
            counters.hits += 1
        return entry

    def put(self, key: Any, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._sweep()
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
                entries[key] = value
                return
            if len(entries) >= self.maxsize:
                entries.popitem(last=False)
                self.counters.evictions += 1
            entries[key] = value

    def discard(self, doomed: Callable[[Any], bool]) -> None:
        """Drop every entry whose key ``doomed`` accepts — at the next
        ``put`` or ``len``, not now: this is what a ``weakref.finalize``
        of a key's owner calls, and the collector may run a finalizer on
        a thread that is inside this cache's critical section."""
        self._doomed.append(doomed)

    @_locks.guarded_by("_lock")
    def _sweep(self) -> None:
        """Apply the queued :meth:`discard` predicates."""
        while self._doomed:
            doomed = self._doomed.pop()
            for key in [key for key in self._entries if doomed(key)]:
                del self._entries[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def _counters_provider() -> Dict[str, Dict[str, Any]]:
    return snapshot_all()


# unify the cache registry into the observability export: one
# snapshot_metrics() call reports engine metrics AND cache hit rates
_obs_metrics.register_provider("cache_counters", _counters_provider)
