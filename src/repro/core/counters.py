"""Bounded, instrumented caches for the query hot path.

Every cache on the query hot path — the path-compilation memo, the OSON
adapter cache, the DMDV row cache, the interned dictionary-segment cache
— is a :class:`BoundedCache`: an insertion-capped LRU map that counts
hits, misses and evictions and can be disabled wholesale (the ablation
benchmarks measure the pre-cache baseline that way).  Keys compare by
value, document images included: CPython stores a ``bytes`` object's
hash, so a resident image hashes once and an equal copy (a snapshot's,
a shard's) finds the same entry.

The tallies are ordinary :mod:`repro.obs.metrics` counters — a cache
named ``N`` owns ``N.hits``, ``N.misses`` and ``N.evictions`` — so they
appear in ``snapshot_metrics()``, ``metric_deltas`` and EXPLAIN ANALYZE
like every other metric, and ``reset_metrics()`` zeroes them.

**Thread safety.**  Tracing hooks and sharded executors probe these
caches from worker threads, so every mutation is serialized under one
lock per cache name, which the cache and its three counters share:
``get``/``put``/``clear`` hold it for their whole critical section,
tally included — an LRU probe mutates the map (``move_to_end``), so
there is no safe lock-free read of the entries, and a probe costs one
acquisition, not one for the map and one for the tally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from repro.obs import locks as _locks
from repro.obs import metrics as _metrics

#: guards registration in the cache map below; lookups read it without
_CACHES_LOCK = _locks.make_lock("core.counters.caches")

#: cache name -> live :class:`BoundedCache`; lets the ablation harness
#: flip ``enabled`` on a subsystem's caches without importing each
#: owning module's private global
# guarded-by: _CACHES_LOCK
_CACHES: Dict[str, "BoundedCache"] = {}


def cache_named(name: str) -> Optional["BoundedCache"]:
    """The live cache registered under ``name``, or None."""
    return _CACHES.get(name)


def _selected(names: Optional[Any]) -> Dict[str, "BoundedCache"]:
    with _CACHES_LOCK:
        if names is None:
            return dict(_CACHES)
        return {name: _CACHES[name] for name in names if name in _CACHES}


def set_caches_enabled(enabled: bool, names: Optional[Any] = None
                       ) -> Dict[str, bool]:
    """Enable/disable registered caches; returns the previous ``enabled``
    flags so callers can restore them (``names=None`` means all)."""
    selected = _selected(names)
    previous = {name: cache.enabled for name, cache in selected.items()}
    for cache in selected.values():
        cache.enabled = enabled
    return previous


def restore_caches_enabled(previous: Dict[str, bool]) -> None:
    for name, enabled in previous.items():
        cache = _CACHES.get(name)
        if cache is not None:
            cache.enabled = enabled


def snapshot_all() -> Dict[str, Dict[str, Any]]:
    """``{name: {"hits", "misses", "evictions", "hit_rate"}}`` for every
    registered cache, read from its metrics counters."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, cache in sorted(_selected(None).items()):
        hits, misses = cache.hits.value, cache.misses.value
        lookups = hits + misses
        out[name] = {
            "hits": hits,
            "misses": misses,
            "evictions": cache.evictions.value,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }
    return out


class BoundedCache:
    """A bounded LRU map that tallies into named metrics counters.

    ``get`` returns ``None`` for a miss (values must therefore never be
    ``None``); ``put`` evicts the least recently used entry once
    ``maxsize`` is reached.  Setting ``enabled = False`` turns the cache
    into a pass-through (every get misses, puts are dropped) — the
    ablation benchmarks flip this to measure the uncached baseline.

    All entry access and its tally are serialized under one lock, shared
    with the ``hits``/``misses``/``evictions`` counters: two caches
    built under one name share counters and lock (see the module
    docstring).
    """

    __slots__ = ("hits", "misses", "evictions", "maxsize", "enabled",
                 "_entries", "_lock", "_doomed")

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache {name} needs a positive maxsize")
        # the first registration of ``N.hits`` fixes the name's lock;
        # the other two counters are registered with whichever won
        self.hits = _metrics.counter(
            f"{name}.hits", lock=_locks.make_lock(f"core.counters.{name}"))
        self._lock = self.hits._lock
        self.misses = _metrics.counter(f"{name}.misses", lock=self._lock)
        self.evictions = _metrics.counter(f"{name}.evictions",
                                          lock=self._lock)
        if (self.misses._lock is not self._lock
                or self.evictions._lock is not self._lock):
            raise ValueError(f"cache {name}: a counter was registered "
                             f"before the cache, under its own lock")
        self.maxsize = maxsize
        self.enabled = True
        # guarded-by: _lock
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        #: key predicates queued by :meth:`discard` (appended lock-free)
        self._doomed: List[Callable[[Any], bool]] = []
        with _CACHES_LOCK:
            _CACHES[name] = self

    def __len__(self) -> int:
        with self._lock:
            self._sweep()
            return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key) if self.enabled else None
            if entry is None:
                self.misses.add_held(1)
                return None
            self._entries.move_to_end(key)
            self.hits.add_held(1)
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
                self.evictions.add_held(1)
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
