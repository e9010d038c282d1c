"""Unit tests for the bounded, instrumented hot-path caches."""

import threading

import pytest

from repro.core.counters import (
    BoundedCache,
    cache_named,
    restore_caches_enabled,
    set_caches_enabled,
    snapshot_all,
)
from repro.obs.metrics import (
    counter,
    find_metric,
    reset_metrics,
    snapshot_metrics,
)


def _reset(cache):
    for tally in (cache.hits, cache.misses, cache.evictions):
        tally.reset()


class TestCounters:
    def test_registry_returns_same_record(self):
        """Two caches built under one name share counters and lock."""
        a = BoundedCache("test.same", maxsize=2)
        b = BoundedCache("test.same", maxsize=2)
        assert (a.hits, a.misses, a.evictions) == (
            b.hits, b.misses, b.evictions)
        assert a._lock is b._lock
        assert all(tally._lock is a._lock
                   for tally in (a.hits, a.misses, a.evictions))
        assert find_metric("test.same.hits") is a.hits

    def test_hit_rate_and_snapshot(self):
        cache = BoundedCache("test.rate", maxsize=2)
        _reset(cache)
        cache.put("a", 1)
        for key in ("a", "a", "a", "b"):
            cache.get(key)
        assert snapshot_all()["test.rate"] == {
            "hits": 3, "misses": 1, "evictions": 0, "hit_rate": 0.75}
        metrics = snapshot_metrics()["metrics"]
        assert metrics["test.rate.hits"] == {"type": "counter", "value": 3}
        assert metrics["test.rate.misses"]["value"] == 1

    def test_zero_lookups_hit_rate(self):
        cache = BoundedCache("test.zero", maxsize=2)
        _reset(cache)
        assert snapshot_all()["test.zero"]["hit_rate"] == 0.0

    def test_reset_metrics_zeroes_cache_tallies(self):
        cache = BoundedCache("test.reset", maxsize=1)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts a
        cache.get("a")
        cache.get("b")
        assert (cache.hits.value, cache.misses.value,
                cache.evictions.value) == (1, 1, 1)
        reset_metrics()
        assert snapshot_all()["test.reset"] == {
            "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
        for name, tallies in snapshot_all().items():
            assert (tallies["hits"], tallies["misses"],
                    tallies["evictions"]) == (0, 0, 0), name

    def test_snapshot_all_shape_for_the_benchmark_caches(self):
        """The shape the served benchmark's traced run reads."""
        import repro.sqljson.adapters  # noqa: F401
        import repro.sqljson.json_table  # noqa: F401
        snapshot = snapshot_all()
        for name in ("sqljson.oson_adapter", "sqljson.jsontable_rows"):
            assert set(snapshot[name]) == {
                "hits", "misses", "evictions", "hit_rate"}, name
            assert snapshot[name]["hits"] == cache_named(name).hits.value


class TestBoundedCache:
    def test_lru_eviction_counts(self):
        cache = BoundedCache("test.lru", maxsize=2)
        _reset(cache)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions.value == 1
        assert cache.misses.value == 1
        assert cache.hits.value == 3

    def test_disabled_is_passthrough(self):
        cache = BoundedCache("test.disabled", maxsize=4)
        cache.put("a", 1)
        cache.enabled = False
        assert cache.get("a") is None
        cache.put("b", 2)
        cache.enabled = True
        assert cache.get("b") is None  # the disabled put was dropped
        assert cache.get("a") == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            BoundedCache("test.bad", maxsize=0)

    def test_rejects_a_tally_registered_under_another_lock(self):
        counter("test.clash.misses")  # its own lock, not the cache's
        with pytest.raises(ValueError):
            BoundedCache("test.clash", maxsize=2)


class TestValueKeys:
    """Document images are cache keys by value (the cache that keyed
    them by ``id()`` is gone)."""

    def test_equal_bytes_share_one_entry(self):
        cache = BoundedCache("test.value", maxsize=4)
        key_a = b"same-bytes"
        # bytes(bytes) returns the same object in CPython; round-trip
        # through bytearray to get an equal-but-distinct key
        key_b = bytes(bytearray(key_a))
        assert key_b == key_a and key_b is not key_a
        cache.put(key_a, "A")
        assert cache.get(key_b) == "A"
        cache.put(key_b, "B")
        assert cache.get(key_a) == "B" and len(cache) == 1

    def test_entry_outlives_the_callers_key_object(self):
        cache = BoundedCache("test.pin", maxsize=2)
        key = bytes(bytearray(b"pinned"))
        cache.put(key, 1)
        del key
        # nothing depends on the original object's identity: a fresh
        # equal key finds the entry, and no recycled id() can alias it
        assert cache.get(bytes(bytearray(b"pinned"))) == 1
        assert cache.get(bytes(bytearray(b"pinneD"))) is None

    def test_discard_applies_at_next_put_or_len(self):
        cache = BoundedCache("test.discard", maxsize=8)
        for owner in (1, 2):
            for image in (b"x", b"y"):
                cache.put((owner, image), owner)
        cache.discard(lambda key: key[0] == 1)
        assert len(cache) == 2
        assert cache.get((1, b"x")) is None and cache.get((2, b"x")) == 2
        cache.discard(lambda key: key[0] == 2)
        cache.put((3, b"x"), 3)
        assert len(cache) == 1 and cache.evictions.value == 0


class TestEnableToggle:
    def test_cache_named_finds_live_caches(self):
        cache = BoundedCache("test.named", maxsize=2)
        assert cache_named("test.named") is cache

    def test_set_and_restore_selected(self):
        a = BoundedCache("test.toggle_a", maxsize=2)
        b = BoundedCache("test.toggle_b", maxsize=2)
        previous = set_caches_enabled(False, names=["test.toggle_a"])
        assert previous == {"test.toggle_a": True}
        assert a.enabled is False and b.enabled is True
        restore_caches_enabled(previous)
        assert a.enabled is True

    def test_hot_path_caches_are_registered(self):
        # importing the sqljson stack registers every hot-path cache
        import repro.sqljson.adapters  # noqa: F401
        import repro.sqljson.json_table  # noqa: F401
        for name in ("sqljson.path_parse", "sqljson.oson_adapter",
                     "sqljson.jsontable_rows", "oson.dictionary_intern"):
            assert cache_named(name) is not None, name


class TestThreadSafety:
    """Regression tests for the unsynchronized check-then-insert and
    read-modify-write races the registry and caches used to have.

    Before the fix, a concurrent registration could hand two threads
    distinct records for the same name (half the tallies vanished when
    the second registration won), ``hits += 1`` lost increments under
    interleaving, and concurrent ``get``/``put`` could corrupt the
    OrderedDict mid-``move_to_end``.  These hammers fail intermittently
    (lost counts, KeyError, wrong sizes) on the old code.
    """

    THREADS = 8
    ROUNDS = 2000

    def _hammer(self, work):
        errors = []

        def run():
            try:
                work()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    def test_registry_single_record_under_contention(self):
        seen = []
        lock = threading.Lock()

        def work():
            for i in range(self.ROUNDS):
                cache = BoundedCache(f"test.race_registry.{i % 16}", 2)
                with lock:
                    seen.append((cache.hits.name, cache.hits, cache.misses,
                                 cache.evictions, cache._lock))

        self._hammer(work)
        by_name = {}
        for name, *shared in seen:
            by_name.setdefault(name, set()).add(tuple(map(id, shared)))
        assert all(len(ids) == 1 for ids in by_name.values()), \
            "caches built under one name got distinct counters or locks"
        for _name, hits, misses, evictions, shared_lock in seen:
            assert hits._lock is misses._lock is evictions._lock \
                is shared_lock

    def test_counter_increments_are_not_lost(self):
        cache = BoundedCache("test.race_increments", maxsize=2)
        _reset(cache)

        def work():
            for _ in range(self.ROUNDS):
                with cache._lock:  # the cache's own in-lock path
                    cache.hits.add_held(1)
                cache.misses.inc()

        self._hammer(work)
        assert cache.hits.value == self.THREADS * self.ROUNDS
        assert cache.misses.value == self.THREADS * self.ROUNDS

    def test_bounded_cache_exact_tallies_and_bound(self):
        cache = BoundedCache("test.race_bounded", maxsize=8)
        _reset(cache)

        def work():
            for i in range(self.ROUNDS):
                cache.put(i % 4, i)
                assert cache.get(i % 4) is not None  # within maxsize
                cache.get("never-inserted")

        self._hammer(work)
        total = self.THREADS * self.ROUNDS
        assert cache.hits.value == total
        assert cache.misses.value == total
        assert len(cache) <= cache.maxsize

    def test_value_keyed_cache_survives_churn(self):
        cache = BoundedCache("test.race_value", maxsize=8)
        _reset(cache)

        def work():
            for i in range(self.ROUNDS):
                # a fresh equal-valued key per probe, as a snapshot or
                # shard scan hands in, with discards racing the puts
                key = (i % 3, bytes(bytearray(b"key-%d" % (i % 16))))
                cache.put(key, i)
                cache.get(key)
                if i % 64 == 0:
                    cache.discard(lambda key: key[0] == 2)

        self._hammer(work)
        assert len(cache) <= cache.maxsize
        lookups = cache.hits.value + cache.misses.value
        assert lookups == self.THREADS * self.ROUNDS
