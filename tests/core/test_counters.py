"""Unit tests for the cache instrumentation registry."""

import threading

import pytest

from repro.core.counters import (
    BoundedCache,
    cache_named,
    counters_for,
    restore_caches_enabled,
    set_caches_enabled,
    snapshot_all,
)


class TestCounters:
    def test_registry_returns_same_record(self):
        a = counters_for("test.same")
        b = counters_for("test.same")
        assert a is b

    def test_hit_rate_and_snapshot(self):
        record = counters_for("test.rate")
        record.reset()
        record.hits = 3
        record.misses = 1
        assert record.lookups == 4
        assert record.hit_rate() == 0.75
        snap = record.snapshot()
        assert snap["hits"] == 3 and snap["hit_rate"] == 0.75
        assert "test.rate" in snapshot_all()

    def test_zero_lookups_hit_rate(self):
        record = counters_for("test.zero")
        record.reset()
        assert record.hit_rate() == 0.0


class TestBoundedCache:
    def test_lru_eviction_counts(self):
        cache = BoundedCache("test.lru", maxsize=2)
        cache.counters.reset()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)           # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.counters.evictions == 1
        assert cache.counters.misses == 1
        assert cache.counters.hits == 3

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
        assert len(cache) == 1 and cache.counters.evictions == 0


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

    Before the fix, a concurrent ``counters_for`` could hand two threads
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
                record = counters_for(f"test.race_registry.{i % 16}")
                with lock:
                    seen.append(record)

        self._hammer(work)
        by_name = {}
        for record in seen:
            by_name.setdefault(record.name, set()).add(id(record))
        assert all(len(ids) == 1 for ids in by_name.values()), \
            "counters_for returned distinct records for one name"

    def test_counter_increments_are_not_lost(self):
        record = counters_for("test.race_increments")
        record.reset()

        def work():
            for _ in range(self.ROUNDS):
                record.record_hit()
                record.record_miss()

        self._hammer(work)
        assert record.hits == self.THREADS * self.ROUNDS
        assert record.misses == self.THREADS * self.ROUNDS

    def test_bounded_cache_exact_tallies_and_bound(self):
        cache = BoundedCache("test.race_bounded", maxsize=8)
        cache.counters.reset()

        def work():
            for i in range(self.ROUNDS):
                cache.put(i % 4, i)
                assert cache.get(i % 4) is not None  # within maxsize
                cache.get("never-inserted")

        self._hammer(work)
        total = self.THREADS * self.ROUNDS
        assert cache.counters.hits == total
        assert cache.counters.misses == total
        assert len(cache) <= cache.maxsize

    def test_value_keyed_cache_survives_churn(self):
        cache = BoundedCache("test.race_value", maxsize=8)
        cache.counters.reset()

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
        counters = cache.counters
        assert counters.hits + counters.misses == self.THREADS * self.ROUNDS
