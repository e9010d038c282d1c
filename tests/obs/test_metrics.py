"""Unit tests for the metrics registry: instruments, snapshots, deltas,
providers, and thread safety under contention."""

import threading

import pytest

from repro.obs.metrics import (
    BYTES_BUCKETS,
    DURATION_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    counter,
    find_metric,
    gauge,
    histogram,
    metric_deltas,
    metric_names,
    register_provider,
    snapshot_metrics,
)
from repro.obs.schema import validate_metrics_export


class TestInstruments:
    def test_counter_accumulates(self):
        c = counter("t.counter")
        c.reset()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_counter_lock_applies_on_first_registration_only(self):
        shared = threading.Lock()
        c = counter("t.counter_shared", lock=shared)
        assert c._lock is shared
        assert counter("t.counter_shared", lock=threading.Lock()) is c
        assert c._lock is shared
        c.reset()
        with shared:
            c.add_held(2)
        assert c.value == 2

    def test_gauge_sets_and_adds(self):
        g = gauge("t.gauge")
        g.set(10)
        g.add(-3)
        assert g.value == 7
        assert g.snapshot()["type"] == "gauge"

    def test_histogram_buckets(self):
        h = histogram("t.hist", boundaries=(1.0, 10.0))
        h.reset()
        for value in (0.5, 0.9, 5, 100):
            h.observe(value)
        snap = h.snapshot()
        assert snap["counts"] == [2, 1, 1]  # <=1, <=10, overflow
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.4)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("t.bad", boundaries=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t.empty", boundaries=())

    def test_default_boundaries_are_fixed_constants(self):
        assert list(DURATION_MS_BUCKETS) == sorted(DURATION_MS_BUCKETS)
        assert list(BYTES_BUCKETS) == sorted(BYTES_BUCKETS)


class TestRegistry:
    def test_same_name_same_instrument(self):
        assert counter("t.same") is counter("t.same")
        assert histogram("t.same_h") is histogram("t.same_h")

    def test_kind_mismatch_raises(self):
        counter("t.kind")
        with pytest.raises(ValueError):
            gauge("t.kind")

    def test_find_and_names(self):
        c = counter("t.findable")
        assert find_metric("t.findable") is c
        assert "t.findable" in metric_names()
        assert find_metric("t.missing") is None

    def test_registration_race_yields_one_instrument(self):
        seen = []
        lock = threading.Lock()

        def work():
            for i in range(500):
                c = counter(f"t.race.{i % 8}")
                with lock:
                    seen.append(c)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {}
        for c in seen:
            by_name.setdefault(c.name, set()).add(id(c))
        assert all(len(ids) == 1 for ids in by_name.values())

    def test_concurrent_increments_not_lost(self):
        c = counter("t.contended")
        c.reset()
        h = histogram("t.contended_h", boundaries=(10.0,))
        h.reset()

        def work():
            for _ in range(2000):
                c.inc()
                h.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 16000
        assert h.count == 16000


class TestSnapshotAndDeltas:
    def test_snapshot_validates_against_schema(self):
        counter("t.snap").inc()
        gauge("t.snap_g").set(1.5)
        histogram("t.snap_h").observe(0.3)
        payload = snapshot_metrics()
        assert payload["schema"] == "repro.obs.metrics/v1"
        assert not validate_metrics_export(payload)

    def test_deltas_diff_counters_and_histograms(self):
        c = counter("t.delta_c")
        h = histogram("t.delta_h", boundaries=(1.0,))
        g = gauge("t.delta_g")
        before = snapshot_metrics()
        c.inc(3)
        h.observe(0.5)
        g.set(g.value)  # unchanged gauge
        after = snapshot_metrics()
        deltas = metric_deltas(before, after)
        assert deltas["t.delta_c"] == 3
        assert deltas["t.delta_h"]["count"] == 1
        assert "t.delta_g" not in deltas

    def test_deltas_omit_unchanged(self):
        counter("t.delta_idle")
        snap = snapshot_metrics()
        assert metric_deltas(snap, snap) == {}

    def test_new_metric_appears_in_delta(self):
        before = snapshot_metrics()
        counter("t.delta_new").inc(2)
        deltas = metric_deltas(before, snapshot_metrics())
        assert deltas["t.delta_new"] == 2


class TestProviders:
    def test_provider_section_included_and_valid(self):
        register_provider("test_section", lambda: {"k": {"v": 1}})
        payload = snapshot_metrics()
        assert payload["providers"]["test_section"] == {"k": {"v": 1}}
        assert not validate_metrics_export(payload)

    def test_cache_tallies_are_metrics_not_a_provider_section(self):
        from repro.core.counters import BoundedCache

        cache = BoundedCache("t.provider_cache", maxsize=2)
        cache.put("a", 1)
        before = snapshot_metrics()
        cache.get("a")
        cache.get("b")
        payload = snapshot_metrics()
        assert metric_deltas(before, payload) == {
            "t.provider_cache.hits": 1, "t.provider_cache.misses": 1}
        assert "t.provider_cache.evictions" in payload["metrics"]
        assert not any("t.provider_cache" in section
                       for section in payload["providers"].values())
        assert "lock_sanitizer" in payload["providers"]
