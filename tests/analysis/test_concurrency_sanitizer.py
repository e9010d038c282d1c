"""Runtime lock sanitizer: factory, findings, report schema, metrics.

Exercises the known-bad runtime fixture
(``tests/analysis/fixtures/concurrency/bad_io_hold.py``) and asserts
the sanitizer reports each class of finding.  The sanitizer is global
state, so every test runs inside the enable/reset fixture below and
restores the previous switch on the way out.
"""

import threading

import pytest

from repro.analysis.concurrency import sanitizer
from repro.obs import locks as obs_locks
from repro.obs.metrics import snapshot_metrics
from tests.analysis.fixtures.concurrency import bad_io_hold


@pytest.fixture
def sanitized():
    previous = sanitizer.set_sanitizer_enabled(True)
    previous_hold = sanitizer.set_hold_threshold_ms(50.0)
    sanitizer.reset()
    yield
    sanitizer.reset()
    sanitizer.set_hold_threshold_ms(previous_hold)
    sanitizer.set_sanitizer_enabled(previous)


def _kinds():
    return [entry["kind"] for entry in sanitizer.report()["reports"]]


class TestFactory:
    def test_disabled_factory_returns_plain_primitives(self):
        previous = sanitizer.set_sanitizer_enabled(False)
        try:
            lock = sanitizer.make_lock("test.plain")
            assert not isinstance(lock, sanitizer.SanitizedLock)
            assert isinstance(lock, type(threading.Lock()))
        finally:
            sanitizer.set_sanitizer_enabled(previous)

    def test_enabled_factory_wraps_and_names(self, sanitized):
        lock = sanitizer.make_lock("test.wrapped")
        assert isinstance(lock, sanitizer.SanitizedLock)
        assert lock.name == "test.wrapped"
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert lock.acquisitions == 1

    def test_facade_is_the_obs_locks_module(self):
        assert sanitizer.make_lock is obs_locks.make_lock
        assert sanitizer.report is obs_locks.report

    def test_rlock_reentry_counts_once(self, sanitized):
        lock = sanitizer.make_rlock("test.rlock")
        with lock:
            with lock:
                pass
        assert lock.acquisitions == 1
        assert _kinds() == []


class TestKnownBadFixtures:
    def test_fsync_under_lock_is_reported(self, sanitized):
        bad_io_hold.fsync_under_lock()
        report = sanitizer.report()
        assert report["counts"] == {"io-under-lock": 1}
        (finding,) = report["reports"]
        assert finding["kind"] == "io-under-lock"
        assert finding["lock"] == "fixture.io_hold"
        assert finding["io"] == "fsync"
        assert "bad_io_hold.py" in finding["held_at"]

    def test_fsync_under_exempt_lock_is_not_reported(self, sanitized):
        bad_io_hold.fsync_under_exempt_lock()
        assert _kinds() == []
        report = sanitizer.report()
        assert report["locks"]["fixture.io_hold_exempt"]["allow_io"]

    def test_lock_order_inversion_is_reported(self, sanitized):
        bad_io_hold.inverted_runtime_order()
        report = sanitizer.report()
        assert report["counts"] == {"lock-order-inversion": 1}
        (finding,) = report["reports"]
        assert finding["first"] == "fixture.order.second"
        assert finding["second"] == "fixture.order.first"
        assert "bad_io_hold.py" in finding["reverse_witness"]

    def test_long_hold_is_reported(self, sanitized):
        sanitizer.set_hold_threshold_ms(1.0)
        bad_io_hold.slow_hold(0.02)
        report = sanitizer.report()
        assert [e["kind"] for e in report["reports"]] == ["long-hold"]
        (finding,) = report["reports"]
        assert finding["lock"] == "fixture.slow_hold"
        assert finding["held_ms"] >= 1.0
        assert report["locks"]["fixture.slow_hold"]["max_hold_ms"] >= 1.0


class TestReport:
    def test_schema_and_shape(self, sanitized):
        lock = sanitizer.make_lock("test.shape")
        with lock:
            pass
        report = sanitizer.report()
        assert report["schema"] == "repro.obs.locksan/v1"
        assert report["enabled"] is True
        assert report["hold_threshold_ms"] == 50.0
        assert report["locks"]["test.shape"]["acquisitions"] == 1
        assert report["order_edges"] == []
        assert report["reports"] == []

    def test_cross_thread_inversion_detected(self, sanitized):
        # thread 1 takes a->b, thread 2 takes b->a: the edge store is
        # global, so the second thread sees the reverse edge
        a = sanitizer.make_lock("test.cross.a")
        b = sanitizer.make_lock("test.cross.b")

        def forward():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        with b:
            with a:
                pass
        assert _kinds() == ["lock-order-inversion"]

    def test_report_cap_counts_overflow(self, sanitized):
        lock = sanitizer.make_lock("test.cap")
        sanitizer.set_hold_threshold_ms(0.0)
        for _ in range(sanitizer.MAX_REPORTS + 5):
            with lock:
                pass
        report = sanitizer.report()
        assert len(report["reports"]) == sanitizer.MAX_REPORTS
        assert report["counts"]["dropped-reports"] == 5
        assert report["counts"]["long-hold"] == sanitizer.MAX_REPORTS + 5

    def test_sanitizer_provider_in_metrics_export(self, sanitized):
        lock = sanitizer.make_lock("test.provider")
        with lock:
            pass
        section = snapshot_metrics()["providers"]["lock_sanitizer"]
        assert section["enabled"] is True
        assert section["locks_tracked"] >= 1
        assert "counts" in section

    def test_provider_disabled_shape(self):
        previous = sanitizer.set_sanitizer_enabled(False)
        try:
            section = snapshot_metrics()["providers"]["lock_sanitizer"]
            assert section == {"enabled": False}
        finally:
            sanitizer.set_sanitizer_enabled(previous)


class TestStoreIoDiscipline:
    """Regression for the deleted ``allow_io=True`` exemption: since
    group commit moved the WAL fsync onto the pipeline leader, the
    store must hold NO lock across I/O — the sanitizer watches a full
    write/checkpoint/compact/serve workload and must stay silent."""

    def test_store_workload_performs_no_io_under_any_lock(self, sanitized):
        from repro.storage import CollectionStore, MemoryFileSystem
        fs = MemoryFileSystem()
        store = CollectionStore.create("db", fs=fs)
        store.insert({"a": 1})
        store.insert_many([{"b": i} for i in range(3)])
        store.checkpoint()
        store.update(0, {"a": 2})
        store.compact()
        store.delete(0)
        store.close()
        report = sanitizer.report()
        held_io = [entry for entry in report["reports"]
                   if entry["kind"] == "io-under-lock"]
        assert held_io == [], held_io
        # the store lock is tracked and is NOT exempt anymore
        assert "storage.store" in report["locks"]
        assert not report["locks"]["storage.store"]["allow_io"]

    def test_threaded_commit_pipeline_stays_clean(self, sanitized):
        import threading as _threading
        from repro.storage import CollectionStore, MemoryFileSystem
        fs = MemoryFileSystem()
        store = CollectionStore.create("db", fs=fs)
        workers = [_threading.Thread(
            target=lambda base=base: [store.insert({"w": base + i})
                                      for i in range(5)])
            for base in (0, 100)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        store.checkpoint()
        store.close()
        report = sanitizer.report()
        assert [entry for entry in report["reports"]
                if entry["kind"] == "io-under-lock"] == []
        assert not report["locks"]["storage.commit"]["allow_io"]
