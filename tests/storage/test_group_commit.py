"""Group-commit pipeline semantics: batching, batch limits, pause/
resume, poisoning, and the WAL batch-marker byte layout."""

import errno
import threading
import time

import posixpath

import pytest

from repro.errors import StorageError
from repro.storage import CollectionStore, MemoryFileSystem
from repro.storage.files import _MemFileHandle
from repro.storage.faults import CRASH, FaultPlan, FaultyFileSystem, \
    SimulatedCrash
from repro.storage.framing import scan_frames
from repro.storage.log import OP_BATCH, decode_record

DIR = "db"


def wal_records(fs, name="log-00000001.log"):
    """Decoded records of one log file's durable bytes."""
    data = fs.durable_bytes(posixpath.join(DIR, name))
    out = []
    for frame in scan_frames(data).frames:
        record = decode_record(frame.payload)
        if record is not None:
            out.append(record)
    return out


def batch_markers(fs, name="log-00000001.log"):
    return [r for r in wal_records(fs, name) if r.op == OP_BATCH]


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.001)


class TestByteLayout:
    def test_single_op_commits_write_no_batch_marker(self):
        """One-op commits keep the exact pre-group-commit frame layout,
        so old stores read new WALs and the fault sweep's coordinates
        stay stable."""
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        store.insert({"a": 1})
        store.insert({"a": 2})
        store.close()
        assert batch_markers(fs) == []

    def test_insert_many_writes_one_marker_with_op_count(self):
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        store.insert_many([{"i": i} for i in range(4)])
        store.close()
        markers = batch_markers(fs)
        assert len(markers) == 1
        assert markers[0].count == 4


class TestConcurrentWaiters:
    def test_staged_commits_share_one_batch(self):
        """Commits staged while the pipeline is paused land as ONE
        group-commit batch (one marker, one fsync) when it resumes."""
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        pipeline = store.pipeline
        pipeline.pause()
        threads = [threading.Thread(target=store.insert, args=({"t": i},))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        wait_until(lambda: len(pipeline._pending) == 3)
        pipeline.resume()
        for thread in threads:
            thread.join()
        store.close()
        markers = batch_markers(fs)
        assert len(markers) == 1
        assert markers[0].count == 3
        # and all three documents are durable
        again = CollectionStore.open(DIR, fs=fs)
        assert len(again) == 3
        again.close()

    def test_batch_limit_one_restores_per_commit_fsync(self):
        """``set_batch_limit(1)`` is the per-commit-fsync baseline the
        concurrency benchmark compares against: staged commits drain
        one at a time, no markers appear."""
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        pipeline = store.pipeline
        pipeline.set_batch_limit(1)
        pipeline.pause()
        threads = [threading.Thread(target=store.insert, args=({"t": i},))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        wait_until(lambda: len(pipeline._pending) == 3)
        pipeline.resume()
        for thread in threads:
            thread.join()
        store.close()
        assert batch_markers(fs) == []
        again = CollectionStore.open(DIR, fs=fs)
        assert len(again) == 3
        again.close()

    def test_ack_implies_published_snapshot(self):
        """A returned insert is visible to a snapshot taken immediately
        after — publish happens before the acknowledgement."""
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        doc_id = store.insert({"k": "v"})
        snapshot = store.snapshot()
        assert snapshot.get(doc_id) == {"k": "v"}
        store.close()


class TestAsyncSplit:
    def test_insert_async_defers_visibility_to_wait(self):
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        pipeline = store.pipeline
        pipeline.pause()
        doc_id, handle = store.insert_async({"pending": True})
        # staged but unacknowledged: published snapshot can't see it
        assert doc_id not in store.snapshot()
        pipeline.resume()
        pipeline.wait(handle)
        assert store.snapshot().get(doc_id) == {"pending": True}
        store.close()


class TestPauseResume:
    def test_replace_wal_requires_pause(self):
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        with pytest.raises(StorageError):
            store.pipeline.replace_wal(object())
        store.close()

    def test_checkpoint_during_threaded_commits(self):
        """Checkpoints interleave safely with concurrent writers whose
        waiters lead the group commits; nothing acknowledged is lost."""
        fs = MemoryFileSystem()
        store = CollectionStore.create(DIR, fs=fs)
        inserted = []

        def writer(base):
            for i in range(10):
                inserted.append(store.insert({"w": base + i}))

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in (0, 100)]
        for thread in threads:
            thread.start()
        store.checkpoint()
        for thread in threads:
            thread.join()
        store.checkpoint()
        store.close()
        again = CollectionStore.open(DIR, fs=fs)
        assert set(again.doc_ids()) == set(inserted)
        again.close()


class TestPoisoning:
    def crash_store(self):
        """A store whose next WAL write simulates power loss."""
        recorder = FaultyFileSystem()
        CollectionStore.create(DIR, fs=recorder).insert({"seed": 1})
        # find the op index of the insert's WAL write: last write boundary
        writes = [op for op in recorder.op_log if op.op == "write"]
        plan = FaultPlan(crash_at=writes[-1].index, mode=CRASH)
        fs = FaultyFileSystem(plan=plan)
        store = CollectionStore.create(DIR, fs=fs)
        return store

    def test_crash_poisons_pipeline_and_fails_later_commits(self):
        store = self.crash_store()
        with pytest.raises(SimulatedCrash):
            store.insert({"doomed": True})
        assert store.pipeline.failed is not None
        with pytest.raises(StorageError):
            store.insert({"after": True})
        # reads at the last published snapshot still work
        assert len(store) == 0
        store.close()  # must not raise

    def test_io_error_reaches_the_leader_typed(self, monkeypatch):
        """An ``OSError`` out of the batch I/O is a ``StorageError`` for
        the waiter that led the batch too, not only for followers."""
        store = CollectionStore.create(DIR, fs=MemoryFileSystem())

        def failing_sync(handle):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(_MemFileHandle, "sync", failing_sync)
        with pytest.raises(StorageError, match="group commit failed") as err:
            store.insert({"doomed": True})
        assert isinstance(err.value.__cause__, OSError)
        with pytest.raises(StorageError, match="commit pipeline failed"):
            store.insert({"after": True})
        store.close()

    def test_poisoned_batch_fails_every_waiter(self):
        """Two commits staged behind a pause share one batch; its crash
        reaches the waiter that leads it raw, and the other waiter in
        the batch gets a typed ``StorageError``."""
        store = self.crash_store()
        pipeline = store.pipeline
        pipeline.pause()
        outcomes = {}

        def insert(name):
            try:
                store.insert({"doomed": name})
            except BaseException as exc:  # noqa: BLE001 - recorded for the asserts
                outcomes[name] = exc

        threads = [threading.Thread(target=insert, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        wait_until(lambda: len(pipeline._pending) == 2)
        pipeline.resume()
        for thread in threads:
            thread.join()
        kinds = sorted(type(exc).__name__ for exc in outcomes.values())
        assert kinds == ["SimulatedCrash", "StorageError"]
        follower = next(exc for exc in outcomes.values()
                        if isinstance(exc, StorageError))
        assert "group commit failed" in str(follower)
        assert isinstance(follower.__cause__, SimulatedCrash)
        with pytest.raises(StorageError):
            store.insert({"after": True})
        store.close()
