"""The group-commit pipeline: many logical commits, one fsync.

Before this module, every ``CollectionStore`` mutation paid its own
``flush + fsync`` *while holding the store lock* — correct, but the
durability stall serialized every caller and the lock carried a
documented ``allow_io=True`` sanitizer exemption.  The pipeline moves
the WAL entirely out of the store lock:

* writers **stage** a :class:`LogicalCommit` (already applied to the
  store's in-memory writer state and encoded into log-record payloads)
  and then wait for it to become durable;
* one **leader** at a time drains everything staged, appends a batch
  marker (:data:`repro.storage.log.OP_BATCH`, only when the batch holds
  more than one operation) plus every record frame, and issues a single
  ``flush + fsync`` — with **no lock held across the I/O**;
* after the fsync returns the leader *publishes* (the store swaps in a
  new immutable snapshot covering the whole batch) and only then
  acknowledges the waiting writers — the classic group-commit ack
  point: an acknowledged commit is durable, an unacknowledged one may
  be lost, and a crash inside a batch durably keeps at most a prefix
  of it (all-or-prefix).

There is one driving mode: the first waiter to find the pipeline idle
elects itself leader and commits the batch on its own thread.  A
single-threaded caller therefore behaves exactly like a per-commit-fsync
store — same I/O boundaries in the same order, which is what keeps the
deterministic fault sweep meaningful — while concurrent waiters form
batches naturally: whoever arrives while a batch is in flight stages
behind it, and the next idle waiter leads everything staged so far.
The serving layer's write workers are such waiters, so a served batch
is led on a write-lane worker thread with no product lock held.

Failure contract, one rule for every waiter: an ``Exception`` out of the
batch I/O (a real ``OSError``) *poisons* the pipeline — the in-memory
writer state can no longer be trusted to match the log — and every
commit in that batch, the leader's included, raises
:class:`~repro.errors.StorageError` ("group commit failed") chained from
it; every later commit raises ``StorageError`` ("commit pipeline
failed").  A ``BaseException`` that is not an ``Exception`` (the fault
harness's ``SimulatedCrash``) poisons the pipeline the same way but
reaches the leader raw, so the harness sees the crash it injected.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import StorageError
from repro.obs import locks as _locks
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.storage import log as logfmt
from repro.storage.log import LogWriter

#: group-commit observability: how many logical commits and operation
#: records each fsync covered, plus the staged-to-acknowledged latency
_BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_GROUP_COMMITS = _metrics.counter("storage.commit.groups")
_BATCH_COMMITS = _metrics.histogram("storage.commit.batch_commits",
                                    boundaries=_BATCH_SIZE_BUCKETS)
_BATCH_OPS = _metrics.histogram("storage.commit.batch_ops",
                                boundaries=_BATCH_SIZE_BUCKETS)
_COMMIT_WAIT_MS = _metrics.histogram("storage.commit.wait_ms")


class LogicalCommit:
    """One writer's staged unit of durability.

    ``records`` are the encoded log-record payloads to frame into the
    WAL (in order); ``ops`` mirror them as ``(op, doc_id, image)``
    tuples for snapshot publication; ``documents`` are the decoded
    insert/update documents, carried so the store's DataGuide only
    learns paths once they are durable; ``next_doc_id`` is the id
    allocation floor after this commit, carried so the published
    snapshot can advance it atomically with the documents.
    """

    __slots__ = ("records", "ops", "documents", "next_doc_id",
                 "done", "error")

    def __init__(self, records: List[bytes],
                 ops: List[Tuple[int, int, bytes]],
                 next_doc_id: int,
                 documents: Tuple[Any, ...] = ()) -> None:
        self.records = records
        self.ops = ops
        self.documents = documents
        self.next_doc_id = next_doc_id
        self.done = False                       # guarded-by: _cond
        self.error: Optional[BaseException] = None  # guarded-by: _cond


class CommitPipeline:
    """Batches :class:`LogicalCommit` objects into single-fsync groups.

    The pipeline owns the WAL writer exclusively: between ``submit``
    and acknowledgement only the elected leader touches it, and admin
    operations (checkpoint/compact/close) take the pipeline's *pause*
    — drain staged commits, block new leaders — before rotating it.
    """

    def __init__(self, wal: LogWriter,
                 on_durable: Callable[[List[LogicalCommit]], None]) -> None:
        self._cond = threading.Condition(_locks.make_lock("storage.commit"))
        self._wal = wal                  # guarded-by: _cond (rebind only;
        # the elected leader reads it lock-free while committing)
        self._on_durable = on_durable
        self._pending: List[LogicalCommit] = []  # guarded-by: _cond
        self._committing = False         # guarded-by: _cond
        self._paused = False             # guarded-by: _cond
        self._stopped = False            # guarded-by: _cond
        self._failed: Optional[BaseException] = None  # guarded-by: _cond
        self._batch_limit: Optional[int] = None  # guarded-by: _cond

    # -- configuration -----------------------------------------------------

    def set_batch_limit(self, limit: Optional[int]) -> Optional[int]:
        """Cap commits per fsync (``1`` reproduces the per-commit-fsync
        baseline for benchmarking); returns the previous cap."""
        if limit is not None and limit < 1:
            raise StorageError(f"batch limit must be positive, got {limit}")
        with self._cond:
            previous = self._batch_limit
            self._batch_limit = limit
        return previous

    @property
    def wal(self) -> LogWriter:
        return self._wal

    # -- the writer path ---------------------------------------------------

    def submit(self, commit: LogicalCommit) -> None:
        """Stage one logical commit (does not wait for durability).

        Callers stage under the store lock — staging is pure list work,
        so the nesting ``store lock -> pipeline lock`` never covers I/O.
        """
        with self._cond:
            self._refuse_if_unusable()
            self._pending.append(commit)
            self._cond.notify_all()

    def wait(self, commit: LogicalCommit) -> None:
        """Block until ``commit`` is durable (the acknowledgement).

        The waiter elects itself leader whenever the pipeline is idle, so
        a single-threaded caller commits its own batch immediately and
        concurrent callers piggyback on whoever got there first.  A
        leader whose batch I/O fails reports its own commit like every
        other waiter in the batch: ``StorageError`` chained from the
        failure (a ``SimulatedCrash`` propagates raw).
        """
        started = _trace.monotonic()
        while True:
            lead_now = False
            with self._cond:
                if commit.done:
                    break
                if self._failed is not None or self._stopped:
                    self._raise_pipeline_down()
                if (not self._committing and not self._paused
                        and self._pending):
                    lead_now = True
                else:
                    self._cond.wait()
                    if commit.done:
                        break
                    continue
            if lead_now:
                try:
                    self._lead()
                except Exception as exc:  # lint: ignore[broad-except] the batch I/O failure that poisoned the pipeline is reported as StorageError on the next pass, exactly as to the followers; anything else propagates
                    if exc is not self._failed:
                        raise
        if commit.error is not None:
            raise StorageError(
                f"group commit failed: {commit.error}") from commit.error
        _COMMIT_WAIT_MS.observe((_trace.monotonic() - started) * 1000.0)

    # -- leader election and batch I/O -------------------------------------

    def _lead(self, even_if_paused: bool = False) -> bool:
        """Try to become leader and commit one batch; returns whether a
        batch was committed.  Called with **no** locks held."""
        with self._cond:
            if (self._committing or not self._pending
                    or (self._paused and not even_if_paused)
                    or self._failed is not None):
                return False
            limit = self._batch_limit
            if limit is None or limit >= len(self._pending):
                batch = self._pending
                self._pending = []
            else:
                batch = self._pending[:limit]
                self._pending = self._pending[limit:]
            self._committing = True
        try:
            self._write_batch(batch)
        except BaseException as exc:  # lint: ignore[broad-except] poison-then-propagate: wait turns an Exception into StorageError, and SimulatedCrash (BaseException) must reach the fault harness after waiters are failed
            with self._cond:
                self._failed = exc
                self._committing = False
                for entry in batch:
                    entry.error = exc
                    entry.done = True
                self._cond.notify_all()
            raise
        self._on_durable(batch)
        with self._cond:
            self._committing = False
            for entry in batch:
                entry.done = True
            self._cond.notify_all()
        return True

    def _write_batch(self, batch: List[LogicalCommit]) -> None:
        """Append the whole batch and fsync once — no locks held."""
        wal = self._wal
        total_ops = sum(len(entry.records) for entry in batch)
        with _trace.span("commit.group", log=wal.path,
                         commits=len(batch), ops=total_ops):
            if total_ops > 1:
                wal.append(logfmt.encode_batch_marker(total_ops))
            for entry in batch:
                for payload in entry.records:
                    wal.append(payload)
            wal.commit()
        _GROUP_COMMITS.inc()
        _BATCH_COMMITS.observe(len(batch))
        _BATCH_OPS.observe(total_ops)

    # -- admin protocol (checkpoint / compact / close) ---------------------

    def pause(self) -> None:
        """Drain staged commits and block new leaders.

        Grants exclusive admin access to the WAL: after ``pause``
        returns, no commit I/O is in flight and none can start until
        :meth:`resume`.  One admin at a time; a second ``pause`` waits.
        """
        with self._cond:
            self._refuse_if_unusable()
            while self._paused:
                self._cond.wait()
                self._refuse_if_unusable()
            self._paused = True
            while self._committing:
                self._cond.wait()
        # no leader can start now; drain whatever was staged before the
        # pause won the flag (commits staged after it wait for resume)
        while self._lead(even_if_paused=True):
            pass

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def replace_wal(self, wal: LogWriter) -> LogWriter:
        """Swap the WAL writer (checkpoint/compact rotation).  The
        caller must hold the pause."""
        with self._cond:
            if not self._paused:
                raise StorageError(
                    "replace_wal requires the pipeline to be paused")
            previous = self._wal
            self._wal = wal
            return previous

    def shutdown(self) -> None:
        """Drain, then permanently stop (store close)."""
        with self._cond:
            already_down = self._stopped or self._failed is not None
        if not already_down:
            self.pause()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    # -- state helpers -----------------------------------------------------

    @property
    def failed(self) -> Optional[BaseException]:
        return self._failed

    def _refuse_if_unusable(self) -> None:
        if self._failed is not None:
            raise StorageError(
                f"commit pipeline failed: {self._failed}") from self._failed
        if self._stopped:
            raise StorageError("commit pipeline is shut down")

    def _raise_pipeline_down(self) -> None:
        if self._failed is not None:
            raise StorageError(
                f"commit pipeline failed: {self._failed}") from self._failed
        raise StorageError("commit pipeline shut down while a commit "
                           "was staged (the operation was never "
                           "acknowledged)")


def snapshot_docs(base: dict, batch: List[LogicalCommit]) -> dict:
    """Apply a durable batch to a copy of ``base`` (doc id -> image).

    The helper the store uses to build the next published snapshot:
    the copy-then-apply keeps the previous snapshot immutable for any
    reader still pinning it.
    """
    docs = dict(base)
    for entry in batch:
        for op, doc_id, image in entry.ops:
            if op == logfmt.OP_DELETE:
                docs.pop(doc_id, None)
            else:
                docs[doc_id] = image
    return docs


__all__ = ["CommitPipeline", "LogicalCommit", "snapshot_docs"]
