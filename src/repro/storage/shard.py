"""Hash-partitioned sharded collections: the ``ShardedStore`` router.

A sharded collection is N independent :class:`~repro.storage.store
.CollectionStore` directories (``shard-00`` … ``shard-NN``), each with
its **own** WAL, segments, manifest, quarantine and per-shard DataGuide,
behind one router.  The shard layout is pinned by a durable ``SHARDS``
marker document (framed OSON, like the manifest) at the collection
root.

Design points:

* **Document placement.**  Inserts route by hash of the optional
  *routing field* (stable CRC32 over a canonical rendering, so the
  placement survives restarts and process boundaries) or round-robin
  when the field is absent.  The router enforces the placement
  invariant on ``update``: a document carrying the routing field may
  never move to a value that hashes elsewhere — that invariant is what
  makes routing-equality partition pruning sound.
* **Global ids.**  A document's public id encodes its placement:
  ``global = local * shard_count + shard_index``.  Routing a DML or
  point read is pure arithmetic — no directory, no lookup table to keep
  crash-consistent.
* **Per-shard group commit.**  Each shard keeps its own
  :class:`~repro.storage.commit.CommitPipeline`; DML fans out through
  the existing ``insert_async``/group-commit protocol, so commits on
  different shards batch and fsync independently, each batch led by one
  of its own waiters.  A batch insert touching several shards waits on
  them in turn, so its waiter leads those fsyncs one after another.
* **MVCC composition.**  ``snapshot()`` composes per-shard
  ``StoreSnapshot``s — each captured *with* a DataGuide that covers it
  (:meth:`~repro.storage.store.CollectionStore.snapshot_with_guide`) —
  into an immutable :class:`ShardedSnapshot` whose version is the sum
  of shard versions (monotonic, since each shard's is).  Sessions pin
  these exactly like plain snapshots.
* **Recovery contract.**  Opening recovers every shard independently;
  the aggregate :class:`ShardedRecoveryReport` preserves the standalone
  report's contract (``cut_batches`` dicts, ``quarantined`` records,
  ``clean``) with each finding annotated by its shard.

Locking: the router lock (``storage.shard``) covers only the
round-robin cursor and the closed flag.  It is **never held across a
call into a shard store** — routing is computed under the lock, the
shard call happens outside it — so the lock-order graph gains no
``storage.shard -> storage.store`` edge and the serve.write -> store ->
commit chain simply replicates per shard.

Fault tolerance: every shard-scoped write funnels through
:meth:`ShardedStore._shard_write`, which consults the store's
:class:`~repro.storage.health.ShardHealthBoard` (fail-fast
:class:`~repro.errors.ShardUnavailable` against a failed shard),
fires the ``shard.commit`` chaos point, and retries transient faults
under the seeded :class:`~repro.obs.clock.BackoffPolicy`.  Reads taken
through :meth:`ShardedSnapshot.shard_documents` fire ``shard.scan`` /
``shard.read`` points so the chaos harness can fault live scans; the
scatter executor owns read-side retry.  Recovery is traffic-driven
(the board admits periodic probes) plus the explicit
:meth:`ShardedStore.probe_shard` / :meth:`ShardedStore.probe_failed`.
"""

from __future__ import annotations

import posixpath
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, has_errors
from repro.core.dataguide.guide import DataGuide
from repro.errors import RETRYABLE_FAULTS, ShardUnavailable, StorageError
from repro.obs import clock as _clock
from repro.obs import locks as _locks
from repro.obs import metrics as _metrics
from repro.storage import chaos as _chaos
from repro.storage import log as logfmt
from repro.storage.health import FAILED, ShardHealthBoard
from repro.storage import manifest as manifestfmt
from repro.storage.commit import LogicalCommit
from repro.storage.files import FileSystem, OsFileSystem
from repro.storage.framing import first_frame, frame
from repro.storage.fsck import fsck as fsck_store
from repro.storage.recovery import QuarantinedRecord
from repro.storage.store import CollectionStore, StoreSnapshot

from repro.core.oson import decode as oson_decode
from repro.core.oson import encode as oson_encode

_WRITE_RETRIES = _metrics.counter("storage.shard.write_retries")

SHARDS_NAME = "SHARDS"
SHARDS_TMP = "SHARDS.tmp"
SHARD_FORMAT = "repro-sharded-store"
SHARD_FORMAT_VERSION = 1


def shard_dir_name(index: int) -> str:
    return f"shard-{index:02d}"


def shards_path(directory: str) -> str:
    return posixpath.join(directory, SHARDS_NAME)


def routing_hash(value: Any) -> Optional[int]:
    """Stable placement hash for a routing-field value, or None when the
    value is not routable (containers, bools, NULL).

    Uses CRC32 over a canonical rendering rather than Python ``hash``:
    string hashing is salted per process, and placement must agree
    between the process that inserted and every process that routes or
    prunes later.  Numeric values canonicalize integral floats to ints
    so ``5`` and ``5.0`` (equal under SQL comparison) land on the same
    shard.
    """
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, str):
        data = b"s:" + value.encode("utf-8")
    elif isinstance(value, (int, float)):
        data = b"n:" + repr(value).encode("ascii")
    else:
        return None
    return zlib.crc32(data)


class ShardHandle:
    """A commit handle that remembers which shard's pipeline owns it, so
    the router's pipeline facade can route the durability wait."""

    __slots__ = ("entry", "pipeline")

    def __init__(self, entry: LogicalCommit, pipeline: Any) -> None:
        self.entry = entry
        self.pipeline = pipeline


class MultiShardHandle:
    """A batch insert's handles, one per shard touched."""

    __slots__ = ("handles",)

    def __init__(self, handles: Sequence[ShardHandle]) -> None:
        self.handles = list(handles)


class ShardPipelines:
    """The router's commit-pipeline facade: the serving layer drives it
    exactly like a single store's pipeline (``wait(handle)`` /
    ``set_batch_limit``), and the facade fans out to the per-shard
    pipelines — one group-commit batch stream, one WAL fsync lane *per
    shard*.  ``wait`` on a multi-shard handle waits on each shard's part
    in turn, leading that shard's batch whenever it is idle."""

    def __init__(self, shards: Sequence[CollectionStore]) -> None:
        self._pipelines = [shard.pipeline for shard in shards]

    def wait(self, handle: Any) -> None:
        if isinstance(handle, MultiShardHandle):
            for part in handle.handles:
                part.pipeline.wait(part.entry)
            return
        if isinstance(handle, ShardHandle):
            handle.pipeline.wait(handle.entry)
            return
        raise StorageError(
            f"cannot wait on {type(handle).__name__}: sharded-store "
            f"handles carry their shard pipeline")

    def set_batch_limit(self, limit: Optional[int]) -> Optional[int]:
        previous = [pipeline.set_batch_limit(limit)
                    for pipeline in self._pipelines]
        return previous[0] if previous else None

    def shutdown(self) -> None:
        for pipeline in self._pipelines:
            pipeline.shutdown()

    @property
    def failed(self) -> Optional[BaseException]:
        for pipeline in self._pipelines:
            if pipeline.failed is not None:
                return pipeline.failed
        return None


class ShardedSnapshot:
    """An immutable cross-shard view: one pinned ``StoreSnapshot`` per
    shard plus the DataGuide that covers it (captured atomically per
    shard), composed behind the single-snapshot read surface.

    ``version`` is the sum of shard versions — monotonic because each
    shard's is — so session pins advance exactly as with a plain store.
    """

    __slots__ = ("shards", "guides", "shard_count")

    def __init__(self, shards: Sequence[StoreSnapshot],
                 guides: Sequence[DataGuide]) -> None:
        self.shards = tuple(shards)
        self.guides = tuple(guides)
        self.shard_count = len(self.shards)

    @property
    def version(self) -> int:
        return sum(shard.version for shard in self.shards)

    @property
    def next_doc_id(self) -> int:
        n = self.shard_count
        ceilings = [(shard.next_doc_id - 1) * n + index + 1
                    for index, shard in enumerate(self.shards)
                    if shard.next_doc_id > 0]
        return max(ceilings) if ceilings else 0

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, doc_id: int) -> bool:
        return (doc_id // self.shard_count) in self.shards[
            doc_id % self.shard_count]

    def doc_ids(self) -> List[int]:
        n = self.shard_count
        out: List[int] = []
        for index, shard in enumerate(self.shards):
            out.extend(local * n + index for local in shard.doc_ids())
        out.sort()
        return out

    def image(self, doc_id: int) -> bytes:
        try:
            return self.shards[doc_id % self.shard_count].docs[
                doc_id // self.shard_count]
        except KeyError:
            raise StorageError(f"no document {doc_id}") from None

    def get(self, doc_id: int) -> Any:
        return oson_decode(self.image(doc_id))

    def documents(self) -> Iterator[Tuple[int, Any]]:
        """Yield ``(global_id, document)`` in global-id order (the
        cross-shard interleave of per-shard insertion order)."""
        for doc_id in self.doc_ids():
            yield doc_id, self.get(doc_id)

    def shard_documents(self, index: int) -> Iterator[Tuple[int, Any]]:
        """One shard's documents (global ids), in local order — the
        per-shard scan the scatter executor runs its pipeline over.

        Fires the ``shard.scan`` chaos point at stream open and
        ``shard.read`` per document, so the chaos harness can fault a
        live scan mid-stream; the scatter executor owns the resulting
        retry/degrade decision."""
        n = self.shard_count
        _chaos.fault_point("shard.scan", shard=index)
        for local, document in self.shards[index].documents():
            _chaos.fault_point("shard.read", shard=index)
            yield local * n + index, document


class ShardedRecoveryReport:
    """Aggregate recovery report over all shards, preserving the
    standalone :class:`~repro.storage.recovery.RecoveryReport` contract:
    ``cut_batches`` dicts (with a ``shard`` key added), ``quarantined``
    records, ``diagnostics``, ``clean`` and ``summary()``."""

    def __init__(self, per_shard: Sequence[Optional[Any]]) -> None:
        self.per_shard = list(per_shard)
        self.cut_batches: List[Dict[str, Any]] = []
        self.quarantined: List[QuarantinedRecord] = []
        self.diagnostics: List[Diagnostic] = []
        for index, report in enumerate(self.per_shard):
            if report is None:
                continue
            for cut in report.cut_batches:
                annotated = dict(cut)
                annotated["shard"] = index
                self.cut_batches.append(annotated)
            self.quarantined.extend(report.quarantined)
            self.diagnostics.extend(report.diagnostics)

    @property
    def clean(self) -> bool:
        return all(report is None or report.clean
                   for report in self.per_shard) and not has_errors(
                       self.diagnostics)

    def summary(self) -> str:
        lines = [f"shards: {len(self.per_shard)}"]
        for index, report in enumerate(self.per_shard):
            header = f"shard {index}:"
            if report is None:
                lines.append(f"{header} freshly created")
                continue
            body = report.summary().splitlines()
            lines.append(header)
            lines.extend("  " + line for line in body)
        return "\n".join(lines)


class ShardedStore:
    """N hash-partitioned :class:`CollectionStore` shards behind one
    router with the single-store API surface."""

    def __init__(self, directory: str, fs: FileSystem,
                 shards: Sequence[CollectionStore],
                 routing_field: Optional[str]) -> None:
        self._directory = directory
        self._fs = fs
        self._shards = tuple(shards)
        self._routing_field = routing_field
        self._pipeline = ShardPipelines(self._shards)
        # router lock: covers ONLY the round-robin cursor and the closed
        # flag.  Never held across a call into a shard store (routing is
        # computed under it, the shard call happens outside), so no
        # storage.shard -> storage.store lock-order edge exists.
        self._lock = _locks.make_lock("storage.shard")
        self._next_shard = sum(                 # guarded-by: _lock
            len(shard) for shard in shards) % max(1, len(shards))
        self._closed = False                    # guarded-by: _lock
        # per-shard health state; scatter readers share this board via
        # the shard plan, so read- and write-side outcomes feed one
        # state machine
        self.health = ShardHealthBoard(len(self._shards))
        # write-path retry schedule; seeded so a chaos-sweep failure in
        # the commit path replays exactly
        self.backoff = _clock.BackoffPolicy()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, directory: str, shards: int = 4,
               fs: Optional[FileSystem] = None,
               routing_field: Optional[str] = None) -> "ShardedStore":
        if shards < 1:
            raise StorageError(f"shard count must be >= 1, got {shards}")
        fs = fs or OsFileSystem()
        fs.ensure_dir(directory)
        if fs.exists(shards_path(directory)):
            raise StorageError(
                f"{directory} already contains a sharded store")
        if fs.exists(manifestfmt.manifest_path(directory)):
            raise StorageError(
                f"{directory} already contains an unsharded collection "
                f"store")
        _write_marker(fs, directory, shards, routing_field)
        stores = [CollectionStore.create(
            posixpath.join(directory, shard_dir_name(index)), fs=fs)
            for index in range(shards)]
        return cls(directory, fs, stores, routing_field)

    @classmethod
    def open(cls, directory: str, fs: Optional[FileSystem] = None,
             verify_documents: bool = True) -> "ShardedStore":
        fs = fs or OsFileSystem()
        marker = read_shard_marker(fs, directory)
        if marker is None:
            raise StorageError(
                f"{directory} is not a sharded store (no readable "
                f"{SHARDS_NAME} marker)")
        stores = [CollectionStore.open(
            posixpath.join(directory, shard_dir_name(index)), fs=fs,
            verify_documents=verify_documents)
            for index in range(marker["shards"])]
        return cls(directory, fs, stores, marker.get("routing_field"))

    @classmethod
    def open_or_create(cls, directory: str, shards: int = 4,
                       fs: Optional[FileSystem] = None,
                       routing_field: Optional[str] = None
                       ) -> "ShardedStore":
        fs = fs or OsFileSystem()
        fs.ensure_dir(directory)
        if fs.exists(shards_path(directory)):
            store = cls.open(directory, fs=fs)
            if store.shard_count != shards:
                raise StorageError(
                    f"{directory} holds {store.shard_count} shards; "
                    f"re-sharding to {shards} is not supported")
            if store.routing_field != routing_field:
                raise StorageError(
                    f"{directory} routes by "
                    f"{store.routing_field!r}, not {routing_field!r}")
            return store
        return cls.create(directory, shards=shards, fs=fs,
                          routing_field=routing_field)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- shape -------------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[CollectionStore, ...]:
        return self._shards

    @property
    def routing_field(self) -> Optional[str]:
        return self._routing_field

    @property
    def pipeline(self) -> ShardPipelines:
        return self._pipeline

    @property
    def recovery(self) -> Optional[ShardedRecoveryReport]:
        """Aggregate recovery report (None when every shard was freshly
        created, matching the standalone store's contract)."""
        reports = [shard.recovery for shard in self._shards]
        if all(report is None for report in reports):
            return None
        return ShardedRecoveryReport(reports)

    @property
    def quarantine(self) -> List[QuarantinedRecord]:
        out: List[QuarantinedRecord] = []
        for shard in self._shards:
            out.extend(shard.quarantine)
        return out

    def _live(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    # -- routing -----------------------------------------------------------

    def shard_of_value(self, value: Any) -> Optional[int]:
        """The shard a routing-field value places on (None when the
        value is not routable) — shared by insert routing and the
        planner's routing-equality pruning."""
        digest = routing_hash(value)
        if digest is None:
            return None
        return digest % len(self._shards)

    def _route(self, document: Any) -> int:
        """Pick the shard for a new document.  Holds the router lock
        only around the round-robin cursor."""
        if self._routing_field is not None and isinstance(document, dict):
            placed = self.shard_of_value(document.get(self._routing_field))
            if placed is not None:
                return placed
        with self._lock:
            self._live()
            index = self._next_shard
            self._next_shard = (index + 1) % len(self._shards)
        return index

    def _global(self, shard_index: int, local_id: int) -> int:
        return local_id * len(self._shards) + shard_index

    def _locate(self, doc_id: int) -> Tuple[CollectionStore, int, int]:
        n = len(self._shards)
        index = doc_id % n
        return self._shards[index], doc_id // n, index

    # -- fault tolerance ---------------------------------------------------

    def _shard_write(self, index: int, op: str, call: Any) -> Any:
        """Run one shard-scoped write under the health board and the
        seeded retry schedule.

        Fail-fast first: a write against a ``failed`` shard raises
        :class:`ShardUnavailable` without touching the shard (except
        for the board-admitted probe attempts that drive recovery).
        Then up to ``backoff.max_attempts`` tries, each preceded by the
        ``shard.commit`` chaos point; transient faults and ``OSError``
        back off through the seeded clock and retry, everything else
        propagates untouched.  Outcomes feed the health board either
        way.
        """
        if not self.health.admit(index):
            raise ShardUnavailable("write refused", shard_index=index,
                                   state=self.health.state(index))
        attempts = max(1, self.backoff.max_attempts)
        for attempt in range(attempts):
            try:
                _chaos.fault_point("shard.commit", shard=index)
                result = call()
            except RETRYABLE_FAULTS as exc:
                state = self.health.record_failure(index)
                if state == FAILED or attempt + 1 >= attempts:
                    raise ShardUnavailable(
                        f"{op} failed after {attempt + 1} attempt(s): "
                        f"{exc}", shard_index=index,
                        state=state) from exc
                _WRITE_RETRIES.inc()
                _clock.sleep(
                    self.backoff.delay_ms(f"{op}:{index}", attempt)
                    / 1000.0)
            else:
                self.health.record_success(index)
                return result

    def probe_shard(self, index: int) -> bool:
        """Explicitly probe one shard (a cheap snapshot pin through the
        ``shard.probe`` chaos point) and feed the outcome to the health
        board.  Returns True when the probe succeeded."""
        try:
            _chaos.fault_point("shard.probe", shard=index)
            self._shards[index].snapshot()
        except RETRYABLE_FAULTS:
            self.health.record_failure(index)
            return False
        self.health.record_success(index)
        return True

    def probe_failed(self) -> List[int]:
        """Probe every currently-failed shard; returns the shards whose
        probe succeeded (now ``recovered``).  The chaos harness calls
        this after a fault window to assert healing; operators would
        wire it to a timer."""
        return [index for index in self.health.failed_shards()
                if self.probe_shard(index)]

    # -- DML (global ids; acks ride the shard pipelines) -------------------

    def insert_async(self, document: Any) -> Tuple[int, ShardHandle]:
        with self._lock:
            self._live()
        index = self._route(document)
        shard = self._shards[index]
        local_id, entry = self._shard_write(
            index, "insert", lambda: shard.insert_async(document))
        return self._global(index, local_id), ShardHandle(entry,
                                                          shard.pipeline)

    def insert(self, document: Any) -> int:
        doc_id, handle = self.insert_async(document)
        self._pipeline.wait(handle)
        return doc_id

    def insert_many_async(
            self, documents: Any
    ) -> Tuple[List[int], Optional[MultiShardHandle]]:
        """Stage a batch: documents split by route, one logical commit
        **per shard touched**, each riding that shard's own group commit.
        Returns global ids in input order.
        """
        documents = list(documents)
        if not documents:
            return [], None
        with self._lock:
            self._live()
        routed: Dict[int, List[Tuple[int, Any]]] = {}
        for position, document in enumerate(documents):
            routed.setdefault(self._route(document), []).append(
                (position, document))
        doc_ids: List[int] = [0] * len(documents)
        handles: List[ShardHandle] = []
        for index in sorted(routed):
            shard = self._shards[index]
            positions = [position for position, _doc in routed[index]]
            batch = [doc for _position, doc in routed[index]]
            local_ids, entry = self._shard_write(
                index, "insert_many",
                lambda shard=shard, batch=batch:
                    shard.insert_many_async(batch))
            for position, local_id in zip(positions, local_ids):
                doc_ids[position] = self._global(index, local_id)
            if entry is not None:
                handles.append(ShardHandle(entry, shard.pipeline))
        return doc_ids, MultiShardHandle(handles) if handles else None

    def insert_many(self, documents: Any) -> List[int]:
        doc_ids, handle = self.insert_many_async(documents)
        if handle is not None:
            self._pipeline.wait(handle)
        return doc_ids

    def update(self, doc_id: int, document: Any) -> None:
        """Update in place.  A document carrying the routing field must
        keep hashing to its current shard — documents never migrate, so
        routing-equality pruning stays sound."""
        with self._lock:
            self._live()
        shard, local_id, index = self._locate(doc_id)
        if self._routing_field is not None and isinstance(document, dict):
            placed = self.shard_of_value(document.get(self._routing_field))
            if placed is not None and placed != index:
                raise StorageError(
                    f"update would move document {doc_id} off shard "
                    f"{index}: routing field {self._routing_field!r} "
                    f"value hashes to shard {placed}; delete and "
                    f"re-insert to migrate")
        self._shard_write(index, "update",
                          lambda: shard.update(local_id, document))

    def delete(self, doc_id: int) -> None:
        with self._lock:
            self._live()
        shard, local_id, index = self._locate(doc_id)
        self._shard_write(index, "delete",
                          lambda: shard.delete(local_id))

    # -- reads -------------------------------------------------------------

    def snapshot(self) -> ShardedSnapshot:
        """Pin every shard's current durable state (each with its
        covering DataGuide) into one immutable cross-shard snapshot."""
        pairs = [shard.snapshot_with_guide() for shard in self._shards]
        return ShardedSnapshot([snapshot for snapshot, _guide in pairs],
                               [guide for _snapshot, guide in pairs])

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, doc_id: int) -> bool:
        shard, local_id, _index = self._locate(doc_id)
        return local_id in shard

    def doc_ids(self) -> List[int]:
        return self.snapshot().doc_ids()

    def get(self, doc_id: int) -> Any:
        shard, local_id, _index = self._locate(doc_id)
        try:
            return shard.get(local_id)
        except StorageError:
            raise StorageError(f"no document {doc_id}") from None

    def image(self, doc_id: int) -> bytes:
        shard, local_id, _index = self._locate(doc_id)
        try:
            return shard.image(local_id)
        except StorageError:
            raise StorageError(f"no document {doc_id}") from None

    def documents(self) -> Iterator[Tuple[int, Any]]:
        return self.snapshot().documents()

    def dataguide(self) -> DataGuide:
        """The collection DataGuide: the associative merge of every
        shard's guide (order-independent)."""
        return DataGuide.merge_all(shard.dataguide()
                                   for shard in self._shards)

    def shard_guides(self) -> List[DataGuide]:
        return [shard.dataguide() for shard in self._shards]

    def zone_stats(self) -> List[List[Dict[str, Any]]]:
        """Per-shard zone-stat rows, indexed by shard."""
        return [shard.zone_stats() for shard in self._shards]

    # -- maintenance -------------------------------------------------------

    def checkpoint(self) -> None:
        for shard in self._shards:
            shard.checkpoint()

    def compact(self) -> int:
        return sum(shard.compact() for shard in self._shards)

    def storage_files(self) -> List[str]:
        """Shard-relative log files in apply order, prefixed by shard
        directory (plus the root marker)."""
        names = [SHARDS_NAME]
        for index, shard in enumerate(self._shards):
            prefix = shard_dir_name(index)
            names.extend(posixpath.join(prefix, name)
                         for name in shard.storage_files())
        return names


# -- marker ----------------------------------------------------------------


def _write_marker(fs: FileSystem, directory: str, shards: int,
                  routing_field: Optional[str]) -> None:
    document = {"format": SHARD_FORMAT, "version": SHARD_FORMAT_VERSION,
                "shards": shards, "routing_field": routing_field}
    tmp = posixpath.join(directory, SHARDS_TMP)
    handle = fs.create(tmp)
    handle.write(frame(oson_encode(document)))
    handle.flush()
    handle.sync()
    handle.close()
    fs.replace(tmp, shards_path(directory))


def read_shard_marker(fs: FileSystem,
                      directory: str) -> Optional[Dict[str, Any]]:
    """Load and validate the ``SHARDS`` marker; None when absent or
    unusable (callers decide whether that is an error)."""
    path = shards_path(directory)
    if not fs.exists(path):
        return None
    payload = first_frame(fs.read_bytes(path))
    if payload is None:
        return None
    try:
        document = oson_decode(payload)
    except Exception:  # lint: ignore[broad-except] a corrupt marker reads as "not a sharded store"; open() reports it
        return None
    if (not isinstance(document, dict)
            or document.get("format") != SHARD_FORMAT
            or not isinstance(document.get("shards"), int)
            or document["shards"] < 1):
        return None
    return document


def is_sharded_store(fs: FileSystem, directory: str) -> bool:
    return fs.exists(shards_path(directory))


def fsck_sharded(fs: FileSystem, directory: str) -> List[Diagnostic]:
    """Offline integrity check of a sharded store: validate the marker,
    then run the standalone :func:`repro.storage.fsck.fsck` over every
    shard directory with findings re-based to shard-relative paths."""
    marker = read_shard_marker(fs, directory)
    if marker is None:
        return [Diagnostic("storage.fsck.shards-marker",
                           f"unreadable or missing {SHARDS_NAME} marker",
                           path=shards_path(directory))]
    diagnostics: List[Diagnostic] = []
    for index in range(marker["shards"]):
        shard_dir = shard_dir_name(index)
        full = posixpath.join(directory, shard_dir)
        if not fs.exists(full) and not _dir_nonempty(fs, full):
            diagnostics.append(Diagnostic(
                "storage.fsck.shard-missing",
                f"marker names {marker['shards']} shards but {shard_dir} "
                f"is absent", path=shard_dir))
            continue
        for finding in fsck_store(fs, full):
            prefixed = (posixpath.join(shard_dir, finding.path)
                        if finding.path else shard_dir)
            diagnostics.append(Diagnostic(
                finding.rule, finding.message, finding.severity,
                offset=finding.offset, path=prefixed))
    # stray log files at the collection root are always wrong: every
    # log belongs to some shard directory
    for name in fs.listdir(directory):
        if logfmt.parse_log_name(name) is not None:
            diagnostics.append(Diagnostic(
                "storage.fsck.root-log",
                "log file at the sharded-store root (logs belong to "
                "shard directories)", Severity.WARNING, path=name))
    return diagnostics


def _dir_nonempty(fs: FileSystem, path: str) -> bool:
    """Whether a shard directory is actually there: some file systems
    (the in-memory one) answer ``listdir`` with an empty list instead of
    raising for absent directories, so presence means *entries*."""
    try:
        return bool(fs.listdir(path))
    except Exception:  # lint: ignore[broad-except] a missing directory is the condition being probed
        return False
