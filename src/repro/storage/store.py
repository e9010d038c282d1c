"""The crash-safe durable collection store.

A :class:`CollectionStore` keeps a collection of JSON documents as OSON
images with full durability and (since the serving layer) multi-version
concurrency:

* every ``insert``/``update``/``delete`` stages a logical commit with
  the group-commit pipeline (:mod:`repro.storage.commit`) and is
  **acknowledged only after its batch fsync returns** — an acknowledged
  operation survives any crash, and many concurrent commits share one
  fsync;
* reads are served from an immutable, atomically-published
  :class:`StoreSnapshot` that only ever advances whole durable batches
  — a reader holding a snapshot (``store.snapshot()``) sees a frozen,
  consistent state no matter what writers do, and never observes a
  partially-acknowledged batch;
* ``checkpoint`` seals the WAL into a segment (metadata-only: the
  manifest records the file and its valid length; no bytes move) and
  atomically swaps a new manifest pinning the segment list, the fresh
  WAL and the serialized DataGuide;
* ``compact`` rewrites only the live documents into one fresh segment
  and drops superseded log files;
* opening runs verified recovery (:mod:`repro.storage.recovery`):
  corrupt records are quarantined with diagnostics, never fatal, and
  the DataGuide is rebuilt or revalidated.

Locking: the store lock covers only in-memory writer state (the
document map used for id allocation and existence checks, the DataGuide
builder, the sealed-segment list, the published snapshot reference).
**No I/O ever runs under it** — WAL writes and fsyncs happen on the
commit pipeline's leader with no lock held, and checkpoint/compact take
the pipeline's *pause* (drain + block new batches) before touching
files.  That is what let the historical ``allow_io=True`` sanitizer
exemption be deleted.

All I/O flows through the injectable :class:`~repro.storage.files
.FileSystem`, which is what lets the fault harness
(:mod:`repro.storage.faults`) prove the crash-consistency claim at
every write/flush/sync boundary.
"""

from __future__ import annotations

import posixpath
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.dataguide.builder import DataGuideBuilder
from repro.core.dataguide.guide import DataGuide
from repro.core.oson import decode as oson_decode
from repro.core.oson import encode as oson_encode
from repro.errors import StorageError
from repro.obs import locks as _locks
from repro.storage import commit as commitmod
from repro.storage import log as logfmt
from repro.storage import manifest as manifestfmt
from repro.storage.commit import CommitPipeline, LogicalCommit
from repro.storage.files import FileSystem, OsFileSystem
from repro.storage.log import LogWriter
from repro.storage.recovery import (QuarantinedRecord, RecoveredState,
                                    RecoveryReport, recover)


class StoreSnapshot:
    """An immutable view of the store at one durable point.

    Snapshots are the unit of isolation: the store publishes a new one
    atomically after each group commit's fsync, and never mutates a
    published one.  Holding a snapshot therefore pins a consistent
    state — long scans never observe partial batches, and two reads
    from the same snapshot always agree.
    """

    __slots__ = ("docs", "next_doc_id", "version")

    def __init__(self, docs: Dict[int, bytes], next_doc_id: int,
                 version: int) -> None:
        self.docs = docs              # treated as frozen once published
        self.next_doc_id = next_doc_id
        self.version = version        # monotonic per published batch

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self.docs

    def doc_ids(self) -> List[int]:
        return sorted(self.docs)

    def get(self, doc_id: int) -> Any:
        return oson_decode(self.image(doc_id))

    def image(self, doc_id: int) -> bytes:
        try:
            return self.docs[doc_id]
        except KeyError:
            raise StorageError(f"no document {doc_id}") from None

    def documents(self) -> Iterator[Tuple[int, Any]]:
        for doc_id in sorted(self.docs):
            yield doc_id, oson_decode(self.docs[doc_id])


class CollectionStore:
    """A durable, crash-recoverable JSON document collection."""

    def __init__(self, directory: str, fs: FileSystem,
                 docs: Dict[int, bytes], builder: DataGuideBuilder,
                 next_doc_id: int, wal: LogWriter,
                 sealed: List[Tuple[str, int]],
                 recovery: Optional[RecoveryReport],
                 imc_segments: Optional[List[Dict[str, Any]]] = None,
                 imc_dirty: Optional[set] = None) -> None:
        self._directory = directory
        self._fs = fs
        # writer state: what the store will contain once everything
        # staged commits — the namespace for id allocation and
        # update/delete existence checks
        self._docs = docs                  # guarded-by: _lock
        self._builder = builder            # guarded-by: _lock
        self._next_doc_id = next_doc_id    # guarded-by: _lock
        # (name, valid length) in apply order  # guarded-by: _lock
        self._sealed = sealed
        # pinned durable IMC column segments (manifest rows) and the
        # document ids whose row-wise form post-dates them — a columnar
        # reader must serve dirty ids from the rows.  Inserts allocate
        # fresh ids (never in a segment), so only update/delete dirty.
        self._imc_segments = list(imc_segments or [])  # guarded-by: _lock
        self._imc_dirty = set(imc_dirty or ())         # guarded-by: _lock
        # checkpoint/compact call this (with no lock held) to lift the
        # in-memory columnar form into durable segments
        self._imc_provider = None          # guarded-by: _lock
        self.recovery = recovery
        self._closed = False               # guarded-by: _lock
        # serializes writer-state mutation (DML staging, publication,
        # checkpoint/compact metadata swaps).  Covers **no I/O**: the
        # WAL lives with the commit pipeline, whose leader writes and
        # fsyncs with no lock held.
        self._lock = _locks.make_lock("storage.store")
        # durable state: reads are served from the published snapshot,
        # which only advances whole fsynced batches
        self._snapshot = StoreSnapshot(dict(docs), next_doc_id,
                                       version=0)  # guarded-by: _lock
        self._pipeline = CommitPipeline(wal, self._publish_batch)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, directory: str,
               fs: Optional[FileSystem] = None) -> "CollectionStore":
        """Initialize an empty store in ``directory``."""
        fs = fs or OsFileSystem()
        fs.ensure_dir(directory)
        # log files without a manifest are a crash-degraded store (crash
        # during initial create, or manifest corruption) that recovery
        # can still read — creating over them would truncate that data
        has_logs = any(logfmt.parse_log_name(name) is not None
                       for name in fs.listdir(directory))
        if fs.exists(manifestfmt.manifest_path(directory)) or has_logs:
            raise StorageError(
                f"{directory} already contains a collection store")
        wal = LogWriter.create(
            fs, posixpath.join(directory, logfmt.log_name(1)), 1)
        store = cls(directory, fs, {}, DataGuideBuilder(), 0, wal, [],
                    recovery=None)
        manifestfmt.write_manifest(fs, directory,
                                   store._manifest_document())
        return store

    @classmethod
    def open(cls, directory: str, fs: Optional[FileSystem] = None,
             verify_documents: bool = True) -> "CollectionStore":
        """Open with verified recovery; corruption quarantines, never
        raises.  The recovery report is available as ``store.recovery``."""
        fs = fs or OsFileSystem()
        state = recover(fs, directory, verify_documents=verify_documents)
        store = cls._resume(directory, fs, state)
        return store

    @classmethod
    def open_or_create(cls, directory: str,
                       fs: Optional[FileSystem] = None) -> "CollectionStore":
        fs = fs or OsFileSystem()
        fs.ensure_dir(directory)
        has_logs = any(logfmt.parse_log_name(name) is not None
                       for name in fs.listdir(directory))
        if fs.exists(manifestfmt.manifest_path(directory)) or has_logs:
            return cls.open(directory, fs=fs)
        return cls.create(directory, fs=fs)

    @classmethod
    def _resume(cls, directory: str, fs: FileSystem,
                state: RecoveredState) -> "CollectionStore":
        if state.wal_reusable and state.wal_name is not None:
            # clean shutdown fast path: keep appending to the same WAL,
            # manifest already points at it
            wal = LogWriter.reopen(
                fs, posixpath.join(directory, state.wal_name),
                logfmt.parse_log_name(state.wal_name) or 0,
                state.wal_valid_length)
            sealed = state.sources[:-1]
            return cls(directory, fs, state.docs, state.builder,
                       state.next_doc_id, wal, sealed, state.report,
                       imc_segments=state.imc_segments,
                       imc_dirty=state.imc_dirty_ids)
        # otherwise: seal everything recovered (each at its valid
        # length), start a fresh WAL, publish a new manifest
        sequence = state.max_sequence + 1
        wal = LogWriter.create(
            fs, posixpath.join(directory, logfmt.log_name(sequence)),
            sequence)
        store = cls(directory, fs, state.docs, state.builder,
                    state.next_doc_id, wal, list(state.sources),
                    state.report,
                    imc_segments=state.imc_segments,
                    imc_dirty=state.imc_dirty_ids)
        manifestfmt.write_manifest(fs, directory,
                                   store._manifest_document())
        return store

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # drain staged commits (so every acknowledged operation is on
        # disk), stop the pipeline, then release the WAL handle — all
        # without the store lock
        self._pipeline.shutdown()
        if self._pipeline.failed is None:
            wal = self._pipeline.wal
            wal.commit()
            wal.close()

    def __enter__(self) -> "CollectionStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def pipeline(self) -> CommitPipeline:
        """The group-commit pipeline (waits and batch limits go through
        this)."""
        return self._pipeline

    @property
    def quarantine(self) -> List[QuarantinedRecord]:
        return list(self.recovery.quarantined) if self.recovery else []

    def _live(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    # -- DML (ack = the commit's batch fsynced) ----------------------------

    def insert_async(self, document: Any) -> Tuple[int, LogicalCommit]:
        """Stage a durable insert and return ``(doc_id, handle)`` without
        waiting for the fsync.  The write is acknowledged — durable, and
        visible to new snapshots — only once ``pipeline.wait(handle)``
        returns.  The serving layer's write lane uses this split to
        overlap many sessions' durability waits so the group-commit
        leader can batch their fsyncs."""
        image = oson_encode(document)
        with self._lock:
            self._live()
            doc_id = self._next_doc_id
            self._next_doc_id = doc_id + 1
            self._docs[doc_id] = image
            entry = LogicalCommit(
                [logfmt.encode_record(logfmt.OP_INSERT, doc_id, image)],
                [(logfmt.OP_INSERT, doc_id, image)],
                self._next_doc_id, documents=(document,))
            self._pipeline.submit(entry)
        return doc_id, entry

    def insert(self, document: Any) -> int:
        """Durably insert; returns the new document id once the commit's
        group-commit batch is fsynced (the acknowledgement point)."""
        doc_id, entry = self.insert_async(document)
        self._pipeline.wait(entry)
        return doc_id

    def insert_many_async(
            self, documents: Any
    ) -> Tuple[List[int], Optional[LogicalCommit]]:
        """Stage a multi-document insert as one logical commit; the
        handle is ``None`` for an empty batch (nothing to wait for)."""
        documents = list(documents)
        if not documents:
            return [], None
        images = [oson_encode(document) for document in documents]
        with self._lock:
            self._live()
            doc_ids: List[int] = []
            records: List[bytes] = []
            ops: List[Tuple[int, int, bytes]] = []
            for document, image in zip(documents, images):
                doc_id = self._next_doc_id
                self._next_doc_id = doc_id + 1
                self._docs[doc_id] = image
                doc_ids.append(doc_id)
                records.append(logfmt.encode_record(
                    logfmt.OP_INSERT, doc_id, image))
                ops.append((logfmt.OP_INSERT, doc_id, image))
            entry = LogicalCommit(records, ops, self._next_doc_id,
                                  documents=tuple(documents))
            self._pipeline.submit(entry)
        return doc_ids, entry

    def insert_many(self, documents: Any) -> List[int]:
        """Durably insert several documents as **one** logical commit:
        a single WAL batch, one fsync, one acknowledgement — after a
        crash either a prefix of the batch's records survives and is
        reported as a cut batch, or all of them do."""
        doc_ids, entry = self.insert_many_async(documents)
        if entry is not None:
            self._pipeline.wait(entry)
        return doc_ids

    def update(self, doc_id: int, document: Any) -> None:
        image = oson_encode(document)
        with self._lock:
            self._live()
            if doc_id not in self._docs:
                raise StorageError(f"no document {doc_id} to update")
            self._docs[doc_id] = image
            self._imc_dirty.add(doc_id)
            entry = LogicalCommit(
                [logfmt.encode_record(logfmt.OP_UPDATE, doc_id, image)],
                [(logfmt.OP_UPDATE, doc_id, image)],
                self._next_doc_id, documents=(document,))
            self._pipeline.submit(entry)
        self._pipeline.wait(entry)

    def delete(self, doc_id: int) -> None:
        with self._lock:
            self._live()
            if doc_id not in self._docs:
                raise StorageError(f"no document {doc_id} to delete")
            del self._docs[doc_id]
            self._imc_dirty.add(doc_id)
            # the DataGuide stays additive on delete (paper section
            # 3.4); recovery and compaction shrink it by rebuilding
            entry = LogicalCommit(
                [logfmt.encode_record(logfmt.OP_DELETE, doc_id)],
                [(logfmt.OP_DELETE, doc_id, b"")],
                self._next_doc_id)
            self._pipeline.submit(entry)
        self._pipeline.wait(entry)

    def _publish_batch(self, batch: List[LogicalCommit]) -> None:
        """Pipeline callback, after the batch fsync and before the ack:
        swap in a snapshot covering the whole batch (readers move from
        one consistent state to the next, never through the middle) and
        teach the DataGuide the now-durable documents."""
        with self._lock:
            base = self._snapshot
            docs = commitmod.snapshot_docs(base.docs, batch)
            next_doc_id = base.next_doc_id
            for entry in batch:
                if entry.next_doc_id > next_doc_id:
                    next_doc_id = entry.next_doc_id
                for document in entry.documents:
                    self._builder.add(document)
            self._snapshot = StoreSnapshot(docs, next_doc_id,
                                           base.version + 1)

    # -- reads (always from the published snapshot) ------------------------

    def snapshot(self) -> StoreSnapshot:
        """Pin the current durable state.  The returned object is
        immutable and stays valid (and consistent) forever."""
        return self._snapshot

    def __len__(self) -> int:
        return len(self._snapshot.docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._snapshot.docs

    def doc_ids(self) -> List[int]:
        return self._snapshot.doc_ids()

    def get(self, doc_id: int) -> Any:
        return self._snapshot.get(doc_id)

    def image(self, doc_id: int) -> bytes:
        return self._snapshot.image(doc_id)

    def documents(self) -> Iterator[Tuple[int, Any]]:
        return self._snapshot.documents()

    def snapshot_with_guide(self) -> Tuple[StoreSnapshot, DataGuide]:
        """Pin the current durable state together with a DataGuide that
        covers it, atomically.

        The invariant (maintained by ``_publish_batch`` and ``compact``,
        both of which swap snapshot and builder under this lock) is that
        the builder always covers every document in the published
        snapshot.  Capturing the pair under one lock acquisition is what
        makes guide-based partition pruning sound against a *pinned*
        snapshot: the guide can run ahead of the snapshot (extra paths,
        wider ranges — pruning merely gets more conservative) but never
        behind it.
        """
        with self._lock:
            return self._snapshot, self._builder.guide()

    def dataguide(self) -> DataGuide:
        with self._lock:
            return self._builder.guide()

    def zone_stats(self) -> List[Dict[str, Any]]:
        """The live min/max zone stats (the same rows the next manifest
        will persist): per scalar path ``{"path", "scalar_type", "min",
        "max"}`` for homogeneous number/string paths."""
        with self._lock:
            return manifestfmt.zone_stats_from_builder(self._builder)

    # -- durable IMC column segments ---------------------------------------

    def set_imc_provider(self, provider: Any) -> None:
        """Register the columnar lift callback.  ``provider(snapshot)``
        returns ``[(table, column, doc_ids, values), ...]`` — the exact
        columnar form of the snapshot — or ``None`` to skip the lift.
        Called by checkpoint/compact with the pipeline paused and **no
        store lock held** (the provider may take the IMC store lock,
        which itself calls store accessors: imc→storage is the one
        sanctioned lock order, never the reverse)."""
        with self._lock:
            self._imc_provider = provider

    def imc_segments(self) -> List[Dict[str, Any]]:
        """The pinned IMC column-segment manifest rows."""
        with self._lock:
            return list(self._imc_segments)

    def imc_dirty_ids(self) -> set:
        """Document ids whose row-wise form post-dates the pinned
        segments — a columnar reader serves these from the rows."""
        with self._lock:
            return set(self._imc_dirty)

    def read_imc_segment(self, name: str) -> bytes:
        """Raw bytes of a pinned segment (raises on a missing file —
        callers quarantine and rebuild from OSON)."""
        return self._fs.read_bytes(posixpath.join(self._directory, name))

    def _write_imc_segments(self, snapshot: StoreSnapshot, horizon: int,
                            drop_stale: bool) -> None:
        """The LSM-style tuple-compaction lift: persist the provider's
        columnar form as checksummed column segments, to be pinned by
        the manifest the caller is about to write.

        With no provider (or a declined lift), a checkpoint *keeps* the
        old entries — their horizon still bounds them, so recovery's
        dirty-id tracking stays sound — while compaction drops them
        (``drop_stale``): it GCs the logs the old horizons point into.
        Runs with the pipeline paused and no store lock held during the
        provider call or the file writes."""
        with self._lock:
            provider = self._imc_provider
        columns = provider(snapshot) if provider is not None else None
        if columns is None:
            if drop_stale:
                with self._lock:
                    self._imc_segments = []
            return
        from repro.imc import segments as imcseg
        taken = (imcseg.parse_imc_segment_name(name)
                 for name in self._fs.listdir(self._directory))
        sequence = max((s for s in taken if s is not None), default=0) + 1
        entries: List[Dict[str, Any]] = []
        for table, column, doc_ids, values in columns:
            try:
                data = imcseg.encode_column_segment(table, column,
                                                    doc_ids, values)
            except StorageError:
                # non-round-trippable values: this column stays
                # rebuild-from-OSON rather than risk inexact answers
                continue
            name = imcseg.imc_segment_name(sequence)
            sequence += 1
            handle = self._fs.create(
                posixpath.join(self._directory, name))
            handle.write(data)
            handle.flush()
            handle.sync()
            handle.close()
            entries.append(imcseg.segment_entry(
                name, len(data), table, column, horizon))
        with self._lock:
            self._imc_segments = entries
            self._imc_dirty = set()

    def _gc_imc_files(self) -> None:
        """Remove IMC segment files the manifest no longer pins (the
        lift's predecessors, plus orphans from a crashed lift)."""
        with self._lock:
            referenced = {entry["name"] for entry in self._imc_segments}
        from repro.imc.segments import parse_imc_segment_name
        for name in self._fs.listdir(self._directory):
            if parse_imc_segment_name(name) is None or name in referenced:
                continue
            self._fs.remove(posixpath.join(self._directory, name))

    # -- checkpoint / compaction -------------------------------------------

    def checkpoint(self) -> None:
        """Seal the WAL into a segment and publish a new manifest.

        Runs under the pipeline's pause — staged-but-unacknowledged
        commits submitted during the pause simply land in the fresh WAL
        after resume — and the manifest is built from the published
        snapshot, so it describes exactly the durable state.
        """
        with self._lock:
            self._live()
        self._pipeline.pause()
        try:
            with self._lock:
                self._live()
                snapshot = self._snapshot
            old = self._pipeline.wal
            sealed_name = posixpath.basename(old.path)
            sealed_length = old.offset
            old.commit()
            sequence = old.sequence + 1
            new_wal = LogWriter.create(
                self._fs, posixpath.join(self._directory,
                                         logfmt.log_name(sequence)),
                sequence)
            self._pipeline.replace_wal(new_wal)
            old.close()
            # lift the columnar form before the manifest swap pins it;
            # commits staged during the pause land in the fresh WAL
            # (sequence == horizon) and are therefore dirty by horizon
            self._write_imc_segments(snapshot, new_wal.sequence,
                                     drop_stale=False)
            with self._lock:
                self._sealed.append((sealed_name, sealed_length))
                document = self._manifest_document(snapshot)
            manifestfmt.write_manifest(self._fs, self._directory, document)
            self._gc_imc_files()
        finally:
            self._pipeline.resume()

    def compact(self) -> int:
        """Rewrite only the live documents into one fresh segment, then
        drop every superseded log file.  Returns bytes reclaimed."""
        with self._lock:
            self._live()
        self._pipeline.pause()
        try:
            with self._lock:
                self._live()
                snapshot = self._snapshot
            old = self._pipeline.wal
            old.commit()

            sequence = old.sequence + 1
            segment = LogWriter.create(
                self._fs, posixpath.join(self._directory,
                                         logfmt.log_name(sequence)), sequence)
            for doc_id in sorted(snapshot.docs):
                segment.append(logfmt.encode_record(
                    logfmt.OP_INSERT, doc_id, snapshot.docs[doc_id]))
            segment.commit()
            segment.close()

            new_wal = LogWriter.create(
                self._fs, posixpath.join(self._directory,
                                         logfmt.log_name(sequence + 1)),
                sequence + 1)
            self._pipeline.replace_wal(new_wal)
            old.close()
            # compaction rebuilds the DataGuide over the live durable
            # documents only — the one sanctioned shrink point (commits
            # staged during the pause re-add their paths when published)
            builder = DataGuideBuilder()
            for doc_id in sorted(snapshot.docs):
                builder.add(oson_decode(snapshot.docs[doc_id]))
            # refresh the columnar segments against the exact snapshot
            # being rewritten; without a provider the stale entries are
            # dropped (their horizons point into the logs GC'd below)
            self._write_imc_segments(snapshot, new_wal.sequence,
                                     drop_stale=True)
            with self._lock:
                self._builder = builder
                self._sealed = [(posixpath.basename(segment.path),
                                 segment.offset)]
                document = self._manifest_document(snapshot)
            manifestfmt.write_manifest(self._fs, self._directory, document)
            # GC every unreferenced log at or below the new horizon: the
            # files this compaction superseded, plus orphans left by an
            # earlier compaction that crashed after publishing its manifest
            # but before its own remove sweep
            referenced = {posixpath.basename(segment.path),
                          posixpath.basename(new_wal.path)}
            horizon = new_wal.sequence
            reclaimed = 0
            for name in self._fs.listdir(self._directory):
                log_sequence = logfmt.parse_log_name(name)
                if (log_sequence is None or name in referenced
                        or log_sequence > horizon):
                    continue
                path = posixpath.join(self._directory, name)
                reclaimed += self._fs.file_size(path)
                self._fs.remove(path)
            self._gc_imc_files()
            return max(0, reclaimed - segment.offset)
        finally:
            self._pipeline.resume()

    def _manifest_document(self,
                           snapshot: Optional[StoreSnapshot] = None
                           ) -> Dict[str, Any]:
        """Build the manifest checkpoint document (pure; no I/O).  The
        durable counts come from the published snapshot so a manifest
        never claims operations whose batch has not fsynced."""
        if snapshot is None:
            snapshot = self._snapshot
        return manifestfmt.build_manifest(
            list(self._sealed),
            posixpath.basename(self._pipeline.wal.path),
            snapshot.next_doc_id, len(snapshot.docs), self._builder,
            imc_segments=list(self._imc_segments))

    # -- introspection -----------------------------------------------------

    def storage_files(self) -> List[str]:
        """Log files in apply order (sealed segments then active WAL)."""
        names = [name for name, _ in self._sealed]
        names.append(posixpath.basename(self._pipeline.wal.path))
        return names
