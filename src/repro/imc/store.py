"""IMCStore: a coherent, durable-backed columnar cache of table columns.

Section 5.2.1: virtual columns defined with JSON_VALUE() "map directly to
the in-memory columnar format" — population evaluates the virtual-column
expression once per row and the result lives as a numpy vector; queries
then run the vectorized kernels instead of re-extracting from JSON.

Three mechanisms keep the cache honest:

* **Coherence** — populating a table wires its insert/delete listeners
  to a per-table :class:`~repro.imc.delta.TableDelta`.  Fresh inserts
  are absorbed at access time by evaluating just the new rows (the
  merged base+delta scan); any delete — including the delete half of an
  update — marks the base structural-stale, and the next access rebuilds
  from the current rows.  No access ever serves pre-DML values.
* **Durability** — for tables backed by a
  :class:`~repro.storage.store.CollectionStore`, the store's
  checkpoint/compact lift persists the populated columns as checksummed
  column segments (:mod:`repro.imc.segments`).  On reopen, population
  loads the pinned segments instead of re-paying the extraction scan:
  per row the value comes from the segment unless the store marks its
  document id dirty (written at or above the segment's horizon), in
  which case it is computed from the row.  Corrupt segments quarantine
  with diagnostics and degrade to rebuild-from-OSON — never fatal.
* **Projection** — :meth:`scan_rows` materializes only the named
  columns (the ``imc.columns_read`` counter is the observable contract:
  it advances by exactly the number of columns a query touches).

Locking: ``_lock`` (``imc.store``) guards every piece of shared state.
IMC code calls storage accessors *under* its lock (imc→storage is the
one sanctioned lock order); the storage layer only ever calls back in
through the registered provider with **no storage lock held**.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.engine.table import Table
from repro.errors import CatalogError, StorageError
from repro.imc.columns import ColumnVector
from repro.imc.delta import TableDelta
from repro.imc.segments import (SegmentQuarantine, decode_column_segment,
                                encodable_values)
from repro.obs import locks as _locks
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: population runs and the store's resident vector bytes (a gauge:
#: evictions move it back down)
_POPULATES = _metrics.counter("imc.populates")
_RESIDENT_BYTES = _metrics.gauge("imc.resident_bytes")
#: projection pushdown contract: columns actually read by IMC scans
_COLUMNS_READ = _metrics.counter("imc.columns_read")
#: durable-segment traffic: cold-start loads and quarantined segments
_SEGMENT_LOADS = _metrics.counter("imc.segment_loads")
_SEGMENT_QUARANTINES = _metrics.counter("imc.segment_quarantines")


class _TableState:
    """Per-table cache state: canonical column values + delta buffer.

    ``values[name]`` is the exact Python value list, heap-row-aligned —
    the numpy vectors are derived from it, and scans/segments serve it
    directly, so columnar answers are byte-identical to row mode.
    ``doc_ids`` aligns the rows' doc ids."""

    __slots__ = ("table", "delta", "doc_ids", "values")

    def __init__(self, table: Table) -> None:
        self.table = table
        self.delta = TableDelta()
        self.doc_ids: List[int] = []
        self.values: Dict[str, List[Any]] = {}


class IMCStore:
    """An in-memory columnar cache of selected table columns."""

    def __init__(self) -> None:
        # serializes all cache state: vector map, per-table states,
        # quarantine log.  Storage accessors may be called under it
        # (imc→storage); the reverse never happens.
        self._lock = _locks.make_lock("imc.store")
        self._segments: Dict[tuple, ColumnVector] = {}  # guarded-by: _lock
        self._tables: Dict[str, _TableState] = {}       # guarded-by: _lock
        self._quarantines: List[SegmentQuarantine] = []  # guarded-by: _lock

    # -- public API --------------------------------------------------------

    def bind(self, table: Table) -> None:
        """Attach a table without loading anything: wire the coherence
        listeners and (for durable tables) register the segment-lift
        provider so the next checkpoint persists populated columns."""
        with self._lock:
            self._ensure_state(table)

    def populate(self, table: Table,
                 columns: Optional[Sequence[str]] = None
                 ) -> list[ColumnVector]:
        """Load ``columns`` of ``table`` (default: all) into vectors.

        Duplicate names are populated once (first occurrence wins the
        ordering).  For a durable table with pinned column segments the
        values come from the segments — no extraction scan, no
        ``imc.populate`` span — and only rows the store marks dirty are
        computed from the heap.  Otherwise this is the moment the
        JSON_VALUE extraction cost is paid, once, instead of per query.
        """
        names = _dedupe(columns if columns is not None
                        else table.column_names)
        for name in names:
            table.column(name)  # raises CatalogError for unknown columns
        with self._lock:
            state = self._ensure_state(table)
            self._refresh(state)
            self._load_columns(state, names)
            return [self._segments[(table.name, name)] for name in names]

    def scan_rows(self, table: Table,
                  names: Sequence[str]) -> List[Dict[str, Any]]:
        """The merged columnar scan: row dicts carrying **only** the
        named columns, base segments plus the row-wise delta absorbed.
        Exactly ``len(names)`` columns are loaded (projection pushdown);
        ``imc.columns_read`` advances by that count."""
        names = _dedupe(names)
        for name in names:
            table.column(name)
        with self._lock:
            state = self._ensure_state(table)
            self._refresh(state)
            missing = [n for n in names if n not in state.values]
            if missing:
                self._load_columns(state, missing)
            _COLUMNS_READ.inc(len(names))
            cols = [state.values[name] for name in names]
            count = len(cols[0]) if cols else 0
            return [{name: cols[j][i] for j, name in enumerate(names)}
                    for i in range(count)]

    def column(self, table_name: str, column_name: str) -> ColumnVector:
        with self._lock:
            state = self._tables.get(table_name)
            if state is not None:
                self._refresh(state)  # absorb DML before serving
            try:
                return self._segments[(table_name, column_name)]
            except KeyError:
                raise CatalogError(
                    f"column {table_name}.{column_name} is not "
                    f"IMC-populated") from None

    def is_populated(self, table_name: str, column_name: str) -> bool:
        with self._lock:
            return (table_name, column_name) in self._segments

    def evict(self, table_name: str,
              column_name: Optional[str] = None) -> None:
        with self._lock:
            state = self._tables.get(table_name)
            if column_name is not None:
                self._segments.pop((table_name, column_name), None)
                if state is not None:
                    state.values.pop(column_name, None)
            else:
                for key in [k for k in self._segments
                            if k[0] == table_name]:
                    del self._segments[key]
                if state is not None:
                    state.values = {}
                    state.delta.clear()
            _RESIDENT_BYTES.set(self._memory_bytes())

    def memory_bytes(self) -> int:
        with self._lock:
            return self._memory_bytes()

    def segment_quarantines(self) -> List[SegmentQuarantine]:
        """Segments skipped instead of trusted (corrupt/missing/
        mismatched), in load order — the degraded-read audit trail."""
        with self._lock:
            return list(self._quarantines)

    # -- internals (call with _lock held) ----------------------------------

    def _memory_bytes(self) -> int:
        return sum(v.memory_bytes() for v in self._segments.values())

    @_locks.guarded_by("_lock")
    def _ensure_state(self, table: Table) -> _TableState:
        state = self._tables.get(table.name)
        if state is not None and state.table is table:
            return state
        state = _TableState(table)
        self._tables[table.name] = state
        self._wire(table, state)
        return state

    def _wire(self, table: Table, state: _TableState) -> None:
        """Coherence listeners + (durable) the checkpoint-lift provider.
        Listener closures check the state is still current so a table
        re-bound under the same name cannot cross-talk."""
        def on_insert(doc_id: int, row: dict,
                      state: _TableState = state) -> None:
            with self._lock:
                if self._tables.get(state.table.name) is state:
                    state.delta.note_insert(doc_id, row)

        def on_delete(doc_id: int, row: dict,
                      state: _TableState = state) -> None:
            with self._lock:
                if self._tables.get(state.table.name) is state:
                    state.delta.note_delete()

        table.on_insert(on_insert)
        table.on_delete(on_delete)
        table.imc = self  # plan rewrite discovers the binding here
        store = _durable_store(table)
        if store is not None:
            store.set_imc_provider(self._make_provider(state))

    def _make_provider(self, state: _TableState) -> Any:
        """The checkpoint/compact lift callback: the current absorbed
        columnar form, keyed and sorted by document id.  The storage
        layer calls it with **no storage lock held**; rows written after
        the lift's snapshot are covered by the segment horizon (recovery
        marks them dirty), so serving the live state here is sound."""
        def provider(snapshot: Any) -> Optional[List[tuple]]:
            with self._lock:
                if self._tables.get(state.table.name) is not state:
                    return None
                self._refresh(state)
                if not state.values:
                    return None
                out = []
                for name in state.values:
                    pairs = sorted(zip(state.doc_ids, state.values[name]))
                    doc_ids = [doc_id for doc_id, _ in pairs]
                    values = [value for _, value in pairs]
                    if not encodable_values(values):
                        continue  # stays rebuild-from-OSON
                    out.append((state.table.name, name, doc_ids, values))
                return out or None
        return provider

    def _refresh(self, state: _TableState) -> None:
        """Absorb the table's delta before serving columnar state."""
        delta = state.delta
        if not delta.dirty:
            return
        if not state.values:
            delta.clear()
            return
        if delta.structural:
            names = list(state.values)
            state.values = {}
            delta.clear()
            self._load_columns(state, names)
            return
        appended = [row for _doc_id, row in delta.appended]
        state.doc_ids.extend(doc_id for doc_id, _row in delta.appended)
        delta.clear()
        for name, values in state.values.items():
            values.extend(_computed_values(state.table, name, appended))
        self._rebuild_vectors(state, list(state.values))

    def _load_columns(self, state: _TableState,
                      names: Sequence[str]) -> None:
        """(Re)load columns: pinned durable segments where available
        and verified, extraction from the rows otherwise."""
        table = state.table
        pairs = table.doc_id_rows()
        state.doc_ids = [doc_id for doc_id, _ in pairs]
        rows = [row for _, row in pairs]
        store = _durable_store(table)
        if store is not None:
            entries = {entry["column"]: entry
                       for entry in store.imc_segments()
                       if entry["table"] == table.name}
            dirty = store.imc_dirty_ids()
        else:
            entries = {}
            dirty = set()
        from_segments = [n for n in names if n in entries]
        computed = [n for n in names if n not in entries]
        if from_segments:
            with _trace.span("imc.segment_load", table=table.name) as s:
                loaded = 0
                for name in from_segments:
                    values = self._segment_values(store, table, name,
                                                  entries[name], dirty,
                                                  pairs)
                    if values is None:
                        computed.append(name)  # degraded: rebuild
                        continue
                    state.values[name] = values
                    loaded += 1
                s.record("rows", len(pairs))
                s.record("columns", loaded)
            _SEGMENT_LOADS.inc(loaded)
        if computed:
            with _trace.span("imc.populate", table=table.name) as s:
                for name in computed:
                    state.values[name] = _computed_values(table, name, rows)
                s.record("rows", len(rows))
                s.record("columns", len(computed))
            _POPULATES.inc()
        self._rebuild_vectors(state, names)

    def _segment_values(self, store: Any, table: Table, name: str,
                        entry: dict, dirty: set,
                        pairs: List[tuple]) -> Optional[List[Any]]:
        """Heap-aligned values from one pinned segment; None (with a
        quarantine) when the segment cannot be trusted."""
        try:
            data = store.read_imc_segment(entry["name"])
        except (StorageError, OSError) as exc:
            self._quarantine(entry, f"unreadable: {exc}")
            return None
        if len(data) != entry["length"]:
            data = data[:entry["length"]]
        try:
            segment = decode_column_segment(data)
        except StorageError as exc:
            self._quarantine(entry, str(exc))
            return None
        if segment.table != table.name or segment.column != name:
            self._quarantine(
                entry, f"claims {segment.table}.{segment.column}")
            return None
        base = dict(zip(segment.doc_ids, segment.values))
        column = table.column(name)
        fn = (None if column.expression is None
              else column.expression.compiled())
        values = []
        for doc_id, row in pairs:
            if doc_id in base and doc_id not in dirty:
                values.append(base[doc_id])
            elif fn is not None:
                values.append(fn(row))
            else:
                values.append(row.get(name))
        return values

    @_locks.guarded_by("_lock")
    def _quarantine(self, entry: dict, reason: str) -> None:
        quarantine = SegmentQuarantine(
            name=entry["name"], table=entry["table"],
            column=entry["column"], reason=reason)
        self._quarantines.append(quarantine)
        _SEGMENT_QUARANTINES.inc()

    @_locks.guarded_by("_lock")
    def _rebuild_vectors(self, state: _TableState,
                         names: Sequence[str]) -> None:
        for name in names:
            self._segments[(state.table.name, name)] = \
                ColumnVector.from_values(name, state.values[name])
        _RESIDENT_BYTES.set(self._memory_bytes())


def _dedupe(names: Sequence[str]) -> List[str]:
    """Order-preserving dedupe (first occurrence wins)."""
    seen = set()
    out = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _durable_store(table: Table) -> Optional[Any]:
    """The table's segment-capable backing store, if any (sharded
    stores have no per-store segment pinning and stay rebuild-only)."""
    store = getattr(table, "store", None)
    if store is not None and hasattr(store, "imc_segments"):
        return store
    return None


def _computed_values(table: Table, name: str,
                     rows: Sequence[dict]) -> List[Any]:
    """One column's values extracted from stored rows (virtual columns
    evaluated here — the priced extraction moment)."""
    column = table.column(name)
    if column.expression is not None:
        fn = column.expression.compiled()
        return [fn(row) for row in rows]
    return [row.get(name) for row in rows]
