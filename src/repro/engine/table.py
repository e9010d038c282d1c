"""Heap tables with typed columns, constraints and virtual columns.

Rows are stored as plain dicts keyed by column name.  Virtual columns
(section 3.3.1 / 5.2.1) carry an expression instead of storage: their
value is computed on read and never occupies heap bytes.  ``AddVC`` in
the DataGuide package creates JSON_VALUE-backed virtual columns here,
and the hidden OSON virtual column of section 5.2.2 is also expressed
this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.engine.constraints import Constraint, IsJsonConstraint
from repro.engine.expressions import Expression
from repro.engine.types import SqlType, parse_type
from repro.errors import CatalogError, EngineError


@dataclass
class Column:
    """A table column.  ``expression`` marks it virtual (computed)."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    expression: Optional[Expression] = None
    hidden: bool = False

    @property
    def is_virtual(self) -> bool:
        return self.expression is not None

    @classmethod
    def of(cls, name: str, type_spec: str, **kwargs: Any) -> "Column":
        """Construct from a textual type spec, e.g. ``Column.of("id", "number")``."""
        return cls(name, parse_type(type_spec), **kwargs)


class Table:
    """A heap table: rows, columns, constraints, insert/update/delete."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise CatalogError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name}")
        self.name = name
        self._columns: dict[str, Column] = {c.name: c for c in columns}
        self._rows: list[dict[str, Any]] = []
        self._constraints: list[Constraint] = []
        self._insert_listeners: list[Callable[[dict], None]] = []
        self._delete_listeners: list[Callable[[dict], None]] = []
        #: the columnar cache this table is bound into, if any — set by
        #: :meth:`repro.imc.store.IMCStore.bind`; the plan rewrite uses
        #: it to narrow scans to the referenced columns (§5.2)
        self.imc: Optional[Any] = None

    # -- schema ------------------------------------------------------------

    @property
    def columns(self) -> list[Column]:
        return list(self._columns.values())

    @property
    def column_names(self) -> list[str]:
        return list(self._columns.keys())

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name}") from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def add_column(self, column: Column) -> None:
        """ALTER TABLE ADD — virtual columns may be added at any time;
        stored columns may only be added while they are nullable."""
        if column.name in self._columns:
            raise CatalogError(
                f"column {column.name!r} already exists in {self.name}")
        if not column.is_virtual and not column.nullable and self._rows:
            raise EngineError(
                "cannot add a NOT NULL stored column to a non-empty table")
        self._columns[column.name] = column

    def add_constraint(self, constraint: Constraint) -> None:
        self._constraints.append(constraint)

    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    def is_json_constraint(self, column: str) -> Optional[IsJsonConstraint]:
        """The IS JSON constraint guarding ``column``, if any."""
        for constraint in self._constraints:
            if (isinstance(constraint, IsJsonConstraint)
                    and constraint.column == column):
                return constraint
        return None

    # -- listeners (index maintenance) ----------------------------------------

    def on_insert(self, listener: Callable[[dict], None]) -> None:
        self._insert_listeners.append(listener)

    def on_delete(self, listener: Callable[[dict], None]) -> None:
        self._delete_listeners.append(listener)

    # -- DML ---------------------------------------------------------------------

    def _prepare_insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate one row for insert — coerce types, fill NULL
        defaults, run constraints — without appending it or firing
        listeners.  This is the staging half of an insert: batched
        paths validate every row first, then commit them together.

        Unknown keys raise; missing stored columns default to NULL;
        virtual columns must not be supplied.
        """
        stored: dict[str, Any] = {}
        for key, value in row.items():
            column = self.column(key)
            if column.is_virtual:
                raise EngineError(
                    f"cannot insert into virtual column {key!r}")
            stored[key] = column.sql_type.coerce(value)
        for column in self._columns.values():
            if column.is_virtual:
                continue
            if column.name not in stored:
                if not column.nullable:
                    raise EngineError(
                        f"column {column.name!r} is NOT NULL and has no value")
                stored[column.name] = None
        for constraint in self._constraints:
            constraint.check(stored)
        return stored

    def insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Insert one row: coerce types, run constraints, fire listeners."""
        stored = self._prepare_insert(row)
        self._rows.append(stored)
        for listener in self._insert_listeners:
            listener(stored)
        return stored

    def insert_many(self, rows: Sequence[dict[str, Any]]) -> int:
        """Insert a batch, validating every row before the first lands:
        a constraint failure anywhere leaves the table unchanged."""
        prepared = [self._prepare_insert(row) for row in rows]
        for stored in prepared:
            self._rows.append(stored)
            for listener in self._insert_listeners:
                listener(stored)
        return len(prepared)

    def delete(self, predicate: Callable[[dict], Any]) -> int:
        """Delete rows matching ``predicate``; returns the count removed."""
        kept: list[dict[str, Any]] = []
        removed = 0
        for row in self._rows:
            if predicate(row):
                removed += 1
                for listener in self._delete_listeners:
                    listener(row)
            else:
                kept.append(row)
        self._rows = kept
        return removed

    def update(self, predicate: Callable[[dict], Any],
               changes: dict[str, Any]) -> int:
        """Update matching rows in place (replace semantics: delete+insert
        listeners fire so indexes stay in sync)."""
        coerced: dict[str, Any] = {}
        for key, value in changes.items():
            column = self.column(key)
            if column.is_virtual:
                raise EngineError(f"cannot update virtual column {key!r}")
            coerced[key] = column.sql_type.coerce(value)
        updated = 0
        for row in self._rows:
            if not predicate(row):
                continue
            # validate against a copy before any side effect: once the
            # delete listeners fire, backing state (indexes, durable
            # documents) is already gone, so a constraint failure after
            # that point would strand the row
            candidate = dict(row)
            candidate.update(coerced)
            for constraint in self._constraints:
                constraint.check(candidate)
            for listener in self._delete_listeners:
                listener(row)
            row.update(coerced)
            for listener in self._insert_listeners:
                listener(row)
            updated += 1
        return updated

    # -- reads --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[dict[str, Any]]:
        """Full scan; virtual columns are computed into each output row."""
        virtuals = [c for c in self._columns.values() if c.is_virtual]
        if not virtuals:
            yield from iter(self._rows)
            return
        computed = [(c.name, c.expression.compiled()) for c in virtuals]
        for row in self._rows:
            out = dict(row)
            for name, fn in computed:
                out[name] = fn(row)
            yield out

    def raw_rows(self) -> list[dict[str, Any]]:
        """Stored rows without virtual-column evaluation (internal use)."""
        return self._rows

    # -- storage accounting (Figure 4) -----------------------------------------------

    def storage_bytes(self) -> int:
        """Estimated heap bytes: per-value type storage + row header."""
        total = 0
        stored_columns = [c for c in self._columns.values() if not c.is_virtual]
        for row in self._rows:
            total += 3  # row header
            for column in stored_columns:
                total += column.sql_type.storage_bytes(row.get(column.name))
        return total


class DurableTable(Table):
    """A heap table write-through-backed by a crash-safe
    :class:`~repro.storage.store.CollectionStore`.

    Every committed row lives as one OSON document in the store's WAL/
    segments; insert/update/delete ride the table's existing listener
    protocol (an update is persisted as delete + insert, exactly the
    replace semantics the in-memory indexes already see).  Opening the
    same directory again restores the rows through verified recovery —
    quarantined (corrupt) documents are reported on
    ``table.store.recovery`` and simply absent from the heap, never
    fatal.

    Binary values (RAW columns) are persisted as ``{"$raw": <hex>}``
    wrappers since JSON has no byte-string scalar; NUMBER values keep
    full fidelity through OSON's packed-decimal encoding.
    """

    def __init__(self, name: str, columns: Sequence[Column],
                 store: Any) -> None:
        super().__init__(name, columns)
        self._store = store
        self._row_doc_ids: dict[int, int] = {}
        self._restore_rows()
        self.on_insert(self._persist_insert)
        self.on_delete(self._persist_delete)

    @property
    def store(self) -> Any:
        return self._store

    @property
    def recovery(self) -> Any:
        """The last recovery report (None for a freshly created store)."""
        return self._store.recovery

    # -- write-through listeners -------------------------------------------

    def _persist_insert(self, row: dict) -> None:
        doc_id = self._store.insert(_row_to_document(row))
        self._row_doc_ids[id(row)] = doc_id

    def insert_many(self, rows: Sequence[dict[str, Any]]) -> int:
        """Insert a batch as **one** logical commit: every row is
        validated first, then all of them go to the store in a single
        group-commit batch (one WAL fsync, one acknowledgement) instead
        of paying a durability round-trip per row."""
        rows = list(rows)
        handle = self.insert_many_pending(rows)
        if handle is not None:
            self._store.pipeline.wait(handle)
        return len(rows)

    def insert_many_pending(self, rows: Sequence[dict[str, Any]]) -> Any:
        """Stage a batch without waiting for durability: every row is
        validated first (a failure anywhere leaves the table unchanged),
        the documents go to the store as **one** logical commit, then the
        rows are applied to the heap and the secondary listeners.
        Returns the commit handle (``None`` for an empty batch) — the
        batch is acknowledged only once
        ``table.store.pipeline.wait(handle)`` returns, and a snapshot
        holds all of its rows or none of them.

        This is the serving layer's write path: the caller serializes
        heap mutation (this method) under its write lock but performs
        the durability wait *outside* it, so many sessions' commits can
        share one fsync.  Until the handle resolves, the rows are
        visible to live ``scan()`` but to no snapshot."""
        prepared = [self._prepare_insert(row) for row in rows]
        if not prepared:
            return None
        doc_ids, handle = self._store.insert_many_async(
            [_row_to_document(stored) for stored in prepared])
        persist = self._persist_insert
        for stored, doc_id in zip(prepared, doc_ids):
            self._rows.append(stored)
            self._row_doc_ids[id(stored)] = doc_id
            for listener in self._insert_listeners:
                # the batch is already staged; fire only the other
                # listeners (index maintenance etc.)
                if listener != persist:
                    listener(stored)
        return handle

    def _persist_delete(self, row: dict) -> None:
        doc_id = self._row_doc_ids.pop(id(row), None)
        if doc_id is None:
            raise EngineError(
                f"row in durable table {self.name} has no backing "
                f"document (listener ordering broken?)")
        self._store.delete(doc_id)

    # -- restore ------------------------------------------------------------

    def _restore_rows(self) -> None:
        """Load surviving documents back into the heap (no constraint
        re-check, no listener firing: these rows were validated and
        acknowledged before the restart)."""
        stored_names = {c.name for c in self._columns.values()
                        if not c.is_virtual}
        for doc_id, document in self._store.documents():
            row = _document_to_row(document)
            unknown = set(row) - stored_names
            if unknown:
                raise EngineError(
                    f"durable table {self.name}: recovered document "
                    f"{doc_id} carries unknown columns {sorted(unknown)}")
            for name in stored_names - set(row):
                row[name] = None
            self._rows.append(row)
            self._row_doc_ids[id(row)] = doc_id

    # -- columnar (IMC) access ----------------------------------------------

    def doc_id_rows(self) -> list[tuple[int, dict[str, Any]]]:
        """(document id, stored row) pairs in heap order — the IMC
        loader's bridge between heap rows and the durable column
        segments keyed by document id."""
        return [(self.doc_id_of(row), row) for row in self._rows]

    def doc_id_of(self, row: dict[str, Any]) -> int:
        """The backing document id of a heap row object."""
        doc_id = self._row_doc_ids.get(id(row))
        if doc_id is None:
            raise EngineError(
                f"row in durable table {self.name} has no backing "
                f"document (listener ordering broken?)")
        return doc_id

    # -- snapshot reads -----------------------------------------------------

    def snapshot_scan(self, snapshot: Any = None
                      ) -> Iterator[dict[str, Any]]:
        """Scan rows from a pinned store snapshot instead of the live
        heap: the iteration sees one consistent durable state no matter
        how many commits land while it runs (long analytical scans
        never observe a partial batch).  Pass a snapshot from
        ``table.store.snapshot()`` to reuse one pin across several
        scans; omit it to pin the current state."""
        if snapshot is None:
            snapshot = self._store.snapshot()
        yield from self._document_rows(snapshot.documents())

    def _document_rows(self, documents: Iterable[tuple[int, Any]]
                       ) -> Iterator[dict[str, Any]]:
        """Rows of ``(doc_id, document)`` pairs: absent stored columns
        read NULL, virtual columns are evaluated per row."""
        stored_names = {c.name for c in self._columns.values()
                        if not c.is_virtual}
        computed = [(c.name, c.expression.compiled())
                    for c in self._columns.values() if c.is_virtual]
        for _, document in documents:
            row = _document_to_row(document)
            for name in stored_names - set(row):
                row[name] = None
            for name, fn in computed:
                row[name] = fn(row)
            yield row

    # -- scatter-gather (sharded stores) ------------------------------------

    def shard_plan(self, snapshot: Any = None) -> Optional[Any]:
        """The scatter plan over this table's shards, or None when the
        backing store is unsharded (the planner then keeps the ordinary
        single-stream scan).

        Pass a pinned :class:`~repro.storage.shard.ShardedSnapshot` to
        scatter over a session's snapshot; omit it to pin the current
        durable state.  Each shard's stream reconstructs rows exactly
        like :meth:`snapshot_scan`; its DataGuide is the one captured
        *with* that shard's snapshot, which is what makes partition
        pruning against it sound.
        """
        if not hasattr(self._store, "shard_guides"):
            return None
        from repro.engine.scatter import ShardInput, ShardPlanInfo
        if snapshot is None:
            snapshot = self._store.snapshot()
        shards = [
            ShardInput(index,
                       lambda index=index: self._document_rows(
                           snapshot.shard_documents(index)),
                       snapshot.guides[index])
            for index in range(snapshot.shard_count)]
        return ShardPlanInfo(self.name, shards, self.prune_path,
                             routing_field=self._store.routing_field,
                             shard_of_value=self._store.shard_of_value,
                             health=getattr(self._store, "health", None))

    def prune_path(self, column: str) -> Optional[str]:
        """The DataGuide path a stored column's values live at (``$.col``
        in the backing documents); None for virtual or unknown columns —
        those never contribute to pruning."""
        if not self.has_column(column) or self.column(column).is_virtual:
            return None
        from repro.core.dataguide.model import child_path
        return child_path("$", column)

    def checkpoint(self) -> None:
        self._store.checkpoint()

    def close(self) -> None:
        self._store.close()


def _row_to_document(row: dict) -> dict:
    document = {}
    for key, value in row.items():
        if isinstance(value, (bytes, bytearray)):
            document[key] = {"$raw": bytes(value).hex()}
        else:
            document[key] = value
    return document


def _document_to_row(document: dict) -> dict:
    row = {}
    for key, value in document.items():
        if isinstance(value, dict) and set(value) == {"$raw"}:
            row[key] = bytes.fromhex(value["$raw"])
        else:
            row[key] = value
    return row
