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

Listener = Callable[[int, dict], None]  # listener(doc_id, row)


@dataclass
class Column:
    """A table column.  ``expression`` marks it virtual (computed)."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    expression: Optional[Expression] = None

    @property
    def is_virtual(self) -> bool:
        return self.expression is not None

    @classmethod
    def of(cls, name: str, type_spec: str, **kwargs: Any) -> "Column":
        """Construct from a textual type spec, e.g. ``Column.of("id", "number")``."""
        return cls(name, parse_type(type_spec), **kwargs)


class Table:
    """A heap table: rows, columns, constraints, insert/update/delete.

    The table owns row identity: its heap maps doc id → stored row in
    insert order, and listeners and secondary structures key by it."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise CatalogError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {name}")
        self.name = name
        self._columns: dict[str, Column] = {c.name: c for c in columns}
        # inserts add in place; update and delete rebind a new dict, so
        # a scan's one-step snapshot sees each row once beside any DML
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_doc_id = 0
        self._constraints: list[Constraint] = []
        self._insert_listeners: list[Listener] = []
        self._delete_listeners: list[Listener] = []
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

    def on_insert(self, listener: Listener) -> None:
        """Call ``listener(doc_id, row)`` for each row that lands."""
        self._insert_listeners.append(listener)

    def on_delete(self, listener: Listener) -> None:
        """Call ``listener(doc_id, row)`` for each row deleted."""
        self._delete_listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        """Stop calling ``listener`` on insert and on delete."""
        for listeners in (self._insert_listeners, self._delete_listeners):
            if listener in listeners:
                listeners.remove(listener)

    # -- DML ---------------------------------------------------------------------

    def _prepare_insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate one row for insert — coerce types, fill NULL
        defaults, run constraints — without landing it or firing
        listeners.  This is the staging half of an insert: batched
        paths validate every row first, then land them together.

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

    def _assign_ids(self, rows: list[dict[str, Any]]
                    ) -> tuple[Sequence[int], Any]:
        """Doc ids for validated rows about to land, and the handle that
        acknowledges their write (None: nothing to wait for).  A durable
        table stages its store write here, before any row lands."""
        first = self._next_doc_id
        self._next_doc_id = first + len(rows)
        return range(first, self._next_doc_id), None

    def _await(self, handle: Any) -> None:
        """Block until the write behind ``handle`` is acknowledged."""

    def _persist_delete(self, doc_id: int) -> None:
        """Make one row's delete durable, before it leaves the heap."""

    def _land(self, rows: Iterable[dict[str, Any]]
              ) -> tuple[list[dict[str, Any]], Any]:
        """Every insert's one path: validate all rows, assign their ids,
        then land them and fire the insert listeners.  Returns the
        stored rows and the write's handle."""
        prepared = [self._prepare_insert(row) for row in rows]
        if not prepared:
            return prepared, None
        doc_ids, handle = self._assign_ids(prepared)
        for doc_id, stored in zip(doc_ids, prepared):
            self._rows[doc_id] = stored
            for listener in self._insert_listeners:
                listener(doc_id, stored)
        return prepared, handle

    def insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Insert one row: coerce types, run constraints, fire listeners."""
        (stored,), handle = self._land([row])
        self._await(handle)
        return stored

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> int:
        """Insert a batch, validating every row before the first lands:
        a constraint failure anywhere leaves the table unchanged.  A
        durable table writes the batch as **one** logical commit."""
        prepared, handle = self._land(rows)
        self._await(handle)
        return len(prepared)

    def insert_many_pending(self, rows: Iterable[dict[str, Any]]) -> Any:
        """:meth:`insert_many` without the durability wait.  Returns the
        commit handle — ``None`` when there is nothing to wait for (an
        empty batch, or a table without a store).  A durable batch is
        acknowledged only once ``table.store.pipeline.wait(handle)``
        returns, and a snapshot holds all of its rows or none of them.

        This is the serving layer's write path: the caller serializes
        heap mutation (this method) under its write lock but performs
        the durability wait *outside* it, so many sessions' commits can
        share one fsync.  Until the handle resolves, the rows are
        visible to live ``scan()`` but to no snapshot."""
        return self._land(rows)[1]

    def delete(self, predicate: Callable[[dict], Any]) -> int:
        """Delete rows matching ``predicate``; returns the count removed."""
        moved: dict[int, Optional[tuple]] = {}
        try:
            for doc_id, row in list(self._rows.items()):
                if predicate(row):
                    self._persist_delete(doc_id)
                    moved[doc_id] = None
                    for listener in self._delete_listeners:
                        listener(doc_id, row)
        finally:
            self._rekey(moved)
        return len(moved)

    def update(self, predicate: Callable[[dict], Any],
               changes: dict[str, Any]) -> int:
        """Update matching rows with replace semantics: each is deleted
        and re-inserted under a new doc id at the same heap position,
        and delete + insert listeners fire so indexes stay in sync.
        Every new row is validated before the first write, so a
        coercion or constraint failure leaves the table unchanged."""
        coerced: dict[str, Any] = {}
        for key, value in changes.items():
            column = self.column(key)
            if column.is_virtual:
                raise EngineError(f"cannot update virtual column {key!r}")
            coerced[key] = column.sql_type.coerce(value)
        staged = []
        for doc_id, row in list(self._rows.items()):
            if predicate(row):
                candidate = {**row, **coerced}
                for constraint in self._constraints:
                    constraint.check(candidate)
                staged.append((doc_id, row, candidate))
        moved: dict[int, Optional[tuple]] = {}
        try:
            for doc_id, row, candidate in staged:
                self._persist_delete(doc_id)
                moved[doc_id] = None
                for listener in self._delete_listeners:
                    listener(doc_id, row)
                (new_id,), handle = self._assign_ids([candidate])
                moved[doc_id] = (new_id, candidate)
                for listener in self._insert_listeners:
                    listener(new_id, candidate)
                self._await(handle)
        finally:
            self._rekey(moved)
        return len(moved)

    def _rekey(self, moved: dict[int, Optional[tuple]]) -> None:
        """Rebind the heap with each ``moved`` doc id's row replaced in
        place by its ``(new doc id, row)``, or dropped for None.  One
        new dict: a scan's snapshot holds the old heap or the new one."""
        if moved:
            heap = {}
            for doc_id, row in list(self._rows.items()):
                entry = moved.get(doc_id, (doc_id, row))
                if entry is not None:
                    heap[entry[0]] = entry[1]
            self._rows = heap

    # -- reads --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def scan(self) -> Iterator[dict[str, Any]]:
        """Full scan; virtual columns are computed into each output row."""
        rows = list(self._rows.values())  # one step: a consistent snapshot
        virtuals = [c for c in self._columns.values() if c.is_virtual]
        if not virtuals:
            yield from rows
            return
        computed = [(c.name, c.expression.compiled()) for c in virtuals]
        for row in rows:
            out = dict(row)
            for name, fn in computed:
                out[name] = fn(row)
            yield out

    def doc_id_rows(self) -> list[tuple[int, dict[str, Any]]]:
        """(doc id, stored row) pairs in heap order; stored rows carry no
        virtual columns."""
        return list(self._rows.items())

    def rows_by_id(self, doc_ids: Iterable[int]) -> list[dict[str, Any]]:
        """The stored rows of ``doc_ids`` still in the heap, in order."""
        rows = self._rows
        return [rows[doc_id] for doc_id in doc_ids if doc_id in rows]

    # -- storage accounting (Figure 4) -----------------------------------------------

    def storage_bytes(self) -> int:
        """Estimated heap bytes: per-value type storage + row header."""
        total = 0
        stored_columns = [c for c in self._columns.values() if not c.is_virtual]
        for row in self._rows.values():
            total += 3  # row header
            for column in stored_columns:
                total += column.sql_type.storage_bytes(row.get(column.name))
        return total


class DurableTable(Table):
    """A heap table write-through-backed by a crash-safe
    :class:`~repro.storage.store.CollectionStore`.

    Every committed row lives as one OSON document in the store's WAL/
    segments under the row's doc id.  The store write is staged before
    rows land, and an update is persisted as delete + insert (a new doc
    id), exactly the replace semantics the indexes see.  Opening the
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
        # restore the surviving documents: no constraint re-check, no
        # listener firing — they were validated and acknowledged before
        stored_names = {c.name for c in columns if not c.is_virtual}
        for doc_id, document in store.documents():
            row = _document_to_row(document)
            unknown = set(row) - stored_names
            if unknown:
                raise EngineError(
                    f"durable table {name}: recovered document "
                    f"{doc_id} carries unknown columns {sorted(unknown)}")
            for column in stored_names - set(row):
                row[column] = None
            self._rows[doc_id] = row

    @property
    def store(self) -> Any:
        return self._store

    @property
    def recovery(self) -> Any:
        """The last recovery report (None for a freshly created store)."""
        return self._store.recovery

    # -- write-through: ids come from the store ----------------------------

    def _assign_ids(self, rows: list[dict[str, Any]]
                    ) -> tuple[Sequence[int], Any]:
        # the whole batch is one logical commit (one WAL fsync, one
        # acknowledgement); a refused write raises before any row lands
        return self._store.insert_many_async(
            [_row_to_document(row) for row in rows])

    def _await(self, handle: Any) -> None:
        if handle is not None:
            self._store.pipeline.wait(handle)

    def _persist_delete(self, doc_id: int) -> None:
        self._store.delete(doc_id)

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
