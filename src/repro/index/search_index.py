"""The schema-agnostic JSON search index (section 3.2.1).

One index answers both structure discovery and content search over a JSON
column:

* an :class:`~repro.index.inverted.InvertedIndex` over field names, paths
  and tokenized leaf values accelerates JSON_EXISTS / JSON_TEXTCONTAINS;
* the persistent DataGuide: a
  :class:`~repro.core.dataguide.builder.DataGuideBuilder` — the same
  merge JSON_DATAGUIDEAGG runs — tracks every distinct path, and each
  entry its ``add`` reports as new or structurally changed is upserted
  into the ``$DG`` table once — "discovery and search of JSON structures
  are completely in synch".  On a structurally homogeneous collection
  ``add`` reports nothing, so no ``$DG`` row is written: the cheap
  no-change path Figure 7 isolates.

Postings are keyed by the table's doc id and applied only from the
table's listeners, so only rows that landed are indexed.  With an IS
JSON check constraint, the index piggybacks on its parse via a hook —
the paper's low-overhead integration: the hook stages the parse and the
insert listener applies it when the row lands.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

from repro.core.dataguide.builder import DataGuideBuilder
from repro.core.dataguide.guide import DataGuide
from repro.engine.constraints import decode_json
from repro.engine.table import Table
from repro.errors import IndexError_
from repro.index.dg_table import DgTable
from repro.index.inverted import InvertedIndex


class JsonSearchIndex:
    """A JSON search index over ``table.column``."""

    def __init__(self, name: str, table: Table, column: str,
                 dataguide: bool = True) -> None:
        if not table.has_column(column):
            raise IndexError_(
                f"table {table.name} has no column {column!r}")
        self.name = name
        self.table = table
        self.column = column
        self.inverted = InvertedIndex()
        self.dg_table = DgTable(name)
        self.builder = DataGuideBuilder() if dataguide else None
        # (row, parse) staged by the IS JSON hook, in staging order
        self._staged: deque[tuple[dict, Any]] = deque()
        self._constraint = table.is_json_constraint(column)
        if self._constraint is not None:
            # fuse into IS JSON validation: reuse its parsed value
            self._constraint.add_hook(self._stage_parse)
        table.on_insert(self._insert_listener)
        table.on_delete(self._delete_listener)
        for doc_id, row in table.doc_id_rows():  # rows already present
            self._insert_listener(doc_id, row)

    # -- maintenance hooks -------------------------------------------------------

    def _stage_parse(self, row: dict, parsed: Any) -> None:
        self._staged.append((row, parsed))

    def _parsed(self, row: dict) -> Any:
        """The parse staged for ``row`` (ones staged before it are for
        rows that never landed: dropped), else a fresh parse."""
        staged = self._staged
        while staged:
            candidate, parsed = staged.popleft()
            if candidate is row:
                return parsed
        return decode_json(row.get(self.column))

    def _insert_listener(self, doc_id: int, row: dict) -> None:
        if row.get(self.column) is not None:
            self._index(doc_id, self._parsed(row))

    def _index(self, doc_id: int, parsed: Any) -> None:
        self.inverted.add_document(doc_id, parsed)
        if self.builder is not None:
            for key in self.builder.add(parsed):
                self.dg_table.upsert(self.builder.entry(key))

    def _delete_listener(self, doc_id: int, row: dict) -> None:
        value = decode_json(row.get(self.column))
        if value is not None:
            self.inverted.remove_document(doc_id, value)
        # NOTE: the persistent DataGuide is additive — paths are not
        # removed on delete (section 3.4)

    def detach(self) -> None:
        """Unhook from the table (DROP INDEX)."""
        if self._constraint is not None:
            try:
                self._constraint.remove_hook(self._stage_parse)
            except ValueError:  # lint: ignore[silent-except] hook already detached; DROP INDEX is idempotent
                pass
        self.table.remove_listener(self._insert_listener)
        self.table.remove_listener(self._delete_listener)

    # -- search ----------------------------------------------------------------------

    def rows_for(self, doc_ids: Iterable[int]) -> list[dict]:
        return self.table.rows_by_id(sorted(doc_ids))

    def docs_with_path(self, path: str) -> list[dict]:
        """Index-accelerated JSON_EXISTS on a structural path."""
        return self.rows_for(self.inverted.docs_with_path(path))

    def docs_with_field(self, name: str) -> list[dict]:
        return self.rows_for(self.inverted.docs_with_field(name))

    def docs_with_keywords(self, keywords: str,
                           path: Optional[str] = None) -> list[dict]:
        """Index-accelerated JSON_TEXTCONTAINS."""
        return self.rows_for(self.inverted.docs_with_keywords(keywords, path))

    def docs_with_number(self, path: str, value: Any) -> list[dict]:
        return self.rows_for(self.inverted.docs_with_number(path, value))

    # -- DataGuide access ---------------------------------------------------------------

    def get_dataguide(self) -> DataGuide:
        """``getDataGuide()`` from the persistent indexing layer."""
        if self.builder is None:
            raise IndexError_(
                f"index {self.name} was created without DataGuide support")
        return self.builder.guide()

    def compute_statistics(self) -> int:
        """Fill the ``$DG`` statistics columns; returns the rows updated."""
        if self.builder is None:
            return 0
        return self.dg_table.write_statistics(self.builder.entries())
