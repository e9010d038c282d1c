"""The ``$DG`` table: relational storage of the persistent DataGuide.

Section 3.2.1 stores the DataGuide inside the JSON search index as a
relational table with path, type and statistics columns (Tables 2/4/6).
:class:`DgTable` wraps an engine :class:`~repro.engine.table.Table` with
the protocol the index maintenance uses: ``upsert`` appends the row of a
newly discovered (path, kind) or rewrites the row of an entry whose
merged state changed (type generalization, a longer string), and
``write_statistics`` fills the stats columns when index statistics are
computed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.dataguide.model import PathEntry
from repro.engine.table import Column, Table
from repro.engine.types import BOOLEAN, NUMBER, VARCHAR2


def _dg_columns() -> list[Column]:
    return [
        Column("PATH", VARCHAR2(4000), nullable=False),
        Column("TYPE", VARCHAR2(64), nullable=False),
        Column("SCALAR_TYPE", VARCHAR2(16)),
        Column("IN_ARRAY", BOOLEAN),
        Column("MAX_LENGTH", NUMBER),
        Column("FREQUENCY", NUMBER),
        Column("NULL_COUNT", NUMBER),
        Column("MIN_VALUE", VARCHAR2(4000)),
        Column("MAX_VALUE", VARCHAR2(4000)),
    ]


class DgTable:
    """The per-index ``$DG`` table plus a (path, kind) -> row locator."""

    def __init__(self, index_name: str) -> None:
        self.table = Table(f"{index_name}$DG", _dg_columns())
        self._locator: dict[tuple[str, str], dict[str, Any]] = {}
        self.insert_count = 0  # rows ever written; Figure 8's write cost

    def __len__(self) -> int:
        return len(self.table)

    def upsert(self, entry: PathEntry) -> None:
        """Write the row of ``entry``: appended for a newly discovered
        (path, kind), rewritten in place for a known one."""
        row = self._locator.get(entry.key)
        if row is None:
            self._locator[entry.key] = self.table.insert(self._row_for(entry))
        else:
            row.update(self._row_for(entry))
        self.insert_count += 1

    def write_statistics(self, entries: list[PathEntry]) -> int:
        """Populate the statistics columns for all rows (the "computed
        when index statistics are gathered" pass)."""
        updated = 0
        for entry in entries:
            row = self._locator.get(entry.key)
            if row is None:
                continue
            rendered = entry.as_row()
            for column in ("FREQUENCY", "NULL_COUNT", "MIN_VALUE",
                           "MAX_VALUE", "MAX_LENGTH"):
                row[column] = rendered[column]
            updated += 1
        return updated

    def rows(self) -> list[dict[str, Any]]:
        return list(self.table.scan())

    def lookup(self, path: str, kind: Optional[str] = None) -> list[dict[str, Any]]:
        if kind is not None:
            row = self._locator.get((path, kind))
            return [row] if row is not None else []
        return [row for (p, _k), row in self._locator.items() if p == path]

    def _row_for(self, entry: PathEntry) -> dict[str, Any]:
        rendered = entry.as_row()
        # structural columns are always written; statistics stay NULL until
        # write_statistics runs, matching the paper's lazy stats population
        return {
            "PATH": rendered["PATH"],
            "TYPE": rendered["TYPE"],
            "SCALAR_TYPE": rendered["SCALAR_TYPE"],
            "IN_ARRAY": rendered["IN_ARRAY"],
            "MAX_LENGTH": rendered["MAX_LENGTH"],
        }
