"""Row-wise delta buffers over a columnar base (the LSM read path).

The AsterixDB-style tuple-compaction shape: DML lands row-wise, the
columnar form is only rebuilt when it has to be.  A
:class:`TableDelta` records what changed on one table since its
columnar base was cut:

* **inserts** append ``(doc_id, row)`` to ``appended`` — a merged
  scan absorbs them by evaluating just the new rows' column values and
  extending the vectors and the doc ids (no rescan of the base);
* **any delete** — including the delete half of an update, which fires
  as delete + insert under a new doc id — sets ``structural``: row
  positions shifted under the base, so the next access rebuilds the
  affected columns from the current rows.

Instances are plain state owned by :class:`~repro.imc.store.IMCStore`
and guarded by its lock (the listeners that feed them run under it);
they take no locks of their own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class TableDelta:
    """What changed on one table since its columnar base was cut."""

    __slots__ = ("appended", "structural")

    def __init__(self) -> None:
        self.appended: List[Tuple[int, Dict[str, Any]]] = []
        self.structural = False

    @property
    def dirty(self) -> bool:
        return self.structural or bool(self.appended)

    def note_insert(self, doc_id: int, row: Dict[str, Any]) -> None:
        self.appended.append((doc_id, row))

    def note_delete(self) -> None:
        # positions shifted: pending appends will be re-seen by the
        # rebuild scan, so buffering them further would double-count
        self.structural = True
        self.appended.clear()

    def clear(self) -> None:
        self.appended.clear()
        self.structural = False
