"""External tables: In-Situ query processing over file-system JSON.

Section 3.4: "Oracle external table can map file system data as virtual
relational table on top of which JSON DataGuide can be computed and DMDV
view can be created for query.  Oracle SQL/JSON query support can
transparently read from external virtual table and thus enables the
In-Situ Query processing over JSON collection."

:class:`ExternalJsonTable` maps a JSON-lines file (one document per
line) as a scannable row source with a single JSON column.  It plugs
into everything that accepts a table-like object with ``scan()``:
``Query``, ``JSON_DATAGUIDEAGG``, ``create_view_on_path`` — no loading
step, the file is re-read per scan (that is the In-Situ trade-off).
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Optional

from repro.errors import EngineError, JsonParseError
from repro.jsontext import loads


class ExternalJsonTable:
    """A virtual relational table over a JSON-lines file.

    Rows have two columns: ``LINE`` (1-based line number, the pseudo
    rowid) and the JSON text column (default name ``JDOC``).  Blank
    lines are skipped; malformed lines raise unless ``skip_errors``, in
    which case they are counted in ``skipped_count`` (refreshed by each
    scan) instead of vanishing silently.  A leading UTF-8 BOM is
    tolerated.  The file's existence is re-checked at every ``scan()``
    — the file can legitimately disappear between the constructor and a
    later query (the In-Situ trade-off cuts both ways).
    """

    def __init__(self, path: str, json_column: str = "JDOC",
                 skip_errors: bool = False) -> None:
        if not os.path.exists(path):
            raise EngineError(f"external file not found: {path}")
        self.name = f"EXTERNAL({os.path.basename(path)})"
        self.path = path
        self.json_column = json_column
        self.skip_errors = skip_errors
        #: malformed lines skipped by the most recent scan
        self.skipped_count = 0

    @property
    def column_names(self) -> list[str]:
        return ["LINE", self.json_column]

    def has_column(self, name: str) -> bool:
        """Table-protocol compatibility (lets ``create_view_on_path``
        target an external table directly)."""
        return name in self.column_names

    def scan(self) -> Iterator[dict[str, Any]]:
        """Stream rows from the file; each scan re-reads it (In-Situ).

        Existence is re-checked here, not only in ``__init__``: the
        backing file may have been deleted or replaced between scans
        (TOCTOU), and the open itself can still lose that race, so both
        paths surface as :class:`EngineError` naming the file.
        """
        for line_number, text, _document in self._lines():
            yield {"LINE": line_number, self.json_column: text}

    def documents(self) -> Iterator[Any]:
        """Parsed documents only (for DataGuide aggregation)."""
        for _line_number, _text, document in self._lines():
            yield document

    def _lines(self) -> Iterator[tuple[int, str, Any]]:
        """``(line number, text, parsed document)`` per non-blank line:
        each line is parsed once, which is also its IS JSON check."""
        self.skipped_count = 0
        if not os.path.exists(self.path):
            raise EngineError(f"external file not found: {self.path}")
        try:
            # utf-8-sig: tolerate (and strip) a UTF-8 BOM first line
            handle = open(self.path, "r", encoding="utf-8-sig")
        except OSError as exc:
            raise EngineError(
                f"external file not found: {self.path} ({exc})") from exc
        with handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    document = loads(text)
                except JsonParseError:
                    if self.skip_errors:
                        self.skipped_count += 1
                        continue
                    raise EngineError(
                        f"{self.path}:{line_number}: malformed JSON line")
                yield line_number, text, document

    def dataguide(self, sample_percent: Optional[float] = None,
                  seed: Optional[int] = None):
        """Compute a transient DataGuide over the file without loading it
        into any table — the paper's In-Situ schema discovery."""
        from repro.core.dataguide import json_dataguide_agg
        return json_dataguide_agg(self.documents(),
                                  sample_percent=sample_percent, seed=seed)
