"""Instance skeleton extraction and collection merge (section 3.1).

``instance_entries`` computes the DataGuide of a *single* document: the
container-node skeleton of its DOM tree with leaf scalars replaced by
type and length.  :class:`DataGuideBuilder` merges instance skeletons
across a collection, removing duplicate tree paths with matching node
kinds and generalizing conflicting leaf types.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Optional

from repro.core.dataguide import model
from repro.core.dataguide.guide import DataGuide
from repro.core.dataguide.model import PathEntry, child_path, scalar_type_of


def instance_entries(value: Any, root: str = "$") -> dict[tuple[str, str], PathEntry]:
    """Extract the per-instance DataGuide skeleton of one JSON value.

    Returns entries keyed by ``(path, kind)``.  Within a single document
    a path can be hit repeatedly (array elements); hits merge immediately,
    but ``frequency`` stays per-document (0/1) so collection counts mean
    "documents containing the path", as in the paper's ``$DG`` stats.
    """
    entries: dict[tuple[str, str], PathEntry] = {}
    _walk(value, root, False, entries)
    for entry in entries.values():
        entry.frequency = 1
    return entries


def _walk(value: Any, path: str, in_array: bool,
          entries: dict[tuple[str, str], PathEntry]) -> None:
    if isinstance(value, dict):
        _record(entries, PathEntry(path, model.OBJECT, in_array=in_array))
        for name, item in value.items():
            _walk(item, child_path(path, name), in_array, entries)
    elif isinstance(value, (list, tuple)):
        _record(entries, PathEntry(path, model.ARRAY, in_array=in_array))
        for item in value:
            if isinstance(item, dict):
                # element objects do not add their own entry; their named
                # fields descend with the array flag set
                for name, sub in item.items():
                    _walk(sub, child_path(path, name), True, entries)
            elif isinstance(item, (list, tuple)):
                _walk(item, path, True, entries)
            else:
                _record(entries, _scalar_entry(path, item, True))
    else:
        _record(entries, _scalar_entry(path, value, in_array))


def _scalar_entry(path: str, value: Any, in_array: bool) -> PathEntry:
    scalar_type = scalar_type_of(value)
    entry = PathEntry(path, model.SCALAR, scalar_type=scalar_type,
                      in_array=in_array)
    if isinstance(value, str):
        entry.max_length = len(value)
    if value is None:
        entry.null_count = 1
    elif not isinstance(value, bool):
        entry.min_value = value
        entry.max_value = value
    return entry


def _record(entries: dict[tuple[str, str], PathEntry], entry: PathEntry) -> None:
    existing = entries.get(entry.key)
    if existing is None:
        entries[entry.key] = entry
    else:
        existing.merge_in_place(entry)


class DataGuideBuilder:
    """Merges instance skeletons into a collection DataGuide.

    The one DataGuide merge: JSON_DATAGUIDEAGG (transient), the durable
    store, recovery and the JSON search index's ``$DG`` table
    (persistent) all maintain their guide through it.  ``add`` returns
    the keys whose entry is new or structurally changed — exactly the
    ``$DG`` rows to (re)write — and an empty list is the paper's
    no-change fast path that "terminates without calling any persistent
    DataGuide processing module".
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], PathEntry] = {}
        self.documents_seen = 0

    def add(self, value: Any) -> list[tuple[str, str]]:
        """Merge one document; returns keys of entries that are new or
        changed structurally (type, array flag or max length)."""
        self.documents_seen += 1
        changed: list[tuple[str, str]] = []
        for key, entry in instance_entries(value).items():
            existing = self._entries.get(key)
            if existing is None:
                self._entries[key] = entry
                changed.append(key)
            elif existing.merge_in_place(entry):
                changed.append(key)
        return changed

    def add_many(self, values: Iterable[Any]) -> int:
        count = 0
        for value in values:
            self.add(value)
            count += 1
        return count

    def merge_builder(self, other: "DataGuideBuilder") -> None:
        """Merge another builder's state (parallel aggregation combine);
        ``other`` is left unchanged."""
        for key, entry in other._entries.items():
            existing = self._entries.get(key)
            if existing is None:
                self._entries[key] = replace(entry)
            else:
                existing.merge_in_place(entry)
        self.documents_seen += other.documents_seen

    def entry(self, key: tuple[str, str]) -> Optional[PathEntry]:
        return self._entries.get(key)

    def entries(self) -> list[PathEntry]:
        return list(self._entries.values())

    def guide(self) -> DataGuide:
        """Snapshot the merged state as an immutable :class:`DataGuide`."""
        return DataGuide(self.entries(), self.documents_seen)
