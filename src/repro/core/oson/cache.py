"""Field-id resolution caching (section 4.2.1's three optimizations).

1. *Compile-time hashing*: :class:`CompiledFieldName` computes the field
   name's hash once when a SQL/JSON path is compiled and stores it in the
   "execution plan" (the compiled path object).
2. *Per-instance resolution*: the first lookup against a document resolves
   the name to that document's field id using the precomputed hash.
3. *Single-row look-back*: :class:`FieldIdResolver` remembers the field id
   resolved on the previous document; before re-searching the dictionary it
   checks whether the cached id still denotes the same (hash, name) in the
   next document — on structurally homogeneous collections this check
   almost always succeeds, skipping the binary search entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.core.oson.decoder import OsonDocument
from repro.core.oson.hashing import field_name_hash
from repro.obs import metrics as _metrics

#: sentinel distinguishing "not cached" from "cached as absent"
_UNRESOLVED = -2
_ABSENT = -1


class CompiledFieldName:
    """A field name with its hash precomputed at path-compile time."""

    __slots__ = ("name", "hash", "_cached_id", "_cached_generation")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hash = field_name_hash(name)
        self._cached_id = _UNRESOLVED
        self._cached_generation = 0  # dictionary generations start at 1

    def __repr__(self) -> str:
        return f"CompiledFieldName({self.name!r}, hash=0x{self.hash:08x})"


class FieldIdResolver:
    """Resolves compiled field names against successive OSON documents.

    One resolver is held per query execution; it implements the
    single-row look-back across the document stream.  Statistics counters
    (`lookups`, `lookback_hits`) let tests and the ablation bench verify
    the optimization actually fires.
    """

    __slots__ = ("lookups", "lookback_hits")

    def __init__(self) -> None:
        self.lookups = 0
        self.lookback_hits = 0

    def resolve(self, doc: OsonDocument, compiled: CompiledFieldName) -> Optional[int]:
        """Return ``compiled``'s field id in ``doc``, or None if absent."""
        self.lookups += 1
        dictionary = doc.dictionary
        cached = compiled._cached_id
        if compiled._cached_generation == dictionary.generation:
            # generation fast path: interned dictionaries share one object
            # per distinct segment, so a matching generation proves the
            # cached resolution — including a cached *absence*, which the
            # (hash, name) look-back below can never validate
            self.lookback_hits += 1
            return None if cached < 0 else cached
        if cached >= 0:
            # look-back validation: same id, same hash, same name?
            # (reads the dictionary arrays directly — this check runs once
            # per field reference per document and must stay cheap)
            hashes = dictionary.hashes
            if (cached < len(hashes)
                    and hashes[cached] == compiled.hash
                    and dictionary.names[cached] == compiled.name):
                self.lookback_hits += 1
                compiled._cached_generation = dictionary.generation
                return cached
        # cache miss (or cached-as-absent, which cannot be validated cheaply):
        # fall back to the binary search over the sorted hash-id array
        field_id = doc.field_id(compiled.name, compiled.hash)
        compiled._cached_id = _ABSENT if field_id is None else field_id
        compiled._cached_generation = dictionary.generation
        return field_id


#: header+dictionary parses performed on behalf of a query (the cost the
#: adapter and DMDV row caches exist to avoid); EXPLAIN ANALYZE reports
#: this per operator
_DECODES = _metrics.counter("oson.document.decodes")


def open_document(data: bytes) -> OsonDocument:
    """An :class:`OsonDocument` over ``data``, counted in
    ``oson.document.decodes``.  Nothing is cached here: the one cache of
    decoded images is ``sqljson.oson_adapter``, keyed by image value."""
    _DECODES.inc()
    return OsonDocument(data)
