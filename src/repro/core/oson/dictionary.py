"""Field-id-name dictionary segment (section 4.2.1).

The dictionary maps field names <-> integer field name identifiers for one
OSON document.  Entries are stored sorted by 32-bit hash id (ties broken
by name bytes so the encoding is deterministic under collisions); a field's
identifier is its ordinal position in that sorted order.  Lookup hashes the
probe name, binary-searches the hash array and resolves collisions with a
string compare — exactly the paper's procedure.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from repro.core.counters import BoundedCache
from repro.core.oson.hashing import field_name_hash
from repro.errors import OsonError

_ENTRY = struct.Struct("<IB")  # hash, name length (offsets are cumulative)

#: monotonic generation stamps: two FieldDictionary objects share a
#: generation number iff they are the same object, so a generation
#: comparison substitutes for the (hash, name) look-back validation in
#: :class:`repro.core.oson.cache.FieldIdResolver`
_generations = itertools.count(1)

#: interned dictionaries keyed by the raw segment bytes: documents of a
#: structurally homogeneous collection carry byte-identical dictionary
#: segments, so decoding a stream of them parses the segment once and
#: every document shares one (same-generation) dictionary object
_INTERNED = BoundedCache("oson.dictionary_intern", maxsize=256)


class FieldDictionary:
    """In-memory form of the dictionary segment."""

    __slots__ = ("hashes", "names", "generation", "_id_by_name")

    def __init__(self, hashes: Sequence[int], names: Sequence[str]) -> None:
        self.hashes = list(hashes)
        self.names = list(names)
        self.generation = next(_generations)
        self._id_by_name: Optional[dict[str, int]] = None

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, field_names: Iterable[str]) -> "FieldDictionary":
        """Build a dictionary from the distinct field names of a document.

        Entries are sorted by (hash, name) so the mapping is total and
        deterministic even under hash collisions.
        """
        distinct = sorted(set(field_names), key=lambda n: (field_name_hash(n), n))
        return cls([field_name_hash(n) for n in distinct], distinct)

    # -- lookups ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def field_id(self, name: str, name_hash: Optional[int] = None) -> Optional[int]:
        """Resolve a field name to its identifier, or ``None`` if absent.

        ``name_hash`` lets callers supply a hash precomputed at SQL/JSON
        path compile time (section 4.2.1's first optimization).
        """
        if name_hash is None:
            name_hash = field_name_hash(name)
        index = bisect_left(self.hashes, name_hash)
        while index < len(self.hashes) and self.hashes[index] == name_hash:
            if self.names[index] == name:  # hash-collision resolution
                return index
            index += 1
        return None

    def field_id_fast(self, name: str) -> Optional[int]:
        """Dict-backed lookup used by the encoder (builds the map lazily)."""
        if self._id_by_name is None:
            self._id_by_name = {n: i for i, n in enumerate(self.names)}
        return self._id_by_name.get(name)

    def field_name(self, field_id: int) -> str:
        if not 0 <= field_id < len(self.names):
            raise OsonError(f"field id {field_id} out of range")
        return self.names[field_id]

    def field_hash(self, field_id: int) -> int:
        if not 0 <= field_id < len(self.hashes):
            raise OsonError(f"field id {field_id} out of range")
        return self.hashes[field_id]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk dictionary segment layout.

        Entries carry (hash, name length) only — 5 bytes each; name
        offsets into the blob are the cumulative sums of the lengths, so
        they need no storage.
        """
        if len(self.names) > 0xFFFF:
            raise OsonError("more than 65535 distinct field names in one document")
        blob = bytearray()
        entries = bytearray()
        for name_hash, name in zip(self.hashes, self.names):
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFF:
                raise OsonError(
                    f"field name longer than 255 bytes: {name[:40]!r}...")
            entries += _ENTRY.pack(name_hash, len(encoded))
            blob += encoded
        return struct.pack("<H", len(self.names)) + bytes(entries) + bytes(blob)

    @classmethod
    def from_bytes(cls, buffer: bytes, start: int) -> tuple["FieldDictionary", int]:
        """Parse a dictionary segment; returns (dictionary, end offset).

        Parsed dictionaries are interned by their raw segment bytes:
        byte-identical segments (every document of a homogeneous
        collection) yield the *same* dictionary object, which both skips
        the name decoding and gives downstream field-id caches a stable
        ``generation`` to key on.
        """
        if start + 2 > len(buffer):
            raise OsonError("truncated dictionary segment")
        (count,) = struct.unpack_from("<H", buffer, start)
        pos = start + 2
        entries_end = pos + count * _ENTRY.size
        if entries_end > len(buffer):
            raise OsonError("truncated dictionary entries")
        # the name lengths are every fifth byte of the entry array: the
        # segment's extent, and with it the intern probe, needs no
        # per-entry decoding
        lengths = buffer[pos + 4:entries_end:_ENTRY.size]
        blob_end = entries_end + sum(lengths)
        if blob_end > len(buffer):
            raise OsonError("dictionary name blob truncated",
                            offset=entries_end)
        segment = bytes(buffer[start:blob_end])
        interned = _INTERNED.get(segment)
        if interned is not None:
            return interned, blob_end
        hashes = [name_hash for name_hash, _length in _ENTRY.iter_unpack(
            buffer[pos:entries_end])]
        names = []
        cursor = entries_end
        for name_len in lengths:
            end = cursor + name_len
            try:
                names.append(buffer[cursor:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise OsonError("dictionary field name is not valid UTF-8",
                                offset=cursor) from exc
            cursor = end
        dictionary = cls(hashes, names)
        _INTERNED.put(segment, dictionary)
        return dictionary, cursor
