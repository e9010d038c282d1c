"""Durable column segments: the on-disk form of an IMC column.

A column segment persists one populated column of one table so a
reopened store serves the columnar form without re-paying the
JSON_VALUE extraction cost (ROADMAP item 1 / paper section 5.2).  The
file is a run of checksummed frames (:mod:`repro.storage.framing` —
the same ``RFRM`` framing the WAL and manifest use, so every byte is
CRC-covered):

    frame 0   header: OSON image of the segment meta document
              {"format", "version", "table", "column", "kind", "rows"}
    frame 1   document ids: ``rows`` little-endian int64, ascending —
              the documents whose values this segment stores
    frame 2   validity: ``rows`` bytes, 1 = value present, 0 = SQL NULL
    frames 3+ values, encoding per kind:
              numeric: float64 array + a "was int" byte array (so a
                       stored ``2`` round-trips as int, not 2.0 —
                       byte-identical with row mode is the contract)
              bool:    one byte per row
              string:  (rows+1) little-endian uint32 offsets + UTF-8 blob

Segments are written by the store's checkpoint/compaction lift (the
LSM-style tuple-compaction pass) and pinned by the manifest's
``imc_segments`` section.  They are pure *cache*: every reader
degrades to rebuild-from-OSON on any corruption, so decode failures
quarantine with diagnostics and are never fatal — the same contract
recovery applies to log records.

Columns whose values cannot round-trip exactly are not persisted at
all (:func:`encodable_values`): integers beyond 2**53 and non-JSON
scalars (Decimal, bytes) stay rebuild-only rather than risk an inexact
columnar answer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.core.oson import decode as oson_decode
from repro.core.oson import encode as oson_encode
from repro.errors import OsonError, StorageError
from repro.imc.columns import BOOL, NUMERIC, STRING, as_text, infer_kind

# NOTE: repro.storage.framing is imported lazily inside the codec
# functions.  A module-level import would run the repro.storage package
# init, which reaches back into repro.engine (dataguide views) — and
# repro.engine imports this package via the executor's kernels.

SEGMENT_FORMAT = "repro-imc-segment"
SEGMENT_VERSION = 1

#: integers above this lose fidelity through the float64 value array
MAX_EXACT_INT = 1 << 53


def imc_segment_name(sequence: int) -> str:
    return f"imc-{sequence:08d}.col"


def parse_imc_segment_name(name: str) -> Optional[int]:
    """The sequence number encoded in a segment file name, or None."""
    if not (name.startswith("imc-") and name.endswith(".col")):
        return None
    digits = name[4:-4]
    if not digits.isdigit():
        return None
    return int(digits)


def encodable_values(values: Sequence[Any]) -> bool:
    """True when every value round-trips exactly through a segment.

    Mixed-kind columns (numbers alongside strings or booleans) are
    rejected: the value frames store one physical kind, so a mixed
    column would coerce on the way through — and a reopened store must
    serve exactly what row mode serves."""
    saw_number = saw_string = saw_bool = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, str):
            saw_string = True
        elif isinstance(value, float):
            saw_number = True
        elif isinstance(value, int):
            if abs(value) > MAX_EXACT_INT:
                return False
            saw_number = True
        else:
            return False
    return saw_number + saw_string + saw_bool <= 1


def encode_column_segment(table: str, column: str,
                          doc_ids: Sequence[int],
                          values: Sequence[Any]) -> bytes:
    """Serialize one column (``values[i]`` belongs to ``doc_ids[i]``)."""
    if len(doc_ids) != len(values):
        raise StorageError(
            f"segment for {table}.{column}: {len(doc_ids)} ids vs "
            f"{len(values)} values")
    if not encodable_values(values):
        raise StorageError(
            f"segment for {table}.{column}: values do not round-trip "
            f"exactly (big int or non-JSON scalar)")
    if list(doc_ids) != sorted(doc_ids):
        raise StorageError(
            f"segment for {table}.{column}: document ids not ascending")
    from repro.storage.framing import frame
    kind = infer_kind(values)
    n = len(values)
    meta = {"format": SEGMENT_FORMAT, "version": SEGMENT_VERSION,
            "table": table, "column": column, "kind": kind, "rows": n}
    out = [frame(oson_encode(meta)),
           frame(struct.pack(f"<{n}q", *doc_ids)),
           frame(bytes(0 if v is None else 1 for v in values))]
    if kind == NUMERIC:
        floats = struct.pack(
            f"<{n}d", *(0.0 if v is None else float(v) for v in values))
        was_int = bytes(1 if isinstance(v, int) and not isinstance(v, bool)
                        else 0 for v in values)
        out.append(frame(floats))
        out.append(frame(was_int))
    elif kind == BOOL:
        out.append(frame(bytes(1 if v else 0 for v in values)))
    else:
        encoded = [b"" if v is None else as_text(v).encode("utf-8")
                   for v in values]
        offsets = [0]
        for piece in encoded:
            offsets.append(offsets[-1] + len(piece))
        out.append(frame(struct.pack(f"<{n + 1}I", *offsets)))
        out.append(frame(b"".join(encoded)))
    return b"".join(out)


@dataclass
class ColumnSegment:
    """A decoded column segment: exact Python values per document id."""

    table: str
    column: str
    kind: str
    doc_ids: List[int]
    values: List[Any]

    def __len__(self) -> int:
        return len(self.doc_ids)


def decode_column_segment(data: bytes) -> ColumnSegment:
    """Decode a segment image; raises :class:`StorageError` on any
    damage (callers quarantine and fall back to rebuild-from-OSON)."""
    from repro.storage.framing import scan_frames
    scan = scan_frames(data)
    if scan.corrupt_frames or scan.torn:
        raise StorageError("column segment has corrupt or torn frames")
    frames = [f.payload for f in scan.valid_frames]
    if len(frames) < 4:
        raise StorageError(
            f"column segment has {len(frames)} frames, expected >= 4")
    consumed = sum(len(f.payload) + 12 for f in scan.valid_frames)
    if consumed != len(data):
        raise StorageError("column segment carries undecodable bytes")
    try:
        meta = oson_decode(frames[0])
    except OsonError as exc:
        raise StorageError(f"segment meta undecodable: {exc}") from None
    if (not isinstance(meta, dict)
            or meta.get("format") != SEGMENT_FORMAT
            or meta.get("version") != SEGMENT_VERSION):
        raise StorageError(f"unexpected segment meta {meta!r}")
    for key, expected in (("table", str), ("column", str), ("kind", str),
                          ("rows", int)):
        if not isinstance(meta.get(key), expected):
            raise StorageError(f"segment meta {key!r} malformed")
    n = meta["rows"]
    kind = meta["kind"]
    if len(frames[1]) != 8 * n or len(frames[2]) != n:
        raise StorageError("segment id/validity arrays disagree with rows")
    doc_ids = list(struct.unpack(f"<{n}q", frames[1]))
    if doc_ids != sorted(doc_ids):
        raise StorageError("segment document ids not ascending")
    valid = frames[2]
    if kind == NUMERIC:
        if len(frames) != 5 or len(frames[3]) != 8 * n or len(frames[4]) != n:
            raise StorageError("numeric segment value frames malformed")
        floats = struct.unpack(f"<{n}d", frames[3])
        was_int = frames[4]
        values: List[Any] = [
            None if not valid[i]
            else (int(floats[i]) if was_int[i] else floats[i])
            for i in range(n)]
    elif kind == BOOL:
        if len(frames) != 4 or len(frames[3]) != n:
            raise StorageError("bool segment value frame malformed")
        flags = frames[3]
        values = [None if not valid[i] else bool(flags[i])
                  for i in range(n)]
    elif kind == STRING:
        if len(frames) != 5 or len(frames[3]) != 4 * (n + 1):
            raise StorageError("string segment offset frame malformed")
        offsets = struct.unpack(f"<{n + 1}I", frames[3])
        blob = frames[4]
        if any(offsets[i] > offsets[i + 1] for i in range(n)) \
                or offsets[-1] != len(blob):
            raise StorageError("string segment offsets out of bounds")
        try:
            values = [None if not valid[i]
                      else blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                      for i in range(n)]
        except UnicodeDecodeError as exc:
            raise StorageError(
                f"string segment blob undecodable: {exc}") from None
    else:
        raise StorageError(f"unknown segment kind {kind!r}")
    return ColumnSegment(meta["table"], meta["column"], kind,
                         doc_ids, values)


def verify_column_segment(data: bytes,
                          path: Optional[str] = None) -> List[Diagnostic]:
    """fsck-style verification: structured diagnostics, never raises.

    Every finding is a WARNING — a damaged segment degrades the reader
    to rebuild-from-OSON (the column data survives in the documents),
    it never loses data.
    """
    from repro.storage.framing import scan_frames
    diagnostics: List[Diagnostic] = []
    scan = scan_frames(data)
    for found in scan.diagnostics:
        diagnostics.append(Diagnostic(
            "storage.fsck.imc-frame", found.message, Severity.WARNING,
            offset=found.offset, path=path))
    try:
        decode_column_segment(data)
    except StorageError as exc:
        diagnostics.append(Diagnostic(
            "storage.fsck.imc-corrupt",
            f"column segment undecodable ({exc}); readers degrade to "
            f"rebuild-from-OSON", Severity.WARNING, path=path))
    return diagnostics


@dataclass
class SegmentQuarantine:
    """One segment a loader skipped instead of trusting."""

    name: str
    table: str
    column: str
    reason: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def render(self) -> str:
        return (f"imc segment {self.name} ({self.table}.{self.column}) "
                f"quarantined: {self.reason}")


def segment_entry(name: str, length: int, table: str, column: str,
                  horizon: int) -> dict:
    """A manifest ``imc_segments`` row.  ``horizon`` is the sequence of
    the WAL that was *fresh* when the segment was cut: any log record
    at or above it post-dates the segment, so its document id must be
    served from the row-wise delta, not the columnar base."""
    return {"name": name, "length": length, "table": table,
            "column": column, "horizon": horizon}


def valid_entries(raw: Any) -> List[dict]:
    """The well-formed rows of a manifest ``imc_segments`` section;
    malformed rows (or a malformed section) degrade to absent — a
    reader never fails the manifest over its IMC cache metadata."""
    if not isinstance(raw, list):
        return []
    entries = []
    for entry in raw:
        if (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("length"), int)
                and isinstance(entry.get("table"), str)
                and isinstance(entry.get("column"), str)
                and isinstance(entry.get("horizon"), int)):
            entries.append(entry)
    return entries
