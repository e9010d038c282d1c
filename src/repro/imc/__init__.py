"""In-Memory Column store substrate (paper section 5.2).

numpy-backed columnar vectors with vectorized predicate/aggregate kernels
stand in for Oracle Database In-Memory's SIMD columnar engine:

* :mod:`~repro.imc.columns` — :class:`ColumnVector`: typed vectors with
  NULL bitmaps;
* :mod:`~repro.imc.kernels` — vectorized compare / aggregate / group-by
  kernels;
* :mod:`~repro.imc.store` — :class:`IMCStore`: populates table columns
  (including virtual columns, section 5.2.1) into vectors, kept
  coherent with table DML through listeners + per-table deltas;
* :mod:`~repro.imc.segments` — durable CRC-checksummed column segments
  (the persistent IMC form, pinned by the storage manifest);
* :mod:`~repro.imc.delta` — row-wise delta buffers for the LSM-style
  merged base+delta read path.

The paper's three JSON execution modes of Figures 5/6 are table setups,
not a second store (see :mod:`repro.workloads.nobench`): TEXT-MODE is a
CLOB table, OSON-IMC-MODE a BLOB table of OSON images, and VC-IMC-MODE
that table with JSON_VALUE virtual columns populated into an
:class:`IMCStore`.
"""

from repro.imc.columns import ColumnVector
from repro.imc.delta import TableDelta
from repro.imc.segments import (ColumnSegment, SegmentQuarantine,
                                decode_column_segment,
                                encode_column_segment,
                                verify_column_segment)
from repro.imc.store import IMCStore

__all__ = [
    "ColumnSegment",
    "ColumnVector",
    "IMCStore",
    "SegmentQuarantine",
    "TableDelta",
    "decode_column_segment",
    "encode_column_segment",
    "verify_column_segment",
]
