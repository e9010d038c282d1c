"""Columnar vectors with NULL bitmaps.

:class:`ColumnVector` holds one column's values as a numpy array plus a
boolean validity mask.  Numeric columns use ``float64`` (ints included —
the paper's NUMBER is a decimal float anyway); string columns use numpy
unicode arrays so that comparisons vectorize; boolean columns use
``bool_``.  NULL slots hold a dummy value and are masked out of every
kernel.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import EngineError

NUMERIC = "numeric"
STRING = "string"
BOOL = "bool"


class ColumnVector:
    """One column, columnar: ``values`` (np.ndarray) + ``valid`` mask."""

    __slots__ = ("name", "kind", "values", "valid")

    def __init__(self, name: str, kind: str, values: np.ndarray,
                 valid: np.ndarray) -> None:
        self.name = name
        self.kind = kind
        self.values = values
        self.valid = valid

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, name: str, values: Sequence[Any]) -> "ColumnVector":
        """Build a vector from Python values, inferring the column kind.

        Mixed-type columns (strings and numbers at the same path — legal
        in JSON) degrade to STRING, matching the DataGuide's type
        generalization.
        """
        kind = infer_kind(values)
        n = len(values)
        valid = np.fromiter((v is not None for v in values), dtype=np.bool_,
                            count=n)
        if kind == NUMERIC:
            data = np.fromiter(
                (float(v) if v is not None else 0.0 for v in values),
                dtype=np.float64, count=n)
        elif kind == BOOL:
            data = np.fromiter(
                (bool(v) if v is not None else False for v in values),
                dtype=np.bool_, count=n)
        else:
            data = np.array(
                ["" if v is None else as_text(v) for v in values])
        return cls(name, kind, data, valid)

    # -- memory accounting -------------------------------------------------

    def memory_bytes(self) -> int:
        return int(self.values.nbytes + self.valid.nbytes)

    # -- elementwise reads ----------------------------------------------------

    def value_at(self, index: int) -> Any:
        if not self.valid[index]:
            return None
        value = self.values[index]
        if self.kind == NUMERIC:
            number = float(value)
            return int(number) if number.is_integer() else number
        if self.kind == BOOL:
            return bool(value)
        return str(value)

    def to_list(self) -> list[Any]:
        return [self.value_at(i) for i in range(len(self))]


def infer_kind(values: Iterable[Any]) -> str:
    """The column kind for ``values`` — the one vocabulary vectors and
    durable segments (:mod:`repro.imc.segments`) share."""
    saw_number = saw_string = saw_bool = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, (int, float)):
            saw_number = True
        elif isinstance(value, str):
            saw_string = True
        else:
            raise EngineError(
                f"cannot load {type(value).__name__} into a column vector")
    if saw_string:
        return STRING
    if saw_number:
        return NUMERIC
    if saw_bool:
        return BOOL
    return NUMERIC  # all-NULL column; numeric representation is cheapest


def as_text(value: Any) -> str:
    """A STRING column's text for ``value`` (JSON spelling of booleans)."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)
