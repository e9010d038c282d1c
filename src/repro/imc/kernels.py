"""Vectorized predicate and aggregate kernels over column vectors.

These are the "SIMD" operations of the in-memory columnar engine
(section 5.2.1): whole-column numpy expressions replacing the per-row
closure loop.  Every kernel masks NULLs first, so SQL's
unknown-drops-row semantics hold.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import QueryError
from repro.imc.columns import BOOL, NUMERIC, STRING, ColumnVector

_COMPARATORS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compare(column: ColumnVector, op: str, value: Any) -> np.ndarray:
    """Vectorized ``column op literal`` -> boolean selection mask."""
    comparator = _COMPARATORS.get(op)
    if comparator is None:
        raise QueryError(f"unknown comparison operator {op!r}")
    if value is None:
        return np.zeros(len(column), dtype=np.bool_)  # comparisons with NULL
    if column.kind == NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return np.zeros(len(column), dtype=np.bool_)
        mask = comparator(column.values, float(value))
    elif column.kind == STRING:
        if not isinstance(value, str):
            return np.zeros(len(column), dtype=np.bool_)
        mask = comparator(column.values, value)
    else:
        if not isinstance(value, bool):
            return np.zeros(len(column), dtype=np.bool_)
        mask = comparator(column.values, value)
    return mask & column.valid


def isin(column: ColumnVector, values: list[Any]) -> np.ndarray:
    mask = np.zeros(len(column), dtype=np.bool_)
    for value in values:
        mask |= compare(column, "=", value)
    return mask


def starts_with(column: ColumnVector, prefix: str) -> np.ndarray:
    if column.kind != STRING:
        return np.zeros(len(column), dtype=np.bool_)
    return np.char.startswith(column.values.astype(str), prefix) & column.valid


def not_null(column: ColumnVector) -> np.ndarray:
    return column.valid.copy()


# -- aggregates --------------------------------------------------------------


def agg_count(column: ColumnVector,
              selection: Optional[np.ndarray] = None) -> int:
    mask = column.valid if selection is None else (column.valid & selection)
    return int(np.count_nonzero(mask))


def agg_sum(column: ColumnVector,
            selection: Optional[np.ndarray] = None) -> Optional[float]:
    if column.kind != NUMERIC:
        raise QueryError("SUM requires a numeric column")
    mask = column.valid if selection is None else (column.valid & selection)
    if not mask.any():
        return None
    return float(column.values[mask].sum())


def group_by_sum(keys: ColumnVector, values: ColumnVector,
                 selection: Optional[np.ndarray] = None) -> dict[Any, float]:
    """Vectorized GROUP BY key SUM(value) (NOBENCH Q10's shape)."""
    if values.kind != NUMERIC:
        raise QueryError("group_by_sum requires a numeric value column")
    mask = keys.valid & values.valid
    if selection is not None:
        mask &= selection
    key_array = keys.values[mask]
    value_array = values.values[mask]
    unique, inverse = np.unique(key_array, return_inverse=True)
    sums = np.zeros(len(unique), dtype=np.float64)
    np.add.at(sums, inverse, value_array)
    return {_unbox(keys, k): float(s) for k, s in zip(unique, sums)}


def group_by_count(keys: ColumnVector,
                   selection: Optional[np.ndarray] = None) -> dict[Any, int]:
    mask = keys.valid if selection is None else (keys.valid & selection)
    key_array = keys.values[mask]
    unique, counts = np.unique(key_array, return_counts=True)
    return {_unbox(keys, k): int(c) for k, c in zip(unique, counts)}


def _unbox(column: ColumnVector, value: Any) -> Any:
    if column.kind == NUMERIC:
        number = float(value)
        return int(number) if number.is_integer() else number
    if column.kind == BOOL:
        return bool(value)
    return str(value)
