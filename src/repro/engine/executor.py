"""Volcano-style physical operators over dict rows.

Each operator is a generator, so pipelines stream row by row wherever
the semantics allow (filter, project, hash-join probe) and materialize
only where required (sort, group-by build, window).  Every operator
takes its expressions' compiled closures (:meth:`~repro.engine
.expressions.Expression.compiled`) once, outside its row loop.  The
hash join is the same physical plan Oracle picks for the REL storage
variant of Figure 3's master/detail queries.

The ``*_morsel`` operators process rows in batches of
:data:`MORSEL_SIZE`.  Per batch, filter and group-by first try to
dispatch to the numpy kernels of :mod:`repro.imc.kernels` (building
transient :class:`~repro.imc.columns.ColumnVector` columns), and fall
back to the closure loop whenever exact parity cannot be guaranteed —
mixed-type columns, booleans (``True == 1`` would alias in a float64
vector), integers beyond float64's exact range, NULL group keys, or a
missing column (which must raise ``QueryError`` exactly like the
closure).  Row mode (:func:`filter_rows`, :func:`group_by`) runs the
same closures with no kernel dispatch; the two modes are
differential-tested to produce identical outputs, including row order.
Project and hash join have no kernel to dispatch to, so one
implementation serves both modes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.obs import metrics as _metrics
from repro.engine.expressions import (
    Aggregate,
    Aliased,
    And,
    Col,
    Comparison,
    CountAgg,
    Expression,
    InList,
    IsNull,
    Literal,
    SumAgg,
    WindowFunction,
)
from repro.errors import QueryError
from repro.imc import kernels
from repro.imc.columns import NUMERIC, STRING, ColumnVector

Row = dict

#: rows per batch in the morsel-mode operators
MORSEL_SIZE = 1024


def scan(rows: Iterable[Row]) -> Iterator[Row]:
    """Trivial scan over an iterable of rows."""
    yield from rows


def filter_rows(rows: Iterable[Row], predicate: Expression) -> Iterator[Row]:
    """WHERE, row at a time: keep rows whose predicate is true (not
    NULL)."""
    fn = predicate.compiled()
    for row in rows:
        if fn(row) is True:
            yield row


def _join_build(right: Iterable[Row], right_key: str,
                how: str) -> tuple[dict[Any, list[Row]], Row]:
    """Build phase of :func:`hash_join_morsel`."""
    if how not in ("inner", "left"):
        raise QueryError(f"unsupported join type {how!r}")
    build: dict[Any, list[Row]] = {}
    right_columns: set[str] = set()
    for row in right:
        right_columns.update(row.keys())
        key = row.get(right_key)
        if key is None:
            continue  # NULL keys never join
        build.setdefault(key, []).append(row)
    return build, dict.fromkeys(right_columns)


def _join_probe(row: Row, build: dict[Any, list[Row]], null_pad: Row,
                left_key: str, how: str) -> Iterator[Row]:
    key = row.get(left_key)
    matches = build.get(key, []) if key is not None else []
    if matches:
        for match in matches:
            merged = dict(row)
            merged.update(match)
            merged[left_key] = row[left_key]
            yield merged
    elif how == "left":
        merged = dict(row)
        for name, value in null_pad.items():
            merged.setdefault(name, value)
        yield merged


def group_by(rows: Iterable[Row], keys: Sequence[tuple[str, Expression]],
             aggregates: Sequence[tuple[str, Aggregate]]) -> Iterator[Row]:
    """Hash aggregation, tuple at a time through the compiled closures
    with no kernel dispatch.  With no keys, produces one global group
    (even over empty input, per SQL semantics)."""
    yield from finalize_groups(
        partial_group_by(rows, keys, aggregates, morsel=False),
        keys, aggregates)


def sort(rows: Iterable[Row],
         orders: Sequence[tuple[Expression, bool]]) -> list[Row]:
    """ORDER BY with NULLS LAST (Oracle's ascending default); ``orders``
    pairs each key expression with a descending flag."""
    materialized = list(rows)
    # stable sort: apply keys from the least significant to the most
    for expression, descending in reversed(orders):
        def sort_key(row: Row,
                     fn: Callable[[Row], Any] = expression.compiled(),
                     d: bool = descending) -> tuple:
            value = fn(row)
            null_rank = 1 if value is None else 0
            if d:
                null_rank = -null_rank
            return (null_rank, _OrderWrap(value, d))
        materialized.sort(key=sort_key)
    return materialized


class _OrderWrap:
    """Comparison adapter that inverts ordering for DESC keys and keeps
    NULLs comparable."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_OrderWrap") -> bool:
        if self.value is None or other.value is None:
            return False  # null ordering handled by the null_rank component
        if self.descending:
            return other.value < self.value
        return self.value < other.value


def window(rows: Iterable[Row], alias: str, function: WindowFunction,
           orders: Sequence[tuple[Expression, bool]]) -> list[Row]:
    """Apply a window function over the whole input as one partition,
    ordered by ``orders``; the result is added as column ``alias``."""
    ordered = sort(rows, orders) if orders else list(rows)
    out = []
    for row, value in zip(ordered, function.compute(ordered)):
        merged = dict(row)
        merged[alias] = value
        out.append(merged)
    return out


def union_all(sources: Sequence[Iterable[Row]]) -> Iterator[Row]:
    for source in sources:
        yield from source


def limit(rows: Iterable[Row], count: int) -> Iterator[Row]:
    for index, row in enumerate(rows):
        if index >= count:
            return
        yield row


def distinct(rows: Iterable[Row]) -> Iterator[Row]:
    seen: set[tuple] = set()
    for row in rows:
        key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
        try:
            if key in seen:
                continue
            seen.add(key)
        except TypeError:  # lint: ignore[silent-except] unhashable JSON values cannot be deduplicated; emit the row
            pass
        yield row


# -- morsel-batched execution --------------------------------------------------
#
# The paper's engine (section 5) is tuple-at-a-time; the optimization
# here batches rows into morsels so that vectorizable predicates and
# aggregates run as whole-column numpy kernels while everything else
# degrades gracefully to compiled closures.  Parity with the row-mode
# operators is the invariant: a morsel only takes the vector path when
# the kernel provably computes the same answer the closure would.

#: vectorization telemetry: hits = morsels dispatched to numpy kernels,
#: misses = morsels that fell back to the compiled-closure loop
_FILTER_VECTOR = _metrics.counter("engine.morsel_filter.hits")
_FILTER_FALLBACK = _metrics.counter("engine.morsel_filter.misses")
_GROUP_VECTOR = _metrics.counter("engine.morsel_group_by.hits")
_GROUP_FALLBACK = _metrics.counter("engine.morsel_group_by.misses")

#: largest magnitude an int may have and still be exactly a float64
_EXACT_INT = 2 ** 53
#: SUM partials add up to MORSEL_SIZE values; capping each addend keeps
#: the float64 partial sums exactly integral (1024 * 2^31 << 2^53)
_EXACT_SUM_INT = 2 ** 31

_VECTOR_OPS = frozenset(kernels._COMPARATORS)

#: morsel shape observability: batch count plus a fixed-bucket row-count
#: distribution (EXPLAIN ANALYZE uses these to show batch vs row mode)
_MORSEL_BATCHES = _metrics.counter("engine.morsel.batches")
_MORSEL_ROWS = _metrics.histogram(
    "engine.morsel.batch_rows", boundaries=(16, 64, 256, 1024))


def _morsels(rows: Iterable[Row], size: int = MORSEL_SIZE
             ) -> Iterator[list[Row]]:
    batch: list[Row] = []
    for row in rows:
        batch.append(row)
        if len(batch) >= size:
            _MORSEL_BATCHES.inc()
            _MORSEL_ROWS.observe(len(batch))
            yield batch
            batch = []
    if batch:
        _MORSEL_BATCHES.inc()
        _MORSEL_ROWS.observe(len(batch))
        yield batch


def _column_vector(name: str, values: list, for_sum: bool = False
                   ) -> Optional[ColumnVector]:
    """Build a transient column for one morsel, or None when the values
    defeat exact vectorization: mixed kinds (the row engine compares
    them per Python semantics, a degraded-to-string vector would not),
    booleans (``True == 1`` aliases in a float64 column), ints outside
    float64's exact range, or non-JSON-scalar objects."""
    kind = None
    limit = _EXACT_SUM_INT if for_sum else _EXACT_INT
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            if isinstance(value, int) and not -limit <= value <= limit:
                return None
            value_kind = NUMERIC
        elif isinstance(value, str):
            value_kind = STRING
        else:
            return None
        if kind is None:
            kind = value_kind
        elif kind is not value_kind:
            return None
    return ColumnVector.from_values(name, values)


def _literal_matches(column: ColumnVector, literal: Any) -> bool:
    """True when the kernel compares ``literal`` against ``column`` the
    same way Python would row by row.  A kind mismatch returns an
    all-false mask from the kernel, which diverges from Python for
    ``<>`` (``5 != "a"`` is True), so mismatches force the closure path."""
    if isinstance(literal, str):
        return column.kind == STRING
    return column.kind == NUMERIC


def _filter_conjuncts(predicate: Expression) -> Optional[list[tuple]]:
    """Decompose a WHERE tree into kernel-dispatchable conjuncts.

    Returns None when any part falls outside the vectorizable subset
    (the whole filter then runs through the compiled closure).
    """
    if isinstance(predicate, And):
        out: list[tuple] = []
        for part in predicate.parts:
            sub = _filter_conjuncts(part)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if (isinstance(predicate, Comparison)
            and isinstance(predicate.left, Col)
            and isinstance(predicate.right, Literal)
            and predicate.op in _VECTOR_OPS):
        literal = predicate.right.value
        if isinstance(literal, bool) or not isinstance(
                literal, (int, float, str, type(None))):
            return None
        return [("cmp", predicate.left.name, predicate.op, literal)]
    if isinstance(predicate, InList) and isinstance(predicate.operand, Col):
        values = predicate.values
        if any(isinstance(v, bool) or not isinstance(v, (int, float, str))
               for v in values):
            return None
        return [("isin", predicate.operand.name, list(values))]
    if isinstance(predicate, IsNull) and isinstance(predicate.operand, Col):
        return [("null", predicate.operand.name, predicate.expect_null)]
    return None


def _vector_mask(conjuncts: list[tuple],
                 morsel: list[Row]) -> Optional[np.ndarray]:
    """Selection mask for one morsel, or None to fall back to closures
    (missing column — which must raise like row mode — or a column whose
    values fail the exactness gates)."""
    columns: dict[str, ColumnVector] = {}
    mask: Optional[np.ndarray] = None
    for conjunct in conjuncts:
        name = conjunct[1]
        column = columns.get(name)
        if column is None:
            values = []
            for row in morsel:
                if name not in row:
                    return None
                values.append(row[name])
            column = _column_vector(name, values)
            if column is None:
                return None
            columns[name] = column
        tag = conjunct[0]
        if tag == "cmp":
            literal = conjunct[3]
            if literal is not None and not _literal_matches(column, literal):
                return None
            part = kernels.compare(column, conjunct[2], literal)
        elif tag == "isin":
            part = kernels.isin(column, conjunct[2])
        else:  # "null"
            part = ~column.valid if conjunct[2] else kernels.not_null(column)
        mask = part if mask is None else (mask & part)
    return mask


def filter_rows_morsel(rows: Iterable[Row],
                       predicate: Expression) -> Iterator[Row]:
    """Morsel-batched WHERE: vectorized mask per batch when the
    predicate and the batch's columns allow, compiled closure otherwise."""
    conjuncts = _filter_conjuncts(predicate)
    fn = predicate.compiled()
    for morsel in _morsels(rows):
        mask = _vector_mask(conjuncts, morsel) if conjuncts else None
        if mask is not None:
            _FILTER_VECTOR.inc()
            for row, keep in zip(morsel, mask):
                if keep:
                    yield row
        else:
            _FILTER_FALLBACK.inc()
            for row in morsel:
                if fn(row) is True:
                    yield row


def project_morsel(rows: Iterable[Row],
                   outputs: Sequence[tuple[str, Expression]]) -> Iterator[Row]:
    """SELECT list, in both modes: every output expression compiles to
    a closure once, then runs over each batch."""
    compiled = [(name, expression.compiled()) for name, expression in outputs]
    for morsel in _morsels(rows):
        for row in morsel:
            yield {name: fn(row) for name, fn in compiled}


def hash_join_morsel(left: Iterable[Row], right: Iterable[Row],
                     left_key: str, right_key: str,
                     how: str = "inner") -> Iterator[Row]:
    """Hash join, in both modes: build on the right input, probe with
    the left one morsel at a time.

    ``how`` is ``"inner"`` or ``"left"`` (left outer).  Column name
    collisions are resolved in the right row's favour except for the join
    key, which keeps the left value.
    """
    build, null_pad = _join_build(right, right_key, how)
    for morsel in _morsels(left):
        for row in morsel:
            yield from _join_probe(row, build, null_pad, left_key, how)


def _group_vector_plan(keys: Sequence[tuple[str, Expression]],
                       aggregates: Sequence[tuple[str, Aggregate]]
                       ) -> Optional[tuple]:
    """A kernel-dispatch plan for hash aggregation, or None.

    The vectorizable shape is at most one plain-Col grouping key with
    every aggregate a COUNT(*) / COUNT(col) / SUM(col) over plain Cols —
    the Figure 3 / Figure 9 aggregation shapes.  Everything else steps
    compiled closures per row.
    """
    if len(keys) > 1:
        return None
    key_name = None
    if keys:
        expression = keys[0][1]
        if not isinstance(expression, Col):
            return None
        key_name = expression.name
    specs: list[tuple[str, Optional[str]]] = []
    for _alias, agg in aggregates:
        operand = agg.operand
        if operand is not None and not isinstance(operand, Col):
            return None
        if type(agg) is CountAgg:
            specs.append(("count", None if operand is None else operand.name))
        elif type(agg) is SumAgg and operand is not None:
            specs.append(("sum", operand.name))
        else:
            return None
    return key_name, specs


def _morsel_column(name: str, morsel: list[Row],
                   for_sum: bool = False) -> Optional[ColumnVector]:
    values = []
    for row in morsel:
        if name not in row:
            return None  # the Col closure raises; it must run
        values.append(row[name])
    if for_sum and any(isinstance(v, float) for v in values):
        return None  # float addition order is observable; keep row order
    return _column_vector(name, values, for_sum=for_sum)


def _group_entry(groups: dict, key: tuple, key_row: Row,
                 aggregates: Sequence[tuple[str, Aggregate]]) -> tuple:
    entry = groups.get(key)
    if entry is None:
        entry = (key_row, [agg.create() for _alias, agg in aggregates])
        groups[key] = entry
    return entry


def _fold_group_morsel(plan: tuple, morsel: list[Row], groups: dict,
                       aggregates: Sequence[tuple[str, Aggregate]],
                       key_output: Optional[str]) -> bool:
    """Vectorized partial aggregation for one morsel folded into
    ``groups``; returns False when a gate fails and the caller must step
    the morsel through closures instead."""
    key_name, specs = plan
    operand_columns: dict[str, ColumnVector] = {}
    for kind, operand in specs:
        if operand is not None and operand not in operand_columns:
            column = _morsel_column(operand, morsel, for_sum=(kind == "sum"))
            if column is None:
                return False
            operand_columns[operand] = column

    if key_name is None:
        # global aggregation: scalar kernels, one () group
        partials = []
        for kind, operand in specs:
            if operand is None:
                partials.append(len(morsel))
            elif kind == "count":
                partials.append(kernels.agg_count(operand_columns[operand]))
            else:
                total = kernels.agg_sum(operand_columns[operand])
                partials.append(None if total is None else int(total))
        entry = _group_entry(groups, (), {}, aggregates)
        fold_partials(entry[1], specs, partials, None)
        return True

    key_values = []
    for row in morsel:
        if key_name not in row:
            return False
        value = row[key_name]
        if value is None:
            return False  # kernels mask NULL keys out; SQL groups them
        key_values.append(value)
    key_column = _column_vector(key_name, key_values)
    if key_column is None:
        return False

    per_key: list[dict] = []
    for kind, operand in specs:
        if kind == "count":
            selection = (None if operand is None
                         else operand_columns[operand].valid)
            per_key.append(kernels.group_by_count(key_column, selection))
        else:
            sums = kernels.group_by_sum(key_column,
                                        operand_columns[operand])
            per_key.append({k: int(v) for k, v in sums.items()})

    # fold in first-occurrence order so group output order matches the
    # row-at-a-time plan exactly
    _uniq, first = np.unique(key_column.values, return_index=True)
    for index in sorted(first.tolist()):
        key_value = key_column.value_at(index)
        entry = _group_entry(groups, (key_value,),
                             {key_output: key_value}, aggregates)
        fold_partials(entry[1], specs, per_key, key_value)
    return True


def fold_partials(states: list, specs: list,
                  partials: list, key_value: Any) -> None:
    """Merge one batch of kernel partials into a group's aggregate states
    — the gather primitive of morsel and scatter-gather group-by.

    ``states`` are the group's :class:`~repro.engine.expressions
    .AggregateState` accumulators; ``specs`` is the kernel plan from
    :func:`_group_vector_plan` (``("count"|"sum", operand)`` pairs,
    positionally matching ``states``); ``partials`` carries one partial
    per spec — either a scalar (global aggregation) or a per-key dict
    keyed by group value, selected through ``key_value``.  A missing or
    ``None`` partial folds as "no qualifying rows", exactly like zero
    ``step`` calls.
    """
    for state, (kind, _operand), partial in zip(states, specs, partials):
        if isinstance(partial, dict):  # keyed plan: per-key partial dicts
            partial = partial.get(key_value)
        if partial is None:
            continue
        if kind == "count":
            state.count += partial
        else:
            state.total = (partial if state.total is None
                           else state.total + partial)


def partial_group_by(rows: Iterable[Row],
                     keys: Sequence[tuple[str, Expression]],
                     aggregates: Sequence[tuple[str, Aggregate]],
                     morsel: bool = True) -> dict:
    """Aggregate one row stream into **partial** group states without
    finalizing: the accumulate half of every hash group-by (row, morsel
    and the per-shard half of scatter-gather).

    Returns the internal groups map ``{key_tuple: (key_row, states)}``.
    Partials from several streams merge with
    :func:`gather_group_partials`; a single stream finalizes through
    :func:`finalize_groups`, which is all :func:`group_by` /
    :func:`group_by_morsel` do.

    With ``morsel=True`` the accumulation runs the 1k-row morsel
    pipeline with numpy kernel dispatch and compiled-closure fallback;
    ``morsel=False`` steps every row through the same closures with no
    kernels — the kernel-free reference the morsel path is
    differential-tested against.
    """
    groups: dict[tuple, tuple[Row, list]] = {}
    key_fns = [expression.compiled() for _name, expression in keys]
    if not morsel:
        _step_groups(groups, rows, keys, key_fns, aggregates)
        return groups
    key_output = keys[0][0] if keys else None
    plan = _group_vector_plan(keys, aggregates)
    for batch in _morsels(rows):
        if plan is not None and _fold_group_morsel(plan, batch, groups,
                                                   aggregates, key_output):
            _GROUP_VECTOR.inc()
            continue
        _GROUP_FALLBACK.inc()
        _step_groups(groups, batch, keys, key_fns, aggregates)
    return groups


def _step_groups(groups: dict, rows: Iterable[Row],
                 keys: Sequence[tuple[str, Expression]], key_fns: list,
                 aggregates: Sequence[tuple[str, Aggregate]]) -> None:
    """Tuple-at-a-time accumulation into ``groups``: compute each row's
    key through ``key_fns`` and step the group's aggregate states."""
    for row in rows:
        key = tuple(fn(row) for fn in key_fns)
        entry = groups.get(key)
        if entry is None:
            key_row = {name: value for (name, _e), value in zip(keys, key)}
            entry = _group_entry(groups, key, key_row, aggregates)
        for state in entry[1]:
            state.step(row)


def gather_group_partials(partials_list: Sequence[dict],
                          aggregates: Sequence[tuple[str, Aggregate]]
                          ) -> dict:
    """Merge several :func:`partial_group_by` results into one groups
    map — the gather half of scatter-gather aggregation.

    Inputs merge **in sequence order** (shard-index order in the
    scatter executor), so group discovery order — and therefore output
    row order — is deterministic, and the one order-sensitive SQL case
    (float SUM/AVG addition) folds the same way on every run.  States
    combine via :meth:`~repro.engine.expressions.AggregateState.merge`.
    """
    gathered: dict[tuple, tuple[Row, list]] = {}
    for partials in partials_list:
        for key, (key_row, states) in partials.items():
            entry = gathered.get(key)
            if entry is None:
                gathered[key] = (key_row, states)
            else:
                for target, source in zip(entry[1], states):
                    target.merge(source)
    return gathered


def finalize_groups(groups: dict,
                    keys: Sequence[tuple[str, Expression]],
                    aggregates: Sequence[tuple[str, Aggregate]]
                    ) -> Iterator[Row]:
    """Render a groups map into result rows (SQL's empty-input global
    group included), completing the partial/gather pipeline."""
    if not groups and not keys:
        groups[()] = ({}, [agg.create() for _alias, agg in aggregates])
    for key_row, states in groups.values():
        out = dict(key_row)
        for (alias, _agg), state in zip(aggregates, states):
            out[alias] = state.final()
        yield out


def serialize_group_partials(groups: dict) -> list:
    """Flatten a groups map into picklable ``(key, key_row, partial
    dicts)`` triples — aggregate states hold compiled closures and
    cannot cross a process boundary; their partial dicts can.  The
    inverse is :func:`fold_serialized_partials`."""
    return [(key, key_row, [state.partial() for state in states])
            for key, (key_row, states) in groups.items()]


def fold_serialized_partials(groups: dict, serialized: Iterable,
                             aggregates: Sequence[tuple[str, Aggregate]]
                             ) -> dict:
    """Fold serialized partials (from a worker process) into ``groups``
    via :meth:`~repro.engine.expressions.AggregateState.fold_partial`."""
    for key, key_row, partial_dicts in serialized:
        entry = _group_entry(groups, key, key_row, aggregates)
        for state, partial in zip(entry[1], partial_dicts):
            state.fold_partial(partial)
    return groups


def group_by_morsel(rows: Iterable[Row],
                    keys: Sequence[tuple[str, Expression]],
                    aggregates: Sequence[tuple[str, Aggregate]]
                    ) -> Iterator[Row]:
    """Morsel-batched hash aggregation: numpy grouped kernels when the
    shape and the batch allow, compiled-closure stepping otherwise."""
    yield from finalize_groups(partial_group_by(rows, keys, aggregates),
                               keys, aggregates)


def normalize_output(item: Any) -> tuple[str, Expression]:
    """Turn a SELECT-list item (name, Expression, or Aliased) into a
    (output name, expression) pair."""
    if isinstance(item, str):
        return item, Col(item)
    if isinstance(item, Aliased):
        return item.alias, item.inner
    if isinstance(item, Col):
        return item.name, item
    if isinstance(item, Expression):
        return item.sql(), item
    raise QueryError(f"bad select item {item!r}")
