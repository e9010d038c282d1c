"""Query builder over the logical plan layer.

Queries are dataflow pipelines built by chaining operations; operations
apply **in the order they are chained**, which keeps the execution model
explicit::

    (Query(po_table)
        .where(expr.Col("costcenter") == "A50")
        .group_by(["requestor"], n=expr.COUNT())
        .order_by("n", desc=True)
        .rows())

Sources may be a :class:`~repro.engine.table.Table`, a view, a list of
dict rows, another :class:`Query` (subquery), or any callable returning
an iterator of rows.  ``rows()`` executes and materializes; ``explain()``
renders the logical plan as text.

Execution goes through :mod:`repro.engine.plan`: the chained operations
build a :class:`~repro.engine.plan.LogicalPlan`, rewrite rules apply
(JSON_EXISTS predicate pushdown; scatter-gather fusion with partition
pruning over sharded sources), and the rewritten node chain executes in
the pinned mode.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.engine import executor
from repro.engine import plan as planmod
from repro.engine.expressions import (
    Aggregate,
    Col,
    Expression,
    WindowFunction,
    wrap,
)
from repro.errors import QueryError

Row = dict
Source = Union["Query", Iterable[Row], Callable[[], Iterator[Row]]]

#: execution modes: "morsel" (the default) batches rows and dispatches
#: vectorizable work to the numpy kernels; "row" is the tuple-at-a-time
#: interpreter
_VALID_MODES = ("morsel", "row")


class Query:
    """A composable query pipeline."""

    def __init__(self, source: Source) -> None:
        self._source = source
        self._ops: list[tuple[str, tuple]] = []
        self._mode: Optional[str] = None
        self._row_hook: Optional[Callable[[Row], None]] = None
        self._scatter_policy: Optional["planmod.scattermod.ScatterPolicy"] \
            = None

    # -- builder -------------------------------------------------------------

    def _with(self, op: str, *args: Any) -> "Query":
        clone = Query(self._source)
        clone._ops = self._ops + [(op, args)]
        clone._mode = self._mode
        clone._row_hook = self._row_hook
        clone._scatter_policy = self._scatter_policy
        return clone

    def mode(self, mode: str) -> "Query":
        """Pin this plan's execution mode: ``"morsel"`` (batched,
        kernel-dispatching) or ``"row"`` (tuple-at-a-time) — the ablation
        benchmarks toggle this for before/after measurements."""
        if mode not in _VALID_MODES:
            raise QueryError(f"unknown execution mode {mode!r}")
        clone = Query(self._source)
        clone._ops = list(self._ops)
        clone._mode = mode
        clone._row_hook = self._row_hook
        clone._scatter_policy = self._scatter_policy
        return clone

    def instrumented(self, hook: Callable[[Row], None]) -> "Query":
        """Clone whose execution calls ``hook(row)`` for every source
        row consumed and every result row produced.  The serving layer
        uses this for cooperative cancellation and deadline checks: the
        hook raising aborts the pipeline at the next row boundary, even
        mid-way through a long scan feeding a blocking operator."""
        clone = Query(self._source)
        clone._ops = list(self._ops)
        clone._mode = self._mode
        clone._row_hook = hook
        clone._scatter_policy = self._scatter_policy
        return clone

    def with_scatter_policy(self, policy: Any) -> "Query":
        """Clone carrying an explicit
        :class:`~repro.engine.scatter.ScatterPolicy` — the serving
        layer's hook for wiring its ``CancelToken`` and session-level
        failure policy into scatter execution."""
        clone = Query(self._source)
        clone._ops = list(self._ops)
        clone._mode = self._mode
        clone._row_hook = self._row_hook
        clone._scatter_policy = policy
        return clone

    def on_shard_failure(self, on_failure: str) -> "Query":
        """Per-query shard-failure policy: ``"fail"`` (default —
        propagate the first shard failure typed) or ``"partial"``
        (return surviving shards' rows as an explicitly-marked
        degraded result; see :meth:`rows`).  No-op over unsharded
        sources."""
        from repro.engine import scatter as scattermod
        return self.with_scatter_policy(
            scattermod.ScatterPolicy(on_failure=on_failure))

    def where(self, predicate: Expression) -> "Query":
        """Filter rows; NULL (unknown) predicates drop the row."""
        return self._with("where", predicate)

    def select(self, *items: Any) -> "Query":
        """Project the listed columns/expressions (str, Col, or ``.as_()``)."""
        outputs = [executor.normalize_output(i) for i in items]
        return self._with("select", outputs)

    def join(self, other: Source, left_key: str, right_key: str,
             how: str = "inner") -> "Query":
        """Hash-join this pipeline (probe side) with ``other`` (build side)."""
        return self._with("join", other, left_key, right_key, how)

    def group_by(self, keys: Sequence[Any] = (), **aggregates: Aggregate) -> "Query":
        """Hash aggregation: ``group_by(["k"], total=expr.SUM(...))``."""
        key_outputs = [executor.normalize_output(k) for k in keys]
        aggregate_list = list(aggregates.items())
        for alias, agg in aggregate_list:
            if not isinstance(agg, Aggregate):
                raise QueryError(f"{alias!r} is not an Aggregate")
        return self._with("group_by", key_outputs, aggregate_list)

    def having(self, predicate: Expression) -> "Query":
        """Filter groups after a ``group_by``."""
        return self._with("where", predicate)

    def window(self, alias: str, function: WindowFunction,
               order_by: Any = None, desc: bool = False) -> "Query":
        """Apply a window function over a single ordered partition."""
        orders = []
        if order_by is not None:
            orders.append((wrap(order_by) if not isinstance(order_by, str)
                           else Col(order_by), desc))
        return self._with("window", alias, function, orders)

    def order_by(self, *keys: Any, desc: Union[bool, Sequence[bool]] = False) -> "Query":
        """Sort; ``desc`` may be one flag or one per key."""
        if isinstance(desc, bool):
            flags = [desc] * len(keys)
        else:
            flags = list(desc)
            if len(flags) != len(keys):
                raise QueryError("desc flags must match order_by keys")
        orders = []
        for key, flag in zip(keys, flags):
            expression = Col(key) if isinstance(key, str) else wrap(key)
            orders.append((expression, flag))
        return self._with("order_by", orders)

    def distinct(self) -> "Query":
        return self._with("distinct")

    def limit(self, count: int) -> "Query":
        return self._with("limit", count)

    def union_all(self, other: Source) -> "Query":
        return self._with("union_all", other)

    # -- execution ------------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return self._execute()

    def rows(self) -> list[Row]:
        """Execute and materialize the result rows.

        Under an ``on_shard_failure="partial")`` policy a result whose
        shards partially failed comes back as
        :class:`~repro.engine.scatter.DegradedRows` — a plain list
        carrying an explicit ``.degraded`` marker
        (:class:`~repro.errors.DegradedResult`) naming the missing
        shards.  Complete results are ordinary lists, so
        ``getattr(rows, "degraded", None)`` is the uniform check.
        """
        from repro.engine import scatter as scattermod

        morsel = self._mode != "row"
        built = self._plan()
        out = list(built.execute(morsel, hook=self._row_hook,
                                 scatter_policy=self._scatter_policy))
        marker = built.degraded()
        if marker is None:
            return out
        degraded = scattermod.DegradedRows(out)
        degraded.degraded = marker
        return degraded

    def scalar(self) -> Any:
        """Execute; return the single value of a 1x1 result."""
        result = self.rows()
        if len(result) != 1 or len(result[0]) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(result)} rows")
        return next(iter(result[0].values()))

    def count(self) -> int:
        return sum(1 for _ in self._execute())

    def _plan(self) -> "planmod.LogicalPlan":
        """Build the logical plan for the chained operations and run the
        rewrite rules (scatter-gather fusion, predicate pushdown)."""
        return planmod.rewrite(planmod.build_plan(self._source, self._ops))

    def _execute(self) -> Iterator[Row]:
        morsel = self._mode != "row"
        return self._plan().execute(morsel, hook=self._row_hook,
                                    scatter_policy=self._scatter_policy)

    def profile(self) -> dict:
        """Execute with per-operator attribution (the EXPLAIN ANALYZE
        engine).

        Runs the pipeline one stage at a time with materialized
        intermediates, so each stage's wall time, row counts and metric
        deltas (cache hits/misses included) are attributed exactly to the
        operator that caused them (lazy chaining would smear upstream
        work into whichever stage pulled the rows).  Tracing is
        force-enabled for the duration so the query's span tree lands in
        the ring buffer for :func:`repro.obs.trace.export_traces`.

        Returns ``{"mode", "elapsed_ms", "rows", "stages": [...]}``;
        each stage carries ``label``, ``op``, ``mode``, ``rows_in``,
        ``rows_out``, ``elapsed_ms`` and ``metrics`` (non-zero metric
        deltas).
        """
        from repro.obs import metrics as _obs_metrics
        from repro.obs import trace as _obs_trace

        morsel = self._mode != "row"
        mode_name = "morsel" if morsel else "row"
        source_name = getattr(self._source, "name",
                              type(self._source).__name__)
        stages: list[dict] = []

        def run_stage(label: str, op: str, batched: bool,
                      produce) -> list[Row]:
            metrics_before = _obs_metrics.snapshot_metrics()
            start = _obs_trace.monotonic()
            with _obs_trace.span("operator", op=label) as stage_span:
                out = list(produce())
                stage_span.record("rows_out", len(out))
            elapsed = (_obs_trace.monotonic() - start) * 1000.0
            stages.append({
                "label": label,
                "op": op,
                "mode": mode_name if batched else "row",
                "rows_in": stages[-1]["rows_out"] if stages else None,
                "rows_out": len(out),
                "elapsed_ms": elapsed,
                "metrics": _obs_metrics.metric_deltas(
                    metrics_before, _obs_metrics.snapshot_metrics()),
            })
            return out

        built = self._plan()
        if (self._scatter_policy is not None
                and isinstance(built.nodes[0], planmod.ScatterNode)):
            built.nodes[0].policy = self._scatter_policy
        previous_tracing = _obs_trace.set_tracing_enabled(True)
        start = _obs_trace.monotonic()
        try:
            with _obs_trace.span("query", mode=mode_name,
                                 source=source_name) as query_span:
                head = built.nodes[0]
                rows = run_stage(head.label(), head.op, head.batched,
                                 lambda: head.execute(iter(()), morsel))
                for node in built.nodes[1:]:
                    current = rows
                    rows = run_stage(
                        node.label(), node.op, node.batched,
                        lambda: node.execute(iter(current), morsel))
                query_span.record("rows_out", len(rows))
        finally:
            _obs_trace.set_tracing_enabled(previous_tracing)
        total = (_obs_trace.monotonic() - start) * 1000.0
        return {"mode": mode_name, "elapsed_ms": total,
                "rows": rows, "stages": stages}

    def explain(self, analyze: bool = False) -> str:
        """Human-readable plan, one operator per line.

        With ``analyze=True`` the query is executed via :meth:`profile`
        and each line carries the stage's observed rows in/out, wall
        time, and execution mode, followed by its indented non-zero
        metric deltas.
        """
        if not analyze:
            return "\n".join(self._plan().explain_lines())
        result = self.profile()
        lines = [f"EXPLAIN ANALYZE (mode={result['mode']}, "
                 f"rows={len(result['rows'])}, "
                 f"total={result['elapsed_ms']:.3f}ms)"]
        for stage in result["stages"]:
            rows_in = ("" if stage["rows_in"] is None
                       else f"rows_in={stage['rows_in']} ")
            lines.append(
                f"{stage['label']}  "
                f"[{rows_in}rows_out={stage['rows_out']} "
                f"{stage['elapsed_ms']:.3f}ms mode={stage['mode']}]")
            for name in sorted(stage["metrics"]):
                delta = stage["metrics"][name]
                if isinstance(delta, dict):  # histogram delta
                    rendered = (f"{delta['count']} obs / "
                                f"{delta['sum']:.3f} total")
                else:
                    rendered = str(delta)
                lines.append(f"    metric {name}: {rendered}")
        return "\n".join(lines)
