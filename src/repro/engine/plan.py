"""The explicit logical plan behind :class:`~repro.engine.query.Query`.

A chained query builds a linear :class:`LogicalPlan` — a source node
followed by operator nodes — which then passes through **rewrite
rules** before execution:

1. *predicate pushdown* (:class:`PushdownRule`): a leading WHERE over a
   JSON_TABLE view turns into JSON_EXISTS document pre-filters on the
   scan (paper §6.3); the WHERE stays — document-level filtering admits
   a superset;
2. *scatter-gather* (:class:`ScatterRule`): over a sharded source
   (anything exposing ``shard_plan()``), the maximal
   scan→filter→project[→group-by] prefix fuses into one
   :class:`ScatterNode` that runs per-shard morsel pipelines one after
   another on the statement's thread and merges partial aggregate
   states; partition pruning is decided **at rewrite time** from the
   per-shard DataGuides, so even a plain ``explain()`` shows
   ``shards=N pruned=M``;
3. *IMC projection pushdown* (:class:`IMCScanRule`): a scan of a table
   bound into an :class:`~repro.imc.store.IMCStore` whose
   scan→[filter…]→(project | group-by) prefix references a provable
   column set becomes an :class:`IMCScanNode` that materializes **only
   those columns** through the columnar cache (paper §5.2) — the
   ``imc.columns_read`` counter advancing by exactly that count is the
   observable contract in ``EXPLAIN ANALYZE``.

Rewrites preserve semantics by construction: pushdown keeps the
residual predicate, the scatter prefix computes exactly what the fused
nodes would (the differential suite asserts row parity), and pruning
only skips shards whose guide proves no document can match.

Every node renders the same ``explain()`` label the hand-wired volcano
chain printed, so plan text is stable across the refactor.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.engine import executor
from repro.engine import scatter as scattermod
from repro.engine.expressions import Expression, WindowFunction
from repro.engine.types import BlobType, RawType
from repro.errors import QueryError

Row = dict


def iterate_source(source: Any) -> Iterator[Row]:
    """Open a query source: Query (subquery), table/view (``scan()``),
    callable, or iterable of rows."""
    from repro.engine.query import Query
    if isinstance(source, Query):
        return iter(source.rows())
    if hasattr(source, "scan"):  # Table and View both expose scan()
        return source.scan()
    if callable(source):
        return source()
    from typing import Iterable
    if isinstance(source, Iterable):
        return iter(source)
    raise QueryError(f"cannot use {type(source).__name__} as a query source")


def source_name(source: Any) -> str:
    return getattr(source, "name", type(source).__name__)


class PlanNode:
    """One operator of a linear logical plan."""

    #: stage identifier in ``profile()`` output ("scan", "where", ...)
    op: str = "?"
    #: reports the query's mode in EXPLAIN ANALYZE: the stage batches
    #: rows (and dispatches kernels where it has them) under morsel mode
    batched: bool = False

    def label(self) -> str:
        raise NotImplementedError

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        raise NotImplementedError


class ScanNode(PlanNode):
    """Plan leaf: produce the source's rows.  ``exists_paths`` (set by
    the pushdown rewrite) pre-filters documents through JSON_EXISTS
    before row expansion."""

    op = "scan"
    batched = True

    def __init__(self, source: Any,
                 exists_paths: Optional[List[str]] = None) -> None:
        self.source = source
        self.exists_paths = exists_paths

    def label(self) -> str:
        name = source_name(self.source)
        if self.exists_paths:
            return f"SCAN {name} (pushdown)"
        return f"SCAN {name}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        if self.exists_paths:
            return self.source.scan_pushdown(self.exists_paths)
        return iterate_source(self.source)


class IMCScanNode(PlanNode):
    """Plan leaf: columnar scan through the table's bound
    :class:`~repro.imc.store.IMCStore`, materializing only the columns
    the query references (built by :class:`IMCScanRule`).

    The store's merged base+delta scan serves the canonical column
    values — byte-identical to row mode even right after DML — and
    for a durable table the cold path loads pinned column segments
    instead of re-extracting from OSON."""

    op = "scan"
    batched = True

    def __init__(self, source: Any, imc: Any,
                 columns: Sequence[str]) -> None:
        self.source = source
        self.imc = imc
        self.columns = list(columns)

    def label(self) -> str:
        return (f"IMC SCAN {source_name(self.source)} "
                f"[columns={', '.join(self.columns)}]")

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return iter(self.imc.scan_rows(self.source, self.columns))


class FilterNode(PlanNode):
    op = "where"
    batched = True

    def __init__(self, predicate: Expression) -> None:
        self.predicate = predicate

    def label(self) -> str:
        return f"FILTER {self.predicate.sql()}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return (executor.filter_rows_morsel(rows, self.predicate) if morsel
                else executor.filter_rows(rows, self.predicate))


class ProjectNode(PlanNode):
    op = "select"
    batched = True

    def __init__(self, outputs: Sequence) -> None:
        self.outputs = list(outputs)

    def label(self) -> str:
        rendered = ", ".join(f"{e.sql()} AS {n}" for n, e in self.outputs)
        return f"PROJECT {rendered}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return executor.project_morsel(rows, self.outputs)


class JoinNode(PlanNode):
    op = "join"
    batched = True

    def __init__(self, other: Any, left_key: str, right_key: str,
                 how: str) -> None:
        self.other = other
        self.left_key = left_key
        self.right_key = right_key
        self.how = how

    def label(self) -> str:
        return (f"HASH JOIN ({self.how}) ON "
                f"{self.left_key} = {self.right_key}")

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return executor.hash_join_morsel(rows, iterate_source(self.other),
                                         self.left_key, self.right_key,
                                         self.how)


class GroupNode(PlanNode):
    op = "group_by"
    batched = True

    def __init__(self, keys: Sequence, aggregates: Sequence) -> None:
        self.keys = list(keys)
        self.aggregates = list(aggregates)

    def label(self) -> str:
        keys = ", ".join(n for n, _e in self.keys) or "()"
        aggs = ", ".join(f"{a.sql()} AS {alias}"
                         for alias, a in self.aggregates)
        return f"HASH GROUP BY {keys} AGG {aggs}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return (executor.group_by_morsel(rows, self.keys, self.aggregates)
                if morsel
                else executor.group_by(rows, self.keys, self.aggregates))


class WindowNode(PlanNode):
    op = "window"

    def __init__(self, alias: str, function: WindowFunction,
                 orders: Sequence) -> None:
        self.alias = alias
        self.function = function
        self.orders = list(orders)

    def label(self) -> str:
        return f"WINDOW {self.alias}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return iter(executor.window(rows, self.alias, self.function,
                                    self.orders))


class SortNode(PlanNode):
    op = "order_by"

    def __init__(self, orders: Sequence) -> None:
        self.orders = list(orders)

    def label(self) -> str:
        keys = ", ".join(e.sql() + (" DESC" if d else "")
                         for e, d in self.orders)
        return f"SORT {keys}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return iter(executor.sort(rows, self.orders))


class DistinctNode(PlanNode):
    op = "distinct"

    def label(self) -> str:
        return "DISTINCT"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return executor.distinct(rows)


class LimitNode(PlanNode):
    op = "limit"

    def __init__(self, count: int) -> None:
        self.count = count

    def label(self) -> str:
        return f"LIMIT {self.count}"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return executor.limit(rows, self.count)


class UnionAllNode(PlanNode):
    op = "union_all"

    def __init__(self, other: Any) -> None:
        self.other = other

    def label(self) -> str:
        return "UNION ALL"

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        return executor.union_all([rows, iterate_source(self.other)])


class ScatterNode(PlanNode):
    """A fused scan→filter→project[→group-by] prefix executed
    shard by shard with partition pruning (built by
    :class:`ScatterRule`; execution in :mod:`repro.engine.scatter`).

    Pruning decisions are taken at construction from per-shard
    DataGuides, so the plan text itself reports how many shards the
    query will touch.  Cooperative-cancellation hooks (sessions'
    deadline checks) and the shard-failure policy are injected per
    execution via ``hook`` / ``policy``; ``last_degraded`` records the
    degraded marker of the most recent execution (None when the answer
    was complete), which :meth:`Query.rows` surfaces to callers.
    """

    op = "scan"
    batched = True

    def __init__(self, info: scattermod.ShardPlanInfo,
                 predicate: Optional[Expression],
                 outputs: Optional[Sequence],
                 group: Optional[tuple],
                 selected: Sequence[bool],
                 hook: Optional[Callable[[Row], None]] = None,
                 policy: Optional[scattermod.ScatterPolicy] = None
                 ) -> None:
        self.info = info
        self.predicate = predicate
        self.outputs = outputs
        self.group = group
        self.selected = list(selected)
        self.hook = hook
        self.policy = policy
        self.last_degraded = None

    @property
    def shards_scanned(self) -> int:
        return sum(1 for keep in self.selected if keep)

    @property
    def shards_pruned(self) -> int:
        return len(self.selected) - self.shards_scanned

    def label(self) -> str:
        parts = [f"SCATTER SCAN {self.info.name} "
                 f"[shards={len(self.selected)} "
                 f"scanned={self.shards_scanned} "
                 f"pruned={self.shards_pruned}]"]
        if self.predicate is not None:
            parts.append(f"FILTER {self.predicate.sql()}")
        if self.outputs is not None:
            rendered = ", ".join(f"{e.sql()} AS {n}"
                                 for n, e in self.outputs)
            parts.append(f"PROJECT {rendered}")
        if self.group is not None:
            keys, aggregates = self.group
            key_names = ", ".join(n for n, _e in keys) or "()"
            aggs = ", ".join(f"{a.sql()} AS {alias}"
                             for alias, a in aggregates)
            parts.append(f"GATHER GROUP BY {key_names} AGG {aggs}")
        return " -> ".join(parts)

    def execute(self, rows: Iterator[Row], morsel: bool) -> Iterator[Row]:
        out = scattermod.execute_scatter(
            self.info, self.selected, self.predicate, self.outputs,
            self.group, morsel, hook=self.hook, policy=self.policy)
        self.last_degraded = getattr(out, "degraded", None)
        return iter(out)


#: ``stage(node, produce) -> rows``: a per-node observer for
#: :meth:`LogicalPlan.execute`
Stage = Callable[[PlanNode, Callable[[], Iterator[Row]]], Iterator[Row]]


class LogicalPlan:
    """A rewritten, executable plan: a source node plus operator tail."""

    def __init__(self, nodes: List[PlanNode]) -> None:
        self.nodes = nodes

    def explain_lines(self) -> List[str]:
        return [node.label() for node in self.nodes]

    def degraded(self):
        """The degraded marker of the last execution (None when the
        plan is not a scatter or the answer was complete)."""
        head = self.nodes[0]
        if isinstance(head, ScatterNode):
            return head.last_degraded
        return None

    def execute(self, morsel: bool,
                hook: Optional[Callable[[Row], None]] = None,
                scatter_policy: Optional[scattermod.ScatterPolicy] = None,
                stage: Optional[Stage] = None) -> Iterator[Row]:
        """Run the plan — the only code that runs a plan's nodes.

        Lazy unless ``stage`` says otherwise.  ``hook`` (cancellation)
        fires on every source row and, when operators exist, every
        result row — the contract :meth:`Query.instrumented` documents.
        ``stage`` observes each node: it is called as
        ``stage(node, produce)``, must call ``produce()`` (which runs the
        node over its input) and returns the rows the next node reads;
        EXPLAIN ANALYZE materializes and measures every stage this way.
        """
        head, tail = self.nodes[0], self.nodes[1:]
        scatter = isinstance(head, ScatterNode)
        if scatter:
            head.hook = hook
            if scatter_policy is not None:
                head.policy = scatter_policy

        def scan() -> Iterator[Row]:
            rows = head.execute(iter(()), morsel)
            if hook is not None and not scatter:
                rows = scattermod.hooked(rows, hook)
            return rows

        run = stage or (lambda _node, produce: produce())
        rows = run(head, scan)
        for node in tail:
            rows = run(node, functools.partial(node.execute, rows, morsel))
        if hook is not None and (tail or scatter):
            rows = scattermod.hooked(rows, hook)
        return rows


# -- building ---------------------------------------------------------------


def build_plan(source: Any, ops: Sequence[tuple]) -> LogicalPlan:
    """Translate a query's chained operations into plan nodes (no
    rewrites yet)."""
    nodes: List[PlanNode] = [ScanNode(source)]
    for op, args in ops:
        if op == "where":
            nodes.append(FilterNode(args[0]))
        elif op == "select":
            nodes.append(ProjectNode(args[0]))
        elif op == "join":
            nodes.append(JoinNode(*args))
        elif op == "group_by":
            nodes.append(GroupNode(args[0], args[1]))
        elif op == "window":
            nodes.append(WindowNode(args[0], args[1], args[2]))
        elif op == "order_by":
            nodes.append(SortNode(args[0]))
        elif op == "distinct":
            nodes.append(DistinctNode())
        elif op == "limit":
            nodes.append(LimitNode(args[0]))
        elif op == "union_all":
            nodes.append(UnionAllNode(args[0]))
        else:
            raise QueryError(f"unknown operation {op!r}")
    return LogicalPlan(nodes)


# -- rewrite rules -----------------------------------------------------------


class PushdownRule:
    """Leading WHERE over a pushdown-capable view → JSON_EXISTS
    document pre-filters on the scan (§6.3).  Sound because document
    filtering admits a superset and the residual WHERE remains."""

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        nodes = plan.nodes
        if len(nodes) < 2 or not isinstance(nodes[1], FilterNode):
            return plan
        scan = nodes[0]
        if not isinstance(scan, ScanNode):
            return plan
        view = scan.source
        if (not hasattr(view, "scan_pushdown")
                or not hasattr(view, "pushdown_path")):
            return plan
        paths = []
        for column, op, values in scattermod.pushable_conjuncts(
                nodes[1].predicate):
            rendered = view.pushdown_path(column, op, values)
            if rendered is not None:
                paths.append(rendered)
        if not paths:
            return plan
        return LogicalPlan([ScanNode(view, exists_paths=paths)]
                           + nodes[1:])


class ScatterRule:
    """Sharded source → fuse the maximal
    scan→filter→project[→group-by] prefix into a :class:`ScatterNode`
    with rewrite-time partition pruning.

    Applies only to a plain scan of a source exposing ``shard_plan()``.
    Pushdown and scatter are mutually exclusive, and scatter wins: a
    JSON_TABLE view over a sharded table gets no JSON_EXISTS document
    pre-filter, because ``shard_plan``'s streams expand every document
    of every surviving shard.  Pruning drops whole shards only.
    """

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        nodes = plan.nodes
        scan = nodes[0]
        if not isinstance(scan, ScanNode) or scan.exists_paths:
            return plan
        plan_fn = getattr(scan.source, "shard_plan", None)
        if plan_fn is None:
            return plan
        info = plan_fn()
        if info is None or not info.shards:
            return plan
        predicate: Optional[Expression] = None
        outputs: Optional[Sequence] = None
        group: Optional[tuple] = None
        consumed = 0
        for node in nodes[1:]:
            if (isinstance(node, FilterNode) and predicate is None
                    and outputs is None and group is None):
                predicate = node.predicate
            elif (isinstance(node, ProjectNode) and outputs is None
                    and group is None):
                outputs = node.outputs
            elif isinstance(node, GroupNode) and group is None:
                group = (node.keys, node.aggregates)
            else:
                break
            consumed += 1
        conjuncts = (scattermod.pushable_conjuncts(predicate)
                     if predicate is not None else [])
        selected = scattermod.prune_shards(info, conjuncts)
        fused = ScatterNode(info, predicate, outputs, group, selected)
        return LogicalPlan([fused] + nodes[1 + consumed:])


def _collect_columns(expr: Any, out: set) -> bool:
    """Record every column ``expr`` reads into ``out``.  Returns False
    for any node shape this walker does not fully understand — the
    caller then refuses to narrow the scan (conservative by design:
    an unprovable column set must never drop a column a row-mode
    evaluation would have seen)."""
    from repro.engine import expressions as E
    if isinstance(expr, E.Literal):
        return True
    if isinstance(expr, E.Col):
        out.add(expr.name)
        return True
    if isinstance(expr, E.Aliased):
        return _collect_columns(expr.inner, out)
    if isinstance(expr, (E.Arithmetic, E.Comparison)):
        return (_collect_columns(expr.left, out)
                and _collect_columns(expr.right, out))
    if isinstance(expr, (E.And, E.Or)):
        return all(_collect_columns(part, out) for part in expr.parts)
    if isinstance(expr, E.Not):
        return _collect_columns(expr.inner, out)
    if isinstance(expr, (E.InList, E.Like, E.IsNull)):
        return _collect_columns(expr.operand, out)
    if isinstance(expr, E.Func):
        return all(_collect_columns(arg, out) for arg in expr.args)
    if isinstance(expr, E.Nvl):
        return (_collect_columns(expr.inner, out)
                and _collect_columns(expr.alt, out))
    if isinstance(expr, E._SqlJsonExpr):
        return _collect_columns(expr.column, out)
    return False


class IMCScanRule:
    """Table bound into an IMC columnar cache + a shaping prefix →
    scan only the referenced columns through the cache (§5.2).

    Fires on a ``scan [filter]* (project | group-by)`` prefix whose
    expressions :func:`_collect_columns` fully resolves.  The shaping
    terminator is required: without a PROJECT/GROUP BY the caller sees
    whole rows, so a narrowed scan would change the answer.  Only the
    scan node is replaced — the filter/project/group nodes stay and
    run unchanged over rows that carry exactly the columns they read.
    """

    def apply(self, plan: LogicalPlan) -> LogicalPlan:
        nodes = plan.nodes
        scan = nodes[0]
        if not isinstance(scan, ScanNode) or scan.exists_paths:
            return plan
        source = scan.source
        imc = getattr(source, "imc", None)
        if imc is None or not hasattr(source, "has_column"):
            return plan
        needed: set = set()
        shaped = False
        for node in nodes[1:]:
            if isinstance(node, FilterNode):
                if not _collect_columns(node.predicate, needed):
                    return plan
                continue
            if isinstance(node, ProjectNode):
                if not all(_collect_columns(expr, needed)
                           for _name, expr in node.outputs):
                    return plan
                shaped = True
            elif isinstance(node, GroupNode):
                if not all(_collect_columns(expr, needed)
                           for _name, expr in node.keys):
                    return plan
                for _alias, aggregate in node.aggregates:
                    operand = getattr(aggregate, "operand", None)
                    if operand is not None \
                            and not _collect_columns(operand, needed):
                        return plan
                shaped = True
            break
        if not shaped:
            return plan
        columns = sorted(needed)
        # COUNT(*)-only prefixes reference nothing: a zero-column scan
        # cannot carry the row count, so leave those to the row path;
        # binary values (an OSON BLOB) have no column-vector kind
        if not columns or not all(
                source.has_column(name) and not isinstance(
                    source.column(name).sql_type, (BlobType, RawType))
                for name in columns):
            return plan
        return LogicalPlan([IMCScanNode(source, imc, columns)]
                           + nodes[1:])


# scatter first: a sharded source scatters, and pushdown then no-ops
# because the head is no longer a plain ScanNode — so a sharded view
# loses the per-document JSON_EXISTS pre-filter (shard pruning drops
# whole shards only, never documents).  IMC narrowing runs last for the
# same reason — it only fires on a plain unsharded, un-pushed-down table
# scan, which is exactly what the earlier rules leave untouched.
_RULES = (ScatterRule(), PushdownRule(), IMCScanRule())


def rewrite(plan: LogicalPlan) -> LogicalPlan:
    for rule in _RULES:
        plan = rule.apply(plan)
    return plan
