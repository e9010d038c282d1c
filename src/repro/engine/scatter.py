"""Scatter-gather execution over sharded sources, with partition pruning.

A source that can execute shard by shard exposes ``shard_plan()``
returning a :class:`ShardPlanInfo`: one row stream per shard (each
pinned to that shard's snapshot), the shard's covering DataGuide, and
the column→path / routing metadata the pruner needs.  The planner's
scatter rewrite (:mod:`repro.engine.plan`) fuses the leading
scan→filter→project→group-by prefix of a query into one scatter node;
this module supplies its two halves:

* :func:`prune_shards` — decide statically, from per-shard DataGuides,
  which shards **cannot** contribute rows to a pushed-down predicate
  and skip them entirely.  Three sound rules (see DESIGN §10.4):
  path absence, min/max zone intervals, routing-hash equality.  Every
  rule errs toward scanning: a shard is skipped only when its guide
  *proves* no document can satisfy the predicate.
* :func:`execute_scatter` — run the fused per-shard pipeline (the 1k-row
  morsel executor) over each surviving shard in shard-index order on
  the statement's own thread, and gather: group-by states merge through
  :func:`~repro.engine.executor.gather_group_partials` (deterministic
  output order), plain row pipelines concatenate.  Every pipeline is
  pure-Python CPU work over an in-memory snapshot, so threads would
  only take turns on the interpreter lock; the multi-core shape is
  process-parallel workers over the serialized-partials contract
  (DESIGN §10.5).

``engine.scatter.shards_scanned`` / ``engine.scatter.shards_pruned``
count every scatter execution and surface per-query in EXPLAIN ANALYZE
as metric deltas.

Fault tolerance (:class:`ScatterPolicy`): each shard scan retries
transient faults under the seeded backoff schedule (retry time charged
to the query's ``CancelToken`` deadline via the token's lookahead
check), reports outcomes to the store's health board, and the gather
applies the caller's ``on_shard_failure`` policy — ``"fail"`` raises
the first failure typed and opens no later shard; ``"partial"`` runs
every other shard and returns the surviving shards' rows as
:class:`DegradedRows` carrying an explicit
:class:`~repro.errors.DegradedResult` marker (never silent:
``engine.scatter.shards_failed`` rides EXPLAIN ANALYZE next to
``shards_scanned``/``shards_pruned``).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterator, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # imported lazily to stay out of the package cycle
    from repro.core.dataguide.guide import DataGuide

from repro.engine import executor
from repro.engine.expressions import (Aggregate, And, Col, Comparison,
                                      Expression, InList, Literal)
from repro.errors import (DegradedResult, RETRYABLE_FAULTS,
                          ShardUnavailable)
from repro.obs import clock as _clock

Row = dict

#: comparison spellings the interval pruner understands
_INTERVAL_OPS = ("=", "<", "<=", ">", ">=")


def pushable_conjuncts(expression: Expression
                       ) -> List[Tuple[str, str, list]]:
    """Extract ``(column, op, literal values)`` conjuncts from a WHERE
    tree — the decomposable part shared by JSON_EXISTS pushdown and
    partition pruning.  Non-decomposable parts are simply not pushed;
    the original predicate always still runs."""
    if isinstance(expression, And):
        out: List[Tuple[str, str, list]] = []
        for part in expression.parts:
            out.extend(pushable_conjuncts(part))
        return out
    if (isinstance(expression, Comparison)
            and isinstance(expression.left, Col)
            and isinstance(expression.right, Literal)
            and expression.right.value is not None):
        return [(expression.left.name, expression.op,
                 [expression.right.value])]
    if isinstance(expression, InList) and isinstance(expression.operand,
                                                    Col):
        return [(expression.operand.name, "=", list(expression.values))]
    return []


class ShardInput:
    """One shard's contribution to a scatter plan: a factory for its
    pinned row stream plus the DataGuide covering that stream."""

    __slots__ = ("index", "rows", "guide")

    def __init__(self, index: int, rows: Callable[[], Iterator[Row]],
                 guide: DataGuide) -> None:
        self.index = index
        self.rows = rows
        self.guide = guide


class ShardPlanInfo:
    """Everything the scatter rewrite needs from a sharded source.

    ``prune_path`` maps an output column name to the DataGuide path its
    values come from (``$.col`` for table columns, the JSON_TABLE
    absolute path with ``[*]`` steps dropped for view columns), or None
    when the column's provenance is unknown — that column then
    contributes nothing to pruning.  ``shard_of_value`` is the router's
    placement function when a routing field exists.  ``health`` is the
    source store's :class:`~repro.storage.health.ShardHealthBoard`
    (None for unsharded-compatible callers): shard scans consult it
    fail-fast and report read outcomes to it, so read- and write-side
    failures feed one state machine.
    """

    __slots__ = ("name", "shards", "prune_path", "routing_field",
                 "shard_of_value", "health")

    def __init__(self, name: str, shards: Sequence[ShardInput],
                 prune_path: Callable[[str], Optional[str]],
                 routing_field: Optional[str] = None,
                 shard_of_value: Optional[Callable[[Any], Optional[int]]]
                 = None, health: Optional[Any] = None) -> None:
        self.name = name
        self.shards = list(shards)
        self.prune_path = prune_path
        self.routing_field = routing_field
        self.shard_of_value = shard_of_value
        self.health = health


# -- pruning ---------------------------------------------------------------


def _scalar_interval(guide: "DataGuide", path: str
                     ) -> Optional[Tuple[str, Any, Any]]:
    """The proven value interval of a scalar path, or None when the
    guide cannot vouch for one (heterogeneous types, missing bounds).

    Mirrors the zone-stats gate in :func:`repro.storage.manifest
    .zone_stats_from_builder`: only ``number``/``string`` entries with
    type-correct bounds count.  A ``number`` entry is provably
    homogeneous (any type mixture generalizes to string), so its
    interval is exact.  A ``string`` entry may mask a mixed-type path
    whose extremes were coerced through ``str()`` — but the coerced
    bounds still cover the ``str()`` image of *every* stored value, so
    they form a valid superset interval for string literals; the
    caller (:func:`_interval_can_match`) must simply never prune a
    non-string literal against it.
    """
    entry = None
    for candidate in guide.entries():
        if candidate.path != path:
            continue
        if candidate.kind != "scalar":
            # the path also occurs as object/array: values exist the
            # interval does not describe — no proof possible
            return None
        entry = candidate
    if entry is None or entry.scalar_type not in ("number", "string"):
        return None
    expected = str if entry.scalar_type == "string" else (int, float)
    low, high = entry.min_value, entry.max_value
    if (not isinstance(low, expected) or not isinstance(high, expected)
            or isinstance(low, bool) or isinstance(high, bool)):
        return None
    return entry.scalar_type, low, high


def _typed(scalar_type: str, value: Any) -> bool:
    if isinstance(value, bool):
        return False
    if scalar_type == "string":
        return isinstance(value, str)
    return isinstance(value, (int, float))


def _interval_can_match(interval: Tuple[str, Any, Any], op: str,
                        values: Sequence[Any]) -> bool:
    """Could any value inside ``[low, high]`` satisfy ``op value``?
    Unknown operators or type-mismatched literals answer True (never
    prune on what we cannot reason about).  For equality the rules are
    asymmetric, because only ``number`` entries are provably
    homogeneous:

    * number entry, string literal — cannot equal any stored value,
      so ``=`` prunes;
    * number entry, bool literal — the engine compares booleans
      numerically (``1 = TRUE`` matches), so the literal prunes by its
      0/1 image;
    * string entry, non-string literal — the entry may mask a
      mixed-type path (heterogeneous values generalize to string and
      coerce their extremes through ``str()``), so a masked number or
      bool could equal the literal: always scan.
    """
    scalar_type, low, high = interval
    if op == "=":
        for value in values:
            if isinstance(value, bool):
                if scalar_type == "string" or low <= int(value) <= high:
                    return True
                continue
            if not _typed(scalar_type, value):
                if scalar_type == "string":
                    return True
                continue
            if low <= value <= high:
                return True
        return False
    if op not in _INTERVAL_OPS or len(values) != 1:
        return True
    value = values[0]
    if not _typed(scalar_type, value):
        return True
    if op == "<":
        return low < value
    if op == "<=":
        return low <= value
    if op == ">":
        return high > value
    return high >= value                     # ">="


def shard_can_match(guide: "DataGuide", path: str, op: str,
                    values: Sequence[Any]) -> bool:
    """Could any document in a shard covered by ``guide`` satisfy the
    conjunct?  False only under proof:

    * **path absence** — no entry of any kind at ``path`` means no
      document in the shard has the path at all; the column scans as
      NULL and every comparison drops the row (SQL three-valued logic);
    * **interval miss** — the path's proven min/max interval cannot
      contain a satisfying value.

    The guide is captured *with* the shard snapshot and can only run
    ahead of it (extra paths, wider ranges — see
    :meth:`~repro.storage.store.CollectionStore.snapshot_with_guide`),
    so both proofs hold for the stream being pruned.
    """
    if not any(entry.path == path for entry in guide.entries()):
        return False
    interval = _scalar_interval(guide, path)
    if interval is None:
        return True
    return _interval_can_match(interval, op, values)


def prune_shards(info: ShardPlanInfo,
                 conjuncts: Sequence[Tuple[str, str, list]]
                 ) -> List[bool]:
    """Per-shard keep/skip decisions for a pushed-down predicate.

    Returns ``selected[i]`` per shard.  A shard survives unless some
    conjunct proves it empty of matches — conjuncts are AND-ed, so any
    single impossible conjunct suffices.  Routing equality additionally
    restricts to the shards the routing values hash to: documents
    *with* the routing field provably live there (inserts route by
    hash, updates refuse to move a document's routing hash), and
    documents without it cannot match an equality on it.
    """
    selected = [True] * len(info.shards)
    routed: Optional[set] = None
    for column, op, values in conjuncts:
        if (op == "=" and values and info.routing_field == column
                and info.shard_of_value is not None):
            placed = {info.shard_of_value(v) for v in values}
            if None not in placed:  # every literal routable
                routed = placed if routed is None else routed & placed
        path = info.prune_path(column)
        if path is None:
            continue
        for shard in info.shards:
            if selected[shard.index] and not shard_can_match(
                    shard.guide, path, op, values):
                selected[shard.index] = False
    if routed is not None:
        for shard in info.shards:
            if shard.index not in routed:
                selected[shard.index] = False
    return selected


# -- execution -------------------------------------------------------------


#: what a partial-read policy may degrade over: retryable faults plus
#: the health board's fail-fast refusal.  Semantic errors (QueryError,
#: arithmetic) are never degradable — they propagate unchanged, so a
#: sharded query and its unsharded twin fail identically.
DEGRADABLE_FAULTS = RETRYABLE_FAULTS + (ShardUnavailable,)

_FAILED_STATE = "failed"  # mirrors repro.storage.health.FAILED


class ScatterPolicy:
    """How a scatter execution treats shard failure.

    ``on_failure="fail"`` (the default) propagates the first shard
    failure as its typed error without opening a later shard;
    ``"partial"`` degrades instead: surviving shards' rows return as
    :class:`DegradedRows` with an explicit marker.  ``backoff`` is the
    seeded per-shard retry schedule; ``token`` (the serve layer's
    ``CancelToken``, duck-typed) charges retry waits against the query
    deadline via ``token.check(ahead_s)``.
    """

    __slots__ = ("on_failure", "backoff", "token")

    def __init__(self, on_failure: str = "fail",
                 backoff: Optional[_clock.BackoffPolicy] = None,
                 token: Optional[Any] = None) -> None:
        if on_failure not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'fail' or 'partial', got "
                f"{on_failure!r}")
        self.on_failure = on_failure
        self.backoff = backoff or _clock.BackoffPolicy()
        self.token = token


class DegradedRows(list):
    """A scatter result that is explicitly *not* the full answer: a
    plain row list (so every downstream consumer works unchanged) with
    a :class:`~repro.errors.DegradedResult` marker naming the missing
    shards.  Callers that refuse degraded data do
    ``raise rows.degraded``."""

    degraded: Optional[DegradedResult] = None


def _shard_pipeline(shard: ShardInput, predicate: Optional[Expression],
                    outputs: Optional[Sequence], morsel: bool,
                    hook: Optional[Callable[[Row], None]]
                    ) -> Iterator[Row]:
    rows: Iterator[Row] = shard.rows()
    if hook is not None:
        rows = hooked(rows, hook)
    if predicate is not None:
        rows = (executor.filter_rows_morsel(rows, predicate) if morsel
                else executor.filter_rows(rows, predicate))
    if outputs is not None:
        rows = executor.project_morsel(rows, outputs)
    return rows


def hooked(rows: Iterator[Row],
           hook: Callable[[Row], None]) -> Iterator[Row]:
    """Call ``hook`` on every row before passing it on (cooperative
    cancellation: the hook raises to abort the statement)."""
    for row in rows:
        hook(row)
        yield row


def _backoff_wait(policy: ScatterPolicy, key: str, attempt: int) -> None:
    """Sleep out one backoff step, charging the wait against the query
    deadline *before* sleeping: the token's lookahead check raises
    ``QueryTimeout`` when the wait would overrun, so a retry never
    sleeps past a deadline it cannot meet."""
    delay = policy.backoff.delay_ms(key, attempt) / 1000.0
    token = policy.token
    if token is not None:
        token.check(delay)
    _clock.sleep(delay)
    if token is not None:
        token.check()


def execute_scatter(info: ShardPlanInfo, selected: Sequence[bool],
                    predicate: Optional[Expression],
                    outputs: Optional[Sequence],
                    group: Optional[Tuple[Sequence, Sequence[Tuple[str,
                                                                   Aggregate]]]],
                    morsel: bool,
                    hook: Optional[Callable[[Row], None]] = None,
                    policy: Optional[ScatterPolicy] = None) -> List[Row]:
    """Run the fused scan→filter→project[→group-by] prefix over the
    surviving shards, one after another in shard-index order on the
    caller's thread, and gather.

    Per shard the pipeline is exactly the single-stream morsel (or row)
    executor; with a fused group-by each shard produces **partial**
    aggregate states and the gather merges them in shard-index order
    (:func:`~repro.engine.executor.gather_group_partials`) before
    finalizing — row-parity with the unsharded plan is asserted by the
    differential suite.  The cooperative-cancellation hook fires on
    every source row, so a session deadline aborts mid-scan; spans
    opened inside a shard stream nest under the statement's span.

    Failure handling follows ``policy`` (:class:`ScatterPolicy`):
    transient faults retry per shard under the seeded backoff schedule
    with outcomes reported to the health board; exhausted retries
    surface as :class:`ShardUnavailable`.  Under ``"fail"`` the first
    degradable failure re-raises typed and no later shard is opened.
    Under ``"partial"`` degradable failures are collected, the other
    shards still run, and the surviving shards' rows return as
    :class:`DegradedRows` with an explicit marker.  Semantic errors and
    ``BaseException`` subclasses (``QueryTimeout``, ``SimulatedCrash``)
    always propagate unchanged under either policy.
    """
    from repro.obs import metrics as _obs_metrics

    policy = policy or ScatterPolicy()
    live = [shard for shard in info.shards if selected[shard.index]]
    _obs_metrics.counter("engine.scatter.shards_scanned").inc(len(live))
    _obs_metrics.counter("engine.scatter.shards_pruned").inc(
        len(info.shards) - len(live))
    retries = _obs_metrics.counter("engine.scatter.retries")
    shards_failed = _obs_metrics.counter("engine.scatter.shards_failed")
    degraded_results = _obs_metrics.counter(
        "engine.scatter.degraded_results")
    board = info.health

    if group is not None:
        keys, aggregates = group

    def run(shard: ShardInput) -> Any:
        rows = _shard_pipeline(shard, predicate, outputs, morsel, hook)
        if group is None:
            return list(rows)
        return executor.partial_group_by(rows, keys, aggregates,
                                         morsel=morsel)

    retried = 0

    def run_with_retry(shard: ShardInput) -> Any:
        nonlocal retried
        if board is not None and not board.admit(shard.index):
            raise ShardUnavailable("read refused", shard_index=shard.index,
                                   state=board.state(shard.index))
        key = f"{info.name}:{shard.index}"
        attempts = max(1, policy.backoff.max_attempts)
        for attempt in range(attempts):
            try:
                result = run(shard)
            except RETRYABLE_FAULTS as exc:
                state = (board.record_failure(shard.index)
                         if board is not None else "")
                if state == _FAILED_STATE or attempt + 1 >= attempts:
                    raise ShardUnavailable(
                        f"scan failed after {attempt + 1} attempt(s): "
                        f"{exc}", shard_index=shard.index,
                        state=state) from exc
                retries.inc()
                retried += 1
                _backoff_wait(policy, key, attempt)
            else:
                if board is not None:
                    board.record_success(shard.index)
                return result

    partial = policy.on_failure == "partial"
    surviving: List[Any] = []
    failures: List[int] = []
    # shard-index order: the gather order, and under "fail" no shard
    # after the first failure is ever opened
    for shard in live:
        try:
            surviving.append(run_with_retry(shard))
        except DEGRADABLE_FAULTS:
            if not partial:
                shards_failed.inc()
                raise
            failures.append(shard.index)

    if failures:
        shards_failed.inc(len(failures))
        degraded_results.inc()

    if group is not None:
        gathered = executor.gather_group_partials(surviving, aggregates)
        rows: List[Row] = list(executor.finalize_groups(
            gathered, keys, aggregates))
    else:
        rows = []
        for part in surviving:
            rows.extend(part)

    if failures:
        degraded = DegradedRows(rows)
        degraded.degraded = DegradedResult(
            f"partial result from {info.name}",
            shards_failed=tuple(sorted(failures)),
            retries=retried)
        return degraded
    return rows
