"""Differential tests: morsel-batched execution vs row-at-a-time.

Every plan must produce the identical row list (values *and* order)
under both execution modes, whether a batch dispatches to the numpy
kernels or falls back to compiled closures.  The row strategies
deliberately include the gate-tripping cases — booleans, huge ints,
floats, NULL group keys, mixed-type columns — so both dispatch outcomes
are exercised.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Query, expr
from repro.errors import QueryError
from repro.obs import take_spans

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.just(2 ** 60),  # outside float64's exact range: forces fallback
    st.sampled_from([0.5, 2.0, -1.25]),
    st.sampled_from(["x", "y", "ab"]),
)

_ROWS = st.lists(
    st.fixed_dictionaries({"k": st.one_of(st.none(),
                                          st.sampled_from(["a", "b", "c"])),
                           "v": _VALUES,
                           "w": st.integers(min_value=-100, max_value=100)}),
    max_size=60)

_LITERALS = st.one_of(st.none(), st.booleans(),
                      st.integers(min_value=-5, max_value=5),
                      st.sampled_from([0.5, "x", "ab"]))

_OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _predicates():
    simple = st.one_of(
        st.tuples(st.sampled_from(["k", "v", "w"]), _OPS, _LITERALS).map(
            lambda t: expr.Comparison(t[1], expr.Col(t[0]),
                                      expr.Literal(t[2]))),
        st.sampled_from(["k", "v"]).map(
            lambda c: expr.Col(c).in_(["a", 1, 0.5])),
        st.sampled_from(["k", "v"]).map(lambda c: expr.Col(c).is_null()),
        st.sampled_from(["k", "v"]).map(lambda c: expr.Col(c).is_not_null()),
        st.sampled_from(["k"]).map(lambda c: expr.Col(c).like("a%")),
    )
    return st.one_of(
        simple,
        st.tuples(simple, simple).map(lambda t: expr.And(*t)),
        st.tuples(simple, simple).map(lambda t: expr.Or(*t)),
        simple.map(expr.Not),
    )


def _outcome(run):
    try:
        return ("rows", run())
    except QueryError as exc:
        return ("error", str(exc))


def _compare_modes(build):
    """Run the same plan in both modes, through ``rows()`` and through
    ``profile()`` (the EXPLAIN ANALYZE runner); every outcome —
    exceptions included — must match."""
    outcomes = []
    for mode in ("row", "morsel"):
        query = build().mode(mode)
        outcomes.append(_outcome(query.rows))
        outcomes.append(_outcome(lambda: query.profile()["rows"]))
    take_spans()
    assert all(outcome == outcomes[0] for outcome in outcomes)
    return outcomes[0]


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, predicate=_predicates())
def test_filter_parity(rows, predicate):
    _compare_modes(lambda: Query(rows).where(predicate))


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS, predicate=_predicates())
def test_filter_project_parity(rows, predicate):
    _compare_modes(lambda: (Query(rows)
                            .where(predicate)
                            .select("k", (expr.Col("w") * 2).as_("w2"),
                                    expr.NVL(expr.Col("v"), -1).as_("v"))))


@settings(max_examples=150, deadline=None)
@given(rows=_ROWS)
def test_group_by_parity(rows):
    _compare_modes(lambda: (Query(rows)
                            .group_by(["k"], n=expr.COUNT(),
                                      nv=expr.COUNT(expr.Col("v")),
                                      total=expr.SUM(expr.Col("w")),
                                      lo=expr.MIN(expr.Col("w")))))


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS)
def test_global_aggregation_parity(rows):
    _compare_modes(lambda: (Query(rows)
                            .group_by([], n=expr.COUNT(),
                                      total=expr.SUM(expr.Col("w")),
                                      hi=expr.MAX(expr.Col("w")))))


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS)
def test_sum_of_gate_tripping_values_parity(rows):
    """SUM over the column that mixes huge ints, floats and bools —
    every morsel must take the closure path and still agree exactly."""
    _compare_modes(lambda: (Query(rows)
                            .where(expr.Col("v").is_not_null())
                            .group_by(["k"], s=expr.COUNT(expr.Col("v")))))


@settings(max_examples=75, deadline=None)
@given(left=_ROWS, right=_ROWS)
def test_join_parity(left, right):
    _compare_modes(lambda: (Query(left)
                            .join([{"k": r["k"], "r": r["w"]} for r in right],
                                  "k", "k", how="left")))


def test_missing_column_raises_in_both_modes():
    rows = [{"a": 1}, {"b": 2}]
    for mode in ("row", "morsel"):
        with pytest.raises(QueryError):
            Query(rows).where(expr.Col("b") == 2).mode(mode).rows()
        with pytest.raises(QueryError):
            Query(rows).group_by(["b"], n=expr.COUNT()).mode(mode).rows()


def test_mode_survives_chaining():
    q = Query([{"a": 1}]).mode("row").where(expr.Col("a") == 1).limit(1)
    assert q._mode == "row"


def test_unknown_mode_rejected():
    with pytest.raises(QueryError):
        Query([]).mode("vectorized")
