"""One plan runner: ``rows()`` and EXPLAIN ANALYZE execute the same way.

``Query.profile()`` observes :meth:`LogicalPlan.execute` through its
per-stage callback instead of running the nodes itself, so the
``instrumented`` cancellation hook, the scatter policy and the operator
semantics are the ones :meth:`Query.rows` applies.
"""

import pytest

from repro.engine import Query, expr
from repro.errors import QueryTimeout
from repro.obs import take_spans
from tests.engine.test_plan import SHARDS, FakeShardedSource

ROWS = [{"k": i % 3, "v": i} for i in range(10)]


@pytest.fixture(autouse=True)
def drain_spans():
    """profile() force-enables tracing; drop what each test recorded."""
    yield
    take_spans()


def _queries():
    return {
        "filter_group": (Query(ROWS)
                         .where(expr.Col("v") >= 2)
                         .group_by(["k"], n=expr.COUNT())),
        "scan_only": Query(ROWS),
        "sort_limit": Query(ROWS).order_by("v", desc=True).limit(4),
        "scatter": (Query(FakeShardedSource(SHARDS))
                    .where(expr.Col("v") >= 10)
                    .order_by("v")),
    }


def _hooked_rows(query, run):
    seen = []
    result = run(query.instrumented(seen.append))
    return result, seen


@pytest.mark.parametrize("mode", ["row", "morsel"])
@pytest.mark.parametrize("name", sorted(_queries()))
def test_profile_calls_hook_on_the_same_rows(name, mode):
    query = _queries()[name].mode(mode)
    rows, via_rows = _hooked_rows(query, lambda q: q.rows())
    profiled, via_profile = _hooked_rows(query, lambda q: q.profile())
    assert profiled["rows"] == rows
    assert via_profile == via_rows
    assert via_rows  # the hook fired at all
    _text, via_explain = _hooked_rows(
        query, lambda q: q.explain(analyze=True))
    assert via_explain == via_rows


def test_filter_group_hook_count():
    """Ten source rows plus three result groups, under every runner."""
    query = _queries()["filter_group"]
    for run in (lambda q: q.rows(), lambda q: q.profile(),
                lambda q: q.explain(analyze=True)):
        _result, seen = _hooked_rows(query, run)
        assert len(seen) == 13


@pytest.mark.parametrize("mode", ["row", "morsel"])
def test_raising_hook_aborts_explain_analyze(mode):
    calls = []

    def deadline(row):
        calls.append(row)
        if len(calls) > 3:
            raise QueryTimeout("statement deadline")

    query = _queries()["filter_group"].mode(mode).instrumented(deadline)
    with pytest.raises(QueryTimeout):
        query.explain(analyze=True)
    assert len(calls) == 4  # aborted at the row boundary, mid-scan
    with pytest.raises(QueryTimeout):
        query.profile()


def test_profile_stages_observe_the_runner():
    """The stage callback sees every plan node once, in plan order."""
    query = _queries()["filter_group"]
    stages = query.profile()["stages"]
    assert [s["label"] for s in stages] == query._plan().explain_lines()
