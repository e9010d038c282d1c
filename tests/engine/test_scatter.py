"""Partition pruning rules and the scatter-gather executor.

Pruning soundness is the load-bearing property (DESIGN §10.4): a shard
may be skipped only when its DataGuide *proves* no document can match.
Every ambiguous case — heterogeneous types, missing bounds, unknown
operators — must answer "could match" and scan.  The gather half is
pinned to single-stream ``group_by`` row parity.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataguide.builder import DataGuideBuilder
from repro.engine import executor, expr
from repro.engine.scatter import (ShardInput, ShardPlanInfo,
                                  execute_scatter, prune_shards,
                                  pushable_conjuncts, shard_can_match)
from repro.obs import trace


def guide_of(*documents):
    builder = DataGuideBuilder()
    builder.add_many(list(documents))
    return builder.guide()


class TestPushableConjuncts:
    def test_comparison_and_inlist(self):
        conjuncts = pushable_conjuncts(
            expr.And(expr.Col("a") == 1, expr.Col("b").in_(["x", "y"])))
        assert ("a", "=", [1]) in conjuncts
        assert ("b", "=", ["x", "y"]) in conjuncts

    def test_non_decomposable_parts_dropped(self):
        either = expr.Or(expr.Col("a") == 1, expr.Col("b") == 2)
        assert pushable_conjuncts(either) == []
        conjuncts = pushable_conjuncts(expr.And(either, expr.Col("c") > 3))
        assert conjuncts == [("c", ">", [3])]

    def test_null_literal_not_pushed(self):
        assert pushable_conjuncts(expr.Col("a") == None) == []  # noqa: E711

    def test_column_to_column_not_pushed(self):
        assert pushable_conjuncts(expr.Col("a") == expr.Col("b")) == []


class TestShardCanMatch:
    def test_path_absence_prunes(self):
        guide = guide_of({"other": 1})
        assert not shard_can_match(guide, "$.v", "=", [5])

    def test_interval_miss_prunes(self):
        guide = guide_of({"v": 10}, {"v": 20})
        assert not shard_can_match(guide, "$.v", "=", [5])
        assert not shard_can_match(guide, "$.v", ">", [20])
        assert not shard_can_match(guide, "$.v", ">=", [21])
        assert not shard_can_match(guide, "$.v", "<", [10])
        assert not shard_can_match(guide, "$.v", "<=", [9])

    def test_interval_hit_scans(self):
        guide = guide_of({"v": 10}, {"v": 20})
        assert shard_can_match(guide, "$.v", "=", [15])
        assert shard_can_match(guide, "$.v", ">", [19])
        assert shard_can_match(guide, "$.v", ">=", [20])
        assert shard_can_match(guide, "$.v", "<", [11])
        assert shard_can_match(guide, "$.v", "<=", [10])

    def test_string_interval(self):
        guide = guide_of({"r": "eu"}, {"r": "us"})
        assert not shard_can_match(guide, "$.r", "=", ["ap"])
        assert shard_can_match(guide, "$.r", "=", ["eu"])
        assert shard_can_match(guide, "$.r", "=", ["fr"])  # inside range

    def test_in_list_prunes_only_when_every_value_misses(self):
        guide = guide_of({"v": 10}, {"v": 20})
        assert shard_can_match(guide, "$.v", "=", [5, 15])
        assert not shard_can_match(guide, "$.v", "=", [5, 25])

    def test_mixed_type_path_prunes_soundly(self):
        """A path holding both numbers and strings generalizes to
        ``string`` and coerces its extremes through ``str()``.  The
        coerced bounds still cover every value's ``str()`` image, so a
        string literal outside them may prune — but a number or bool
        literal could equal a *masked* non-string value and must always
        scan."""
        guide = guide_of({"v": 10}, {"v": "zebra"})
        # interval is ['10', 'zebra'] — masked number 10 would be lost
        assert shard_can_match(guide, "$.v", "=", [10])
        assert shard_can_match(guide, "$.v", "=", [99999])
        assert shard_can_match(guide, "$.v", "=", ["zebra"])
        assert not shard_can_match(guide, "$.v", "=", ["zzzz"])
        # a masked bool could equal a bool literal, too
        masked_bool = guide_of({"v": True}, {"v": "zebra"})
        assert shard_can_match(masked_bool, "$.v", "=", [True])

    def test_path_also_object_never_prunes_by_interval(self):
        guide = guide_of({"v": 10}, {"v": {"nested": 1}})
        assert shard_can_match(guide, "$.v", "=", [99999])

    def test_type_mismatched_equality_can_prune(self):
        """Homogeneous numbers can never equal a string literal."""
        guide = guide_of({"v": 10}, {"v": 20})
        assert not shard_can_match(guide, "$.v", "=", ["10"])

    def test_type_mismatched_range_scans(self):
        guide = guide_of({"v": 10}, {"v": 20})
        assert shard_can_match(guide, "$.v", ">", ["a"])

    def test_bool_literal_unifies_numerically_for_equality(self):
        """The engine matches ``1 = TRUE`` (numeric unification), so a
        bool literal prunes by its 0/1 image, not by type mismatch."""
        guide = guide_of({"v": 0}, {"v": 1})
        assert shard_can_match(guide, "$.v", "=", [True])
        assert shard_can_match(guide, "$.v", ">", [True])
        out_of_range = guide_of({"v": 5}, {"v": 10})
        assert not shard_can_match(out_of_range, "$.v", "=", [True])

    def test_unknown_operator_scans(self):
        guide = guide_of({"v": 10})
        assert shard_can_match(guide, "$.v", "<>", [10])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=1, max_size=10),
           st.sampled_from(["=", "<", "<=", ">", ">="]),
           st.integers(min_value=-60, max_value=60))
    def test_never_prunes_a_matching_document(self, values, op, literal):
        """Soundness, property-tested: if any stored value satisfies the
        predicate, the shard must answer "could match"."""
        import operator
        ops = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}
        guide = guide_of(*({"v": v} for v in values))
        if any(ops[op](v, literal) for v in values):
            assert shard_can_match(guide, "$.v", op, [literal])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.integers(-20, 20), st.booleans(),
                              st.text(alphabet="ab1z", max_size=3)),
                    min_size=1, max_size=8),
           st.one_of(st.integers(-25, 25), st.booleans(),
                     st.text(alphabet="ab1z", max_size=3)))
    def test_equality_soundness_over_mixed_values(self, values, literal):
        """Equality pruning judged against the engine's own comparison
        semantics: whenever *it* would match a stored value, the shard
        must not be pruned — across type mixtures and bool unification."""
        guide = guide_of(*({"v": v} for v in values))
        predicate = expr.Col("v") == expr.Literal(literal)
        if any(predicate.compiled()({"v": v}) for v in values):
            assert shard_can_match(guide, "$.v", "=", [literal])


def make_info(shards, **kwargs):
    inputs = [ShardInput(i, lambda rows=rows: iter(rows),
                         guide_of(*rows))
              for i, rows in enumerate(shards)]
    return ShardPlanInfo("t", inputs, lambda c: f"$.{c}", **kwargs)


SHARDS = [
    [{"k": "a", "v": 5}, {"k": "a", "v": 8}],
    [{"k": "b", "v": 12}, {"k": "b", "v": 18}],
    [{"k": "c", "v": 25}, {"k": "c", "v": 30}],
]


class TestPruneShards:
    def test_no_conjuncts_keeps_all(self):
        assert prune_shards(make_info(SHARDS), []) == [True] * 3

    def test_interval_conjunct_prunes(self):
        selected = prune_shards(make_info(SHARDS),
                                [("v", ">=", [20])])
        assert selected == [False, False, True]

    def test_conjuncts_intersect(self):
        selected = prune_shards(
            make_info(SHARDS), [("v", ">", [9]), ("v", "<", [20])])
        assert selected == [False, True, False]

    def test_unknown_column_ignored(self):
        info = make_info(SHARDS)
        info.prune_path = lambda c: None
        assert prune_shards(info, [("v", ">=", [20])]) == [True] * 3

    def test_routing_equality(self):
        placement = {"a": 0, "b": 1, "c": 2}
        info = make_info(SHARDS, routing_field="k",
                         shard_of_value=lambda v: placement.get(v))
        assert prune_shards(info, [("k", "=", ["b"])]) == [
            False, True, False]
        assert prune_shards(info, [("k", "=", ["a", "c"])]) == [
            True, False, True]

    def test_unroutable_literal_disables_routing_rule(self):
        info = make_info(SHARDS, routing_field="k",
                         shard_of_value=lambda v: None)
        # path-absence/interval may still prune, routing must not
        assert prune_shards(info, [("k", "=", ["a"])])[0] is True


class TestExecuteScatter:
    def test_plain_rows_concatenate_in_shard_order(self):
        info = make_info(SHARDS)
        rows = execute_scatter(info, [True] * 3, None, None, None,
                               morsel=True)
        assert rows == [row for shard in SHARDS for row in shard]

    def test_pruned_shards_not_scanned(self):
        touched = []

        def tracking_rows(index, rows):
            def it():
                touched.append(index)
                return iter(rows)
            return it

        inputs = [ShardInput(i, tracking_rows(i, rows), guide_of(*rows))
                  for i, rows in enumerate(SHARDS)]
        info = ShardPlanInfo("t", inputs, lambda c: f"$.{c}")
        execute_scatter(info, [True, False, True], None, None, None,
                        morsel=True)
        assert sorted(touched) == [0, 2]

    @pytest.mark.parametrize("morsel", [True, False])
    def test_group_gather_parity_with_single_stream(self, morsel):
        """The scatter-gather group-by must be row-for-row identical to
        the single-stream group_by over the concatenated input."""
        keys = [executor.normalize_output("k")]
        aggregates = [("total", expr.SUM(expr.Col("v"))),
                      ("n", expr.COUNT()),
                      ("lo", expr.MIN(expr.Col("v"))),
                      ("hi", expr.MAX(expr.Col("v")))]
        info = make_info(SHARDS)
        scattered = execute_scatter(info, [True] * 3, None, None,
                                    (keys, aggregates), morsel=morsel)
        flat = [row for shard in SHARDS for row in shard]
        single = list(executor.group_by(iter(flat), keys, aggregates))
        assert scattered == single

    def test_global_aggregate_over_all_pruned_shards(self):
        """SQL's empty-input global group: COUNT over zero surviving
        shards is still one row of 0."""
        info = make_info(SHARDS)
        rows = execute_scatter(info, [False] * 3, None, None,
                               ([], [("n", expr.COUNT())]), morsel=True)
        assert rows == [{"n": 0}]

    def test_predicate_and_projection_apply_per_shard(self):
        info = make_info(SHARDS)
        rows = execute_scatter(
            info, [True] * 3, expr.Col("v") >= 10,
            [executor.normalize_output("v")], None, morsel=True)
        assert rows == [{"v": 12}, {"v": 18}, {"v": 25}, {"v": 30}]

    def test_metrics_counters_advance(self):
        from repro.obs import metrics
        info = make_info(SHARDS)
        before_scanned = metrics.counter(
            "engine.scatter.shards_scanned").value
        before_pruned = metrics.counter(
            "engine.scatter.shards_pruned").value
        execute_scatter(info, [True, False, False], None, None, None,
                        morsel=True)
        assert metrics.counter(
            "engine.scatter.shards_scanned").value == before_scanned + 1
        assert metrics.counter(
            "engine.scatter.shards_pruned").value == before_pruned + 2

    def test_worker_exception_propagates(self):
        class Boom(Exception):
            pass

        def exploding():
            raise Boom

        inputs = [ShardInput(0, lambda: iter(SHARDS[0]),
                             guide_of(*SHARDS[0])),
                  ShardInput(1, exploding, guide_of(*SHARDS[1]))]
        info = ShardPlanInfo("t", inputs, lambda c: None)
        with pytest.raises(Boom):
            execute_scatter(info, [True, True], None, None, None,
                            morsel=True)

    def test_hook_runs_on_callers_thread(self):
        seen = []
        info = make_info(SHARDS)
        execute_scatter(info, [True] * 3, None, None, None,
                        morsel=True, hook=seen.append)
        assert len(seen) == sum(len(s) for s in SHARDS)

    def test_shards_run_on_callers_thread_inside_its_span(self):
        """Every shard stream and the hook run on the statement's own
        thread, so a span opened inside a shard stream nests under the
        statement's span instead of landing in the ring as a root."""
        threads = []

        def traced(index, rows):
            def source():
                threads.append(threading.get_ident())
                with trace.span("shard.open", shard=index):
                    pass
                return iter(rows)
            return source

        inputs = [ShardInput(i, traced(i, rows), guide_of(*rows))
                  for i, rows in enumerate(SHARDS)]
        info = ShardPlanInfo("t", inputs, lambda c: None)
        previous = trace.set_tracing_enabled(True)
        trace.take_spans()
        try:
            with trace.span("stmt") as statement:
                rows = execute_scatter(
                    info, [True] * 3, None, None, None, morsel=True,
                    hook=lambda row: threads.append(threading.get_ident()))
            roots = trace.take_spans()
        finally:
            trace.set_tracing_enabled(previous)
        assert rows == [row for shard in SHARDS for row in shard]
        assert threads == [threading.get_ident()] * (3 + len(rows))
        assert [(child.name, child.attrs["shard"])
                for child in statement.children] == [
            ("shard.open", 0), ("shard.open", 1), ("shard.open", 2)]
        assert [root.name for root in roots] == ["stmt"]


class TestGatherPrimitives:
    """The public gather API (promoted from ``_fold_partials``):
    partial → gather → finalize equals the one-shot group_by."""

    @pytest.mark.parametrize("morsel", [True, False])
    def test_partial_finalize_identity(self, morsel):
        keys = [executor.normalize_output("k")]
        aggregates = [("total", expr.SUM(expr.Col("v"))),
                      ("mean", expr.AVG(expr.Col("v")))]
        flat = [row for shard in SHARDS for row in shard]
        partial = executor.partial_group_by(iter(flat), keys, aggregates,
                                            morsel=morsel)
        finalized = list(executor.finalize_groups(partial, keys,
                                                  aggregates))
        assert finalized == list(executor.group_by(iter(flat), keys,
                                                   aggregates))

    def test_gather_merges_disjoint_and_overlapping_keys(self):
        keys = [executor.normalize_output("k")]
        aggregates = [("n", expr.COUNT())]
        p1 = executor.partial_group_by(
            iter([{"k": "a"}, {"k": "b"}]), keys, aggregates)
        p2 = executor.partial_group_by(
            iter([{"k": "b"}, {"k": "c"}]), keys, aggregates)
        gathered = executor.gather_group_partials([p1, p2], aggregates)
        rows = {r["k"]: r["n"] for r in executor.finalize_groups(
            gathered, keys, aggregates)}
        assert rows == {"a": 1, "b": 2, "c": 1}

    def test_serialized_partials_roundtrip(self):
        """The process-boundary variant: serialize on the worker side,
        fold on the gather side — same result as the in-process merge."""
        keys = [executor.normalize_output("k")]
        aggregates = [("total", expr.SUM(expr.Col("v"))),
                      ("n", expr.COUNT())]
        per_shard = [executor.partial_group_by(iter(rows), keys,
                                               aggregates)
                     for rows in SHARDS]
        folded: dict = {}
        for partial in per_shard:
            executor.fold_serialized_partials(
                folded, executor.serialize_group_partials(partial),
                aggregates)
        via_serialized = list(executor.finalize_groups(folded, keys,
                                                       aggregates))
        direct = list(executor.finalize_groups(
            executor.gather_group_partials(per_shard, aggregates),
            keys, aggregates))
        assert via_serialized == direct

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries({
            "k": st.sampled_from(["a", "b", "c"]),
            "v": st.one_of(st.none(),
                           st.integers(min_value=-100, max_value=100)),
        }), max_size=40),
        st.integers(min_value=1, max_value=4))
    def test_any_partitioning_gathers_to_single_stream(self, rows, parts):
        """Property: however the input is split into partial streams,
        gather+finalize equals the unsplit group_by (with NULLs)."""
        keys = [executor.normalize_output("k")]
        aggregates = [("total", expr.SUM(expr.Col("v"))),
                      ("n", expr.COUNT())]
        chunks = [rows[i::parts] for i in range(parts)]
        partials = [executor.partial_group_by(iter(chunk), keys,
                                              aggregates)
                    for chunk in chunks]
        gathered = executor.gather_group_partials(partials, aggregates)
        result = {r["k"]: (r["total"], r["n"])
                  for r in executor.finalize_groups(gathered, keys,
                                                    aggregates)}
        single = {r["k"]: (r["total"], r["n"])
                  for r in executor.group_by(iter(rows), keys,
                                             aggregates)}
        assert result == single
