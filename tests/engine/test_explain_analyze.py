"""EXPLAIN ANALYZE: per-operator rows/time/metric attribution (cache
hits and misses included) in both executors, including the OSON
JSON_TABLE path the figures measure."""

import pytest

from repro.core.oson import encode as oson_encode
from repro.engine import Column, Database, NUMBER, expr
from repro.engine.query import Query
from repro.engine.types import BLOB
from repro.obs import export_traces, take_spans
from repro.obs.schema import validate_trace_export
from repro.workloads.purchase_orders import (
    PoQueryParams,
    PurchaseOrderGenerator,
    build_po_views,
)


@pytest.fixture(scope="module")
def oson_views():
    documents = list(PurchaseOrderGenerator().documents(40))
    db = Database()
    table = db.create_table("po_oson",
                            [Column("did", NUMBER), Column("jdoc", BLOB)])
    for i, doc in enumerate(documents):
        table.insert({"did": i, "jdoc": oson_encode(doc)})
    mv, dmdv = build_po_views(db, table, "jdoc", "oson")
    return mv, dmdv, PoQueryParams(documents)


@pytest.fixture
def plan():
    rows = [{"k": i % 4, "v": i} for i in range(50)]
    return (Query(rows)
            .where(expr.Col("v") >= 10)
            .group_by(["k"], total=expr.SUM(expr.Col("v")))
            .order_by("total", desc=True))


class TestProfile:
    @pytest.mark.parametrize("mode", ["row", "morsel"])
    def test_stage_rows_and_timing(self, plan, mode):
        result = plan.mode(mode).profile()
        assert result["mode"] == mode
        assert [s["op"] for s in result["stages"]] == [
            "scan", "where", "group_by", "order_by"]
        scan, where, group, order = result["stages"]
        assert scan["rows_in"] is None and scan["rows_out"] == 50
        assert where["rows_in"] == 50 and where["rows_out"] == 40
        assert group["rows_in"] == 40 and group["rows_out"] == 4
        assert order["rows_out"] == 4
        for stage in result["stages"]:
            assert stage["elapsed_ms"] >= 0
        take_spans()

    @pytest.mark.parametrize("mode", ["row", "morsel"])
    def test_profile_rows_match_execution(self, plan, mode):
        pinned = plan.mode(mode)
        assert pinned.profile()["rows"] == pinned.rows()
        take_spans()

    def test_stage_modes_reflect_executor(self, plan):
        stages = plan.mode("morsel").profile()["stages"]
        by_op = {s["op"]: s for s in stages}
        assert by_op["where"]["mode"] == "morsel"
        assert by_op["group_by"]["mode"] == "morsel"
        assert by_op["order_by"]["mode"] == "row"  # single implementation
        stages = plan.mode("row").profile()["stages"]
        assert all(s["mode"] == "row" for s in stages)
        take_spans()

    def test_morsel_dispatch_annotations_present(self, plan):
        stages = plan.mode("morsel").profile()["stages"]
        where = next(s for s in stages if s["op"] == "where")
        assert where["metrics"].get("engine.morsel.batches")
        assert where["metrics"].get("engine.morsel_filter.hits")
        assert all("caches" not in stage for stage in stages)
        take_spans()

    def test_profile_emits_schema_valid_trace(self, plan):
        take_spans()
        plan.profile()
        payload = export_traces()
        assert not validate_trace_export(payload)
        roots = [s for s in payload["spans"] if s["name"] == "query"]
        assert roots, payload["spans"]
        ops = [c["attrs"]["op"] for c in roots[-1]["children"]]
        assert any(op.startswith("FILTER") for op in ops)


class TestExplainAnalyze:
    @pytest.mark.parametrize("mode", ["row", "morsel"])
    def test_annotated_plan_text(self, plan, mode):
        text = plan.mode(mode).explain(analyze=True)
        assert f"mode={mode}" in text
        assert "rows_in=50 rows_out=40" in text
        assert "ms" in text
        assert "FILTER v >= 10" in text
        take_spans()

    def test_plain_explain_unchanged(self, plan):
        text = plan.explain()
        assert text.splitlines() == [
            "SCAN list",
            "FILTER v >= 10",
            "HASH GROUP BY k AGG SUM(v) AS total",
            "SORT total DESC",
        ]

    @pytest.mark.parametrize("mode", ["row", "morsel"])
    def test_figure_query_over_oson_views(self, oson_views, mode):
        from repro.core.counters import cache_named

        mv, dmdv, params = oson_views
        # cold-start: a warm DMDV row cache would skip document decode
        # and path navigation entirely
        cache_named("sqljson.jsontable_rows").clear()
        cache_named("sqljson.oson_adapter").clear()
        plan = (Query(dmdv)
                .where(expr.Col("partno") == params.partno)
                .group_by(["costcenter"], n=expr.COUNT()))
        text = plan.mode(mode).explain(analyze=True)
        # predicate pushdown onto the DMDV view is visible in the plan
        assert "SCAN oson_item_dmdv (pushdown)" in text
        # navigation-VM, decode and cache activity is attributed to it
        assert "sqljson.path.vm_selects" in text
        assert "metric oson.document.decodes" in text
        # one probe of each cache per document, all cold
        assert "metric sqljson.jsontable_rows.misses: " in text
        assert "metric sqljson.oson_adapter.misses: " in text
        assert "\n    cache " not in text
        take_spans()

    def test_cache_hits_appear_on_repeat(self, oson_views):
        mv, _dmdv, params = oson_views
        plan = Query(mv).where(expr.Col("reference") == params.reference)
        plan.rows()  # warm the DMDV row cache
        text = plan.explain(analyze=True)
        assert "metric sqljson.jsontable_rows.hits: " in text
        take_spans()
