"""The IMC projection-pushdown rewrite (:class:`IMCScanRule`).

A scan of a table bound into an :class:`~repro.imc.IMCStore` with a
shaping ``[filter]* (project | group-by)`` prefix becomes an
``IMC SCAN`` that materializes only the referenced columns; results
must stay identical to the row path, and the rule must refuse any plan
whose column set it cannot prove.
"""

import pytest

from repro.core import oson
from repro.engine import Column, Database, NUMBER, Query, Table, VARCHAR2, expr
from repro.engine.plan import IMCScanNode, _collect_columns
from repro.engine.sql import compile_sql, execute_sql
from repro.engine.types import BLOB, CLOB
from repro.imc import IMCStore
from repro.obs import metrics as obs_metrics


def bound_table():
    t = Table("emp", [Column("id", NUMBER), Column("name", VARCHAR2(10)),
                      Column("dept", VARCHAR2(10))])
    t.add_column(Column("name_len", NUMBER,
                        expression=expr.LENGTH(expr.Col("name"))))
    t.insert_many([
        {"id": 1, "name": "ann", "dept": "eng"},
        {"id": 2, "name": "bobby", "dept": "ops"},
        {"id": 3, "name": None, "dept": "eng"},
        {"id": 4, "name": "dee", "dept": "ops"},
    ])
    IMCStore().bind(t)
    return t


def head(query):
    return query._plan().nodes[0]


class TestRuleFires:
    def test_select_prefix(self):
        q = Query(bound_table()).select("id", "name_len")
        node = head(q)
        assert isinstance(node, IMCScanNode)
        assert node.columns == ["id", "name_len"]
        assert "IMC SCAN emp" in q.explain()

    def test_filter_then_select_collects_both(self):
        q = (Query(bound_table())
             .where(expr.Col("dept") == "eng")
             .select("id"))
        node = head(q)
        assert isinstance(node, IMCScanNode)
        assert node.columns == ["dept", "id"]

    def test_group_by_prefix(self):
        q = Query(bound_table()).group_by(
            ["dept"], total=expr.SumAgg(expr.Col("id")))
        assert isinstance(head(q), IMCScanNode)

    def test_expression_project(self):
        q = Query(bound_table()).select(
            (expr.Col("id") + expr.Col("name_len")).as_("x"))
        node = head(q)
        assert isinstance(node, IMCScanNode)
        assert node.columns == ["id", "name_len"]


class TestRuleRefuses:
    def test_unbound_table(self):
        t = Table("t", [Column("id", NUMBER)])
        t.insert({"id": 1})
        assert not isinstance(head(Query(t).select("id")), IMCScanNode)

    def test_no_shaping_terminator(self):
        # a bare filtered scan returns whole rows: narrowing would
        # change the answer
        q = Query(bound_table()).where(expr.Col("id") > 1)
        assert not isinstance(head(q), IMCScanNode)

    def test_join_before_project(self):
        other = Table("d", [Column("dept", VARCHAR2(10))])
        other.insert({"dept": "eng"})
        q = (Query(bound_table())
             .join(other, "dept", "dept")
             .select("id"))
        assert not isinstance(head(q), IMCScanNode)

    def test_count_star_only(self):
        # COUNT(*) references no column; a zero-column scan cannot
        # carry the row count
        q = Query(bound_table()).group_by(count=expr.CountAgg())
        assert not isinstance(head(q), IMCScanNode)

    def test_binary_column_stays_on_row_path(self):
        # an OSON BLOB has no column-vector kind: a statement reading it
        # must not be narrowed onto the IMC, even with a populated VC
        db = Database()
        t = db.create_table("nb", [Column("id", NUMBER), Column("jdoc", BLOB)])
        t.add_column(Column("num", NUMBER, expression=expr.JsonValueExpr(
            "jdoc", "$.num", returning="number")))
        t.insert_many([{"id": i, "jdoc": oson.encode({"num": i, "s": str(i)})}
                       for i in range(3)])
        IMCStore().populate(t, ["num"])
        sql = "SELECT JSON_VALUE(jdoc, '$.s') s FROM nb"
        assert not isinstance(head(compile_sql(db, sql)), IMCScanNode)
        assert execute_sql(db, sql) == [{"s": "0"}, {"s": "1"}, {"s": "2"}]
        assert isinstance(head(compile_sql(db, "SELECT num FROM nb")),
                          IMCScanNode)

    def test_nodes_after_terminator_unaffected(self):
        q = (Query(bound_table()).select("id")
             .order_by(expr.Col("id"), desc=True).limit(2))
        assert isinstance(head(q), IMCScanNode)
        assert [r["id"] for r in q.rows()] == [4, 3]


class TestParity:
    def row_mode(self, build):
        t = Table("emp", [Column("id", NUMBER), Column("name", VARCHAR2(10)),
                          Column("dept", VARCHAR2(10))])
        t.add_column(Column("name_len", NUMBER,
                            expression=expr.LENGTH(expr.Col("name"))))
        for _doc_id, row in bound_table().doc_id_rows():
            t.insert(dict(row))
        return build(t).rows()

    @pytest.mark.parametrize("build", [
        lambda t: Query(t).select("id", "name_len"),
        lambda t: Query(t).where(expr.Col("dept") == "eng").select("id"),
        lambda t: Query(t).where(expr.Col("name").is_null()).select("id"),
        lambda t: Query(t).group_by(["dept"],
                                    total=expr.SumAgg(expr.Col("id")),
                                    rows=expr.CountAgg()),
        lambda t: Query(t).select("name_len").distinct(),
    ])
    def test_imc_path_matches_row_path(self, build):
        assert build(bound_table()).rows() == self.row_mode(build)

    def test_parity_after_dml(self):
        t = bound_table()
        q = Query(t).where(expr.Col("dept") == "eng").select("id",
                                                             "name_len")
        q.rows()  # populate through the IMC path
        t.insert({"id": 5, "name": "eve", "dept": "eng"})
        t.update(lambda r: r["id"] == 1, {"name": "a"})
        t.delete(lambda r: r["id"] == 3)
        expected = [{"id": 1, "name_len": 1}, {"id": 5, "name_len": 3}]
        assert q.rows() == expected


class TestObservability:
    def test_columns_read_advances_by_referenced_count(self):
        q = (Query(bound_table())
             .where(expr.Col("dept") == "eng")
             .select("id", "name_len"))
        before = obs_metrics.counter("imc.columns_read").value
        q.rows()
        assert (obs_metrics.counter("imc.columns_read").value - before
                == 3)  # dept + id + name_len

    def test_explain_analyze_surfaces_columns_read(self):
        q = Query(bound_table()).select("id")
        text = q.explain(analyze=True)
        assert "IMC SCAN emp [columns=id]" in text
        assert "metric imc.columns_read: 1" in text


class TestColumnWalker:
    def test_resolves_supported_shapes(self):
        out = set()
        e = expr.And(expr.Col("a") > 1,
                     expr.Or(expr.Col("b").is_null(),
                             expr.Not(expr.Col("c").like("x%"))),
                     expr.LENGTH(expr.Col("d")) == 1,
                     expr.Col("e").in_([1, 2]))
        assert _collect_columns(e, out)
        assert out == {"a", "b", "c", "d", "e"}

    def test_bails_on_unknown_nodes(self):
        # a node shape the walker does not resolve — it must refuse,
        # not guess
        assert not _collect_columns(Opaque(expr.Col("a")), set())

    def test_unknown_node_in_plan_disables_rule(self):
        q = Query(bound_table()).select(Opaque(expr.Col("name")).as_("n"))
        assert not isinstance(head(q), IMCScanNode)
        assert q.rows()[0] == {"n": "ann"}

    def test_resolves_nvl_and_sql_json_operators(self):
        out = set()
        assert _collect_columns(expr.NVL(expr.Col("a"), expr.Col("b")), out)
        assert _collect_columns(
            expr.JsonTextContainsExpr("j", "$.name", "red"), out)
        assert out == {"a", "b", "j"}


class Opaque(expr.Expression):
    """A node shape :func:`_collect_columns` does not know."""

    def __init__(self, inner):
        self.inner = inner

    def compile(self):
        return self.inner.compiled()

    def sql(self):
        return f"OPAQUE({self.inner.sql()})"


def json_table(bind):
    t = Table("docs", [Column("id", NUMBER), Column("jdoc", CLOB)])
    t.insert_many([{"id": i, "jdoc": f'{{"name": "{name}"}}'}
                   for i, name in enumerate(["red phone", "blue tablet",
                                             "red tablet"])])
    if bind:
        IMCStore().bind(t)
    return t


class TestNarrowedShapes:
    """NVL and JSON_TEXTCONTAINS plan an IMC scan, with the rows the
    unbound table gives."""

    def test_nvl_projection(self):
        def build(t):
            return Query(t).select(
                "id", expr.NVL(expr.Col("name"), "?").as_("n"))
        unbound = Table("emp", bound_table().columns)
        unbound.insert_many(row for _doc_id, row in bound_table().doc_id_rows())
        q = build(bound_table())
        assert isinstance(head(q), IMCScanNode)
        assert head(q).columns == ["id", "name"]
        assert q.rows() == build(unbound).rows()
        assert q.rows()[2] == {"id": 3, "n": "?"}

    def test_json_textcontains_projection(self):
        def build(t):
            return Query(t).select("id", expr.JsonTextContainsExpr(
                "jdoc", "$.name", "red").as_("hit"))
        q = build(json_table(bind=True))
        assert isinstance(head(q), IMCScanNode)
        assert head(q).columns == ["id", "jdoc"]
        assert q.rows() == build(json_table(bind=False)).rows()
        assert [r["hit"] for r in q.rows()] == [True, False, True]
