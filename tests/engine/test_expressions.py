"""Tests for scalar/predicate/aggregate/window expressions."""

import pytest

from repro.engine import expr
from repro.engine.expressions import (
    And,
    Col,
    Comparison,
    Literal,
    Not,
    Or,
)
from repro.errors import QueryError

ROW = {"a": 5, "b": "text", "c": None, "d": 2.5, "reference": "BULL-2014"}


class TestScalars:
    def test_col_and_literal(self):
        assert Col("a").compiled()(ROW) == 5
        assert Literal(7).compiled()(ROW) == 7

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError):
            Col("zzz").compiled()(ROW)

    def test_arithmetic(self):
        assert (Col("a") + 1).compiled()(ROW) == 6
        assert (Col("a") - 2).compiled()(ROW) == 3
        assert (Col("a") * Col("d")).compiled()(ROW) == 12.5
        assert (Col("a") / 2).compiled()(ROW) == 2.5

    def test_arithmetic_null_propagates(self):
        assert (Col("c") + 1).compiled()(ROW) is None
        assert (Col("a") * Col("c")).compiled()(ROW) is None

    def test_alias(self):
        aliased = (Col("a") + 1).as_("a1")
        assert aliased.alias == "a1"
        assert aliased.compiled()(ROW) == 6


class TestPredicates:
    def test_comparisons(self):
        assert (Col("a") == 5).compiled()(ROW) is True
        assert (Col("a") != 5).compiled()(ROW) is False
        assert (Col("a") < 6).compiled()(ROW) is True
        assert (Col("a") >= 5).compiled()(ROW) is True

    def test_null_comparison_unknown(self):
        assert (Col("c") == 5).compiled()(ROW) is None
        assert (Col("c") != 5).compiled()(ROW) is None

    def test_cross_type_comparison_unknown(self):
        assert (Col("a") < "text").compiled()(ROW) is None

    def test_three_valued_and(self):
        true = Literal(1) == 1
        false = Literal(1) == 2
        null = Col("c") == 1
        assert And(true, true).compiled()(ROW) is True
        assert And(true, false).compiled()(ROW) is False
        assert And(true, null).compiled()(ROW) is None
        assert And(false, null).compiled()(ROW) is False  # short-circuit

    def test_three_valued_or(self):
        true = Literal(1) == 1
        false = Literal(1) == 2
        null = Col("c") == 1
        assert Or(false, true).compiled()(ROW) is True
        assert Or(false, false).compiled()(ROW) is False
        assert Or(false, null).compiled()(ROW) is None
        assert Or(true, null).compiled()(ROW) is True

    def test_not(self):
        assert Not(Literal(1) == 1).compiled()(ROW) is False
        assert Not(Col("c") == 1).compiled()(ROW) is None

    def test_in_list(self):
        assert Col("a").in_([1, 5, 9]).compiled()(ROW) is True
        assert Col("a").in_([1, 2]).compiled()(ROW) is False
        assert Col("c").in_([1]).compiled()(ROW) is None

    def test_like(self):
        assert Col("b").like("te%").compiled()(ROW) is True
        assert Col("b").like("%xt").compiled()(ROW) is True
        assert Col("b").like("t_xt").compiled()(ROW) is True
        assert Col("b").like("z%").compiled()(ROW) is False
        assert Col("c").like("%").compiled()(ROW) is None

    def test_unknown_comparison_operator_rejected_at_build(self):
        with pytest.raises(QueryError):
            Comparison("~", Col("a"), Literal(1))

    def test_is_null(self):
        assert Col("c").is_null().compiled()(ROW) is True
        assert Col("a").is_null().compiled()(ROW) is False
        assert Col("a").is_not_null().compiled()(ROW) is True


class TestFunctions:
    def test_substr(self):
        assert expr.SUBSTR(Col("b"), 2).compiled()(ROW) == "ext"
        assert expr.SUBSTR(Col("b"), 1, 2).compiled()(ROW) == "te"
        assert expr.SUBSTR(Col("b"), -2).compiled()(ROW) == "xt"

    def test_instr(self):
        assert expr.INSTR(Col("reference"), "-").compiled()(ROW) == 5
        assert expr.INSTR(Col("reference"), "zz").compiled()(ROW) == 0

    def test_substr_after_instr(self):
        # the Q6 idiom: order-sequence extraction from the reference
        seq = expr.SUBSTR(Col("reference"),
                          expr.INSTR(Col("reference"), "-") + 1)
        assert seq.compiled()(ROW) == "2014"

    def test_upper_lower_length(self):
        assert expr.UPPER(Col("b")).compiled()(ROW) == "TEXT"
        assert expr.LOWER(Literal("ABC")).compiled()(ROW) == "abc"
        assert expr.LENGTH(Col("b")).compiled()(ROW) == 4

    def test_nvl(self):
        assert expr.NVL(Col("c"), 0).compiled()(ROW) == 0
        assert expr.NVL(Col("a"), 0).compiled()(ROW) == 5

    def test_nvl_is_one_class(self):
        assert type(expr.NVL(Col("a"), 0)) is type(expr.NVL(Col("b"), 1))

    def test_functions_null_propagate(self):
        assert expr.SUBSTR(Col("c"), 1).compiled()(ROW) is None
        assert expr.UPPER(Col("c")).compiled()(ROW) is None


class TestJsonExpressions:
    ROW = {"jdoc": '{"a": {"b": 7}}'}

    def test_json_value_expr(self):
        e = expr.JsonValueExpr("jdoc", "$.a.b", returning="number")
        assert e.compiled()(self.ROW) == 7
        assert e.compiled()({"jdoc": None}) is None

    def test_json_exists_expr(self):
        assert expr.JsonExistsExpr("jdoc", "$.a.b").compiled()(self.ROW) is True
        assert expr.JsonExistsExpr("jdoc", "$.a.c").compiled()(self.ROW) is False
        assert expr.JsonExistsExpr("jdoc", "$.a").compiled()({"jdoc": None}) is False

    def test_json_textcontains_expr(self):
        row = {"jdoc": '{"tags": ["red", "hot"]}'}
        e = expr.JsonTextContainsExpr("jdoc", "$.tags", "red")
        assert e.compiled()(row) is True
        assert expr.JsonTextContainsExpr(
            "jdoc", "$.tags", "blue").compiled()(row) is False
        assert e.compiled()({"jdoc": None}) is False
        assert e.sql() == "JSON_TEXTCONTAINS(jdoc, '$.tags', 'red')"

    def test_sql_rendering(self):
        e = expr.JsonValueExpr("jdoc", "$.a.b", returning="number")
        assert "JSON_VALUE" in e.sql()


class TestAggregates:
    ROWS = [{"v": 1, "g": "a"}, {"v": None, "g": "a"}, {"v": 3, "g": "b"},
            {"v": 5, "g": "b"}]

    def run(self, agg):
        state = agg.create()
        for row in self.ROWS:
            state.step(row)
        return state.final()

    def test_count_star_counts_all(self):
        assert self.run(expr.COUNT()) == 4

    def test_count_expr_skips_nulls(self):
        assert self.run(expr.COUNT(Col("v"))) == 3

    def test_sum_skips_nulls(self):
        assert self.run(expr.SUM(Col("v"))) == 9

    def test_sum_all_null_is_null(self):
        state = expr.SUM(Col("v")).create()
        state.step({"v": None})
        assert state.final() is None

    def test_avg(self):
        assert self.run(expr.AVG(Col("v"))) == 3

    def test_min_max(self):
        assert self.run(expr.MIN(Col("v"))) == 1
        assert self.run(expr.MAX(Col("v"))) == 5

    def test_empty_aggregates(self):
        for agg, expected in [(expr.COUNT(), 0), (expr.SUM(Col("v")), None),
                              (expr.MIN(Col("v")), None),
                              (expr.AVG(Col("v")), None)]:
            assert agg.create().final() == expected

    def test_sum_requires_operand(self):
        with pytest.raises(QueryError):
            expr.SumAgg(None).create()


class TestWindow:
    def test_lag(self):
        rows = [{"q": 10}, {"q": 20}, {"q": 30}]
        lag = expr.LAG(Col("q"))
        assert lag.compute(rows)[0] is None
        assert lag.compute(rows)[1] == 10
        assert lag.compute(rows)[2] == 20

    def test_lag_with_default(self):
        rows = [{"q": 10}, {"q": 20}]
        lag = expr.LAG(Col("q"), 1, Col("q"))
        assert lag.compute(rows)[0] == 10  # default evaluated on current row
        assert lag.compute(rows)[1] == 10

    def test_lag_offset(self):
        rows = [{"q": i} for i in range(5)]
        lag = expr.LAG(Col("q"), 3)
        assert lag.compute(rows)[4] == 1
        assert lag.compute(rows)[2] is None
