"""Tests for the SQL SELECT front-end."""

import pytest

from repro.engine import Column, Database, NUMBER, CLOB, VARCHAR2
from repro.engine.constraints import IsJsonConstraint
from repro.engine.sql import compile_sql, execute_sql
from repro.errors import QueryError
from repro.jsontext import dumps


@pytest.fixture()
def db():
    database = Database()
    emp = database.create_table("emp", [
        Column("id", NUMBER), Column("dept", VARCHAR2(8)),
        Column("salary", NUMBER), Column("name", VARCHAR2(12)),
    ])
    emp.insert_many([
        {"id": 1, "dept": "eng", "salary": 100, "name": "ann"},
        {"id": 2, "dept": "eng", "salary": 120, "name": "bob"},
        {"id": 3, "dept": "ops", "salary": 90, "name": "cat"},
        {"id": 4, "dept": "ops", "salary": None, "name": "dan"},
        {"id": 5, "dept": "hr", "salary": 80, "name": "eve"},
    ])
    dept = database.create_table("dept", [
        Column("dept", VARCHAR2(8)), Column("floor", NUMBER)])
    dept.insert_many([{"dept": "eng", "floor": 3},
                      {"dept": "ops", "floor": 1}])
    docs = database.create_table("docs", [
        Column("id", NUMBER), Column("jdoc", CLOB)])
    docs.add_constraint(IsJsonConstraint("jdoc"))
    docs.insert({"id": 1, "jdoc": dumps(
        {"kind": "a", "v": 10, "tags": ["red", "hot"]})})
    docs.insert({"id": 2, "jdoc": dumps({"kind": "b", "v": 20})})
    return database


class TestBasics:
    def test_select_star(self, db):
        rows = execute_sql(db, "SELECT * FROM dept")
        assert rows == [{"dept": "eng", "floor": 3},
                        {"dept": "ops", "floor": 1}]

    def test_projection_and_alias(self, db):
        rows = execute_sql(db, "SELECT name, salary * 2 AS double_pay "
                               "FROM emp WHERE id = 1")
        assert rows == [{"name": "ann", "double_pay": 200}]

    def test_implicit_alias(self, db):
        rows = execute_sql(db, "SELECT salary + 1 bumped FROM emp "
                               "WHERE id = 1")
        assert rows == [{"bumped": 101}]

    def test_where_connectives(self, db):
        rows = execute_sql(db, "SELECT id FROM emp WHERE dept = 'eng' "
                               "AND salary > 100 OR name = 'eve' "
                               "ORDER BY id")
        assert [r["id"] for r in rows] == [2, 5]

    def test_where_not_in_like_between(self, db):
        assert len(execute_sql(
            db, "SELECT id FROM emp WHERE dept IN ('eng', 'hr')")) == 3
        assert len(execute_sql(
            db, "SELECT id FROM emp WHERE dept NOT IN ('eng')")) == 3
        assert len(execute_sql(
            db, "SELECT id FROM emp WHERE name LIKE '%a%'")) == 3
        assert len(execute_sql(
            db, "SELECT id FROM emp WHERE salary BETWEEN 90 AND 110")) == 2

    def test_is_null(self, db):
        assert execute_sql(db, "SELECT id FROM emp WHERE salary IS NULL") \
            == [{"id": 4}]
        assert len(execute_sql(
            db, "SELECT id FROM emp WHERE salary IS NOT NULL")) == 4

    def test_nvl(self, db):
        rows = execute_sql(db, "SELECT id, NVL(salary, 0) AS pay FROM emp "
                               "ORDER BY id")
        assert [r["pay"] for r in rows] == [100, 120, 90, 0, 80]
        rows = execute_sql(db, "SELECT name FROM emp "
                               "WHERE NVL(salary, 0) < 95 ORDER BY id")
        assert rows == [{"name": "cat"}, {"name": "dan"}, {"name": "eve"}]

    def test_order_limit_distinct(self, db):
        rows = execute_sql(db, "SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert [r["dept"] for r in rows] == ["eng", "hr", "ops"]
        rows = execute_sql(db, "SELECT id FROM emp ORDER BY salary DESC "
                               "LIMIT 2")
        assert [r["id"] for r in rows] == [4, 2]  # DESC NULLS FIRST

    def test_order_by_ordinal(self, db):
        rows = execute_sql(db, "SELECT name, salary FROM emp "
                               "WHERE salary IS NOT NULL ORDER BY 2 DESC")
        assert rows[0]["name"] == "bob"

    def test_bind_parameters(self, db):
        rows = execute_sql(db, "SELECT id FROM emp WHERE dept = ? "
                               "AND salary >= ?", ["eng", 110])
        assert rows == [{"id": 2}]

    def test_string_escape(self, db):
        rows = execute_sql(db, "SELECT id FROM emp WHERE name = 'o''brien'")
        assert rows == []

    def test_comments_ignored(self, db):
        rows = execute_sql(db, "SELECT id -- trailing comment\n"
                               "FROM emp WHERE id = 1")
        assert rows == [{"id": 1}]


class TestAggregation:
    def test_group_by(self, db):
        rows = execute_sql(db, "SELECT dept, COUNT(*) AS n, "
                               "SUM(salary) AS total FROM emp "
                               "GROUP BY dept ORDER BY dept")
        assert rows == [
            {"dept": "eng", "n": 2, "total": 220},
            {"dept": "hr", "n": 1, "total": 80},
            {"dept": "ops", "n": 2, "total": 90},
        ]

    def test_global_aggregates(self, db):
        rows = execute_sql(db, "SELECT COUNT(*) AS n, AVG(salary) AS a, "
                               "MIN(salary) AS lo, MAX(salary) AS hi "
                               "FROM emp")
        assert rows == [{"n": 5, "a": 97.5, "lo": 80, "hi": 120}]

    def test_aggregate_over_expression(self, db):
        rows = execute_sql(db, "SELECT SUM(salary * 2) AS s FROM emp "
                               "WHERE dept = 'eng'")
        assert rows == [{"s": 440}]

    def test_having(self, db):
        rows = execute_sql(db, "SELECT dept, COUNT(*) AS n FROM emp "
                               "GROUP BY dept HAVING n > 1 ORDER BY dept")
        assert [r["dept"] for r in rows] == ["eng", "ops"]

    def test_order_by_aggregate_alias(self, db):
        rows = execute_sql(db, "SELECT dept, COUNT(*) AS n FROM emp "
                               "GROUP BY dept ORDER BY n DESC, dept")
        assert rows[0]["n"] == 2

    def test_aggregate_arithmetic_rejected(self, db):
        with pytest.raises(QueryError):
            execute_sql(db, "SELECT SUM(salary) / COUNT(*) FROM emp")


class TestJoins:
    def test_inner_join(self, db):
        rows = execute_sql(db, "SELECT name, floor FROM emp "
                               "JOIN dept ON emp.dept = dept.dept "
                               "ORDER BY id")
        assert len(rows) == 4  # hr unmatched

    def test_left_join(self, db):
        rows = execute_sql(db, "SELECT name, floor FROM emp "
                               "LEFT OUTER JOIN dept ON dept = dept "
                               "ORDER BY name")
        assert len(rows) == 5
        eve = [r for r in rows if r["name"] == "eve"][0]
        assert eve["floor"] is None


class TestWindow:
    def test_lag_in_arithmetic(self, db):
        rows = execute_sql(db, """
            SELECT name, salary,
                   salary - LAG(salary, 1, salary) OVER (ORDER BY salary)
                       AS delta
            FROM emp WHERE salary IS NOT NULL ORDER BY salary
        """)
        assert [r["delta"] for r in rows] == [0, 10, 10, 20]

    def test_window_with_group_by_rejected(self, db):
        with pytest.raises(QueryError):
            execute_sql(db, "SELECT LAG(salary) OVER (ORDER BY id) "
                            "FROM emp GROUP BY dept")


class TestSqlJson:
    def test_json_value_and_exists(self, db):
        rows = execute_sql(db, """
            SELECT id, JSON_VALUE(jdoc, '$.v' RETURNING NUMBER) AS v
            FROM docs WHERE JSON_EXISTS(jdoc, '$.tags')
        """)
        assert rows == [{"id": 1, "v": 10}]

    def test_json_textcontains(self, db):
        rows = execute_sql(db, "SELECT id FROM docs WHERE "
                               "JSON_TEXTCONTAINS(jdoc, '$.tags', 'red')")
        assert rows == [{"id": 1}]

    def test_json_textcontains_negated_and_all_keywords(self, db):
        rows = execute_sql(db, "SELECT id FROM docs WHERE NOT "
                               "JSON_TEXTCONTAINS(jdoc, '$.tags', 'red')")
        assert rows == [{"id": 2}]
        rows = execute_sql(db, "SELECT id FROM docs WHERE "
                               "JSON_TEXTCONTAINS(jdoc, '$.tags', 'red hot')")
        assert rows == [{"id": 1}]

    def test_json_dataguideagg(self, db):
        rows = execute_sql(db, "SELECT JSON_DATAGUIDEAGG(jdoc) AS dg "
                               "FROM docs")
        guide = rows[0]["dg"]
        assert "$.tags" in guide.paths()

    def test_json_value_varchar_returning(self, db):
        rows = execute_sql(db, """
            SELECT JSON_VALUE(jdoc, '$.kind' RETURNING VARCHAR2(1)) AS k
            FROM docs ORDER BY 1
        """)
        assert [r["k"] for r in rows] == ["a", "b"]


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "SELECT",
        "SELECT FROM emp",
        "SELECT * FROM",
        "SELECT * FROM nope",
        "SELECT *, id FROM emp",
        "SELECT * FROM emp GROUP BY dept",
        "SELECT id FROM emp WHERE",
        "SELECT id FROM emp ORDER BY 9",
        "SELECT id FROM emp LIMIT",
        "SELECT id FROM emp; DROP TABLE emp",
        "UPDATE emp SET salary = 0",
        "SELECT id FROM emp WHERE name = 'unterminated",
    ])
    def test_rejected(self, db, bad):
        from repro.errors import EngineError
        with pytest.raises(EngineError):  # QueryError or CatalogError
            execute_sql(db, bad)

    def test_param_count_mismatch(self, db):
        with pytest.raises(QueryError):
            execute_sql(db, "SELECT id FROM emp WHERE id = ?")
        with pytest.raises(QueryError):
            execute_sql(db, "SELECT id FROM emp WHERE id = ?", [1, 2])

    def test_compile_returns_query(self, db):
        query = compile_sql(db, "SELECT id FROM emp WHERE dept = 'hr'")
        assert query.rows() == [{"id": 5}]
        assert "FILTER" in query.explain()
