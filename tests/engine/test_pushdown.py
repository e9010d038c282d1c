"""Tests for JSON_EXISTS predicate pushdown onto JSON_TABLE views."""

from operator import itemgetter

import pytest

from repro.core.oson import encode as oson_encode
from repro.engine import CLOB, Column, Database, NUMBER, Query, expr
from repro.engine.types import BLOB
from repro.engine.view import JsonTableView, render_pushdown_path
from repro.jsontext import dumps
from repro.sqljson import adapters
from repro.sqljson.json_table import ColumnDef, JsonTable, NestedPath
from repro.storage.files import MemoryFileSystem

DOCS = [
    {"po": {"ref": "A-1", "items": [{"part": "p1", "qty": 1},
                                    {"part": "p2", "qty": 5}]}},
    {"po": {"ref": "B-2", "items": [{"part": "p3", "qty": 2}]}},
    {"po": {"ref": "C-3", "items": []}},
]


def _json_table():
    return JsonTable("$", [
        ColumnDef("ref", "varchar2(8)", "$.po.ref"),
        NestedPath("$.po.items[*]", [
            ColumnDef("part", "varchar2(8)", "$.part"),
            ColumnDef("qty", "number", "$.qty"),
        ]),
    ])


def setup_view():
    db = Database()
    table = db.create_table("t", [Column("id", NUMBER),
                                  Column("jdoc", BLOB)])
    for i, doc in enumerate(DOCS):
        table.insert({"id": i, "jdoc": oson_encode(doc)})
    view = JsonTableView("v", table, "jdoc", _json_table())
    db.register_view(view)
    return db, view


def setup_text_view(shards=None):
    """The DOCS as JSON text in a CLOB column, optionally on hash
    shards."""
    db = Database()
    layout = {} if shards is None else {
        "durable": "/t", "fs": MemoryFileSystem(), "shards": shards,
        "routing_field": "id"}
    table = db.create_table("t", [Column("id", NUMBER),
                                  Column("jdoc", CLOB)], **layout)
    for i, doc in enumerate(DOCS):
        table.insert({"id": i, "jdoc": dumps(doc)})
    view = JsonTableView("v", table, "jdoc", _json_table(),
                         include_columns=["id"])
    db.register_view(view)
    return db, view


class TestRenderPushdownPath:
    def test_string_literal(self):
        assert render_pushdown_path("$.a.b", "=", ["x"]) == '$.a.b?(@ == "x")'

    def test_string_escaping(self):
        rendered = render_pushdown_path("$.a", "=", ['he said "hi"'])
        assert rendered == '$.a?(@ == "he said \\"hi\\"")'

    def test_number_and_bool(self):
        assert render_pushdown_path("$.a", ">", [5]) == "$.a?(@ > 5)"
        assert render_pushdown_path("$.a", "=", [True]) == "$.a?(@ == true)"

    def test_in_list_becomes_or(self):
        assert render_pushdown_path("$.a", "=", ["x", "y"]) == \
            '$.a?(@ == "x" || @ == "y")'

    def test_unsupported_returns_none(self):
        assert render_pushdown_path("$.a", "LIKE", ["x"]) is None
        assert render_pushdown_path("$.a", "=", [None]) is None
        assert render_pushdown_path("$.a", "=", []) is None
        assert render_pushdown_path("$.a", "=", [object()]) is None


class TestPushdownCorrectness:
    def test_equality_pushdown_matches_plain_filter(self):
        _db, view = setup_view()
        pushed = Query(view).where(expr.Col("part") == "p3").rows()
        plain = [r for r in view.scan() if r["part"] == "p3"]
        assert pushed == plain
        assert len(pushed) == 1

    def test_range_pushdown(self):
        _db, view = setup_view()
        rows = Query(view).where(expr.Col("qty") > 1).rows()
        assert sorted(r["part"] for r in rows) == ["p2", "p3"]

    def test_in_list_pushdown(self):
        _db, view = setup_view()
        rows = Query(view).where(expr.Col("part").in_(["p1", "p3"])).rows()
        assert sorted(r["part"] for r in rows) == ["p1", "p3"]

    def test_conjunction_pushdown(self):
        _db, view = setup_view()
        rows = Query(view).where(expr.And(
            expr.Col("part") == "p2",
            expr.Col("qty") > 1)).rows()
        assert len(rows) == 1 and rows[0]["ref"] == "A-1"

    def test_residual_filter_still_applies(self):
        """Document-level pushdown is a superset: a doc matching on one
        row must not leak its non-matching rows."""
        _db, view = setup_view()
        rows = Query(view).where(expr.Col("part") == "p1").rows()
        assert len(rows) == 1  # not the p2 row of the same document
        assert rows[0]["part"] == "p1"

    def test_non_pushable_predicate_falls_back(self):
        _db, view = setup_view()
        rows = Query(view).where(expr.Col("part").like("p%")).rows()
        assert len(rows) == 3

    def test_disjunction_not_pushed_but_correct(self):
        _db, view = setup_view()
        rows = Query(view).where(expr.Or(
            expr.Col("part") == "p1",
            expr.Col("part") == "p3")).rows()
        assert sorted(r["part"] for r in rows) == ["p1", "p3"]

    def test_unknown_column_not_pushed(self):
        _db, view = setup_view()
        # 'id' comes from include_columns, not the JSON_TABLE: no path
        assert view.pushdown_path("id", "=", [1]) is None

    def test_pushdown_source_detection(self):
        _db, view = setup_view()
        q = Query(view).where(expr.Col("part") == "p1")
        assert q._plan().nodes[0].exists_paths
        q2 = Query(view).select("ref")
        assert q2._plan().nodes[0].exists_paths is None


class TestTextPushdownParsesOnce:
    """A text row is parsed once per scan: the pushdown probes and the
    JSON_TABLE expansion share one adapter."""

    PATHS = ['$.po.items[*].qty?(@ > 1)', '$.po.ref?(@ != "Z")']

    @staticmethod
    def _residual(row):
        return row["qty"] is not None and row["qty"] > 1

    @pytest.mark.parametrize("shards", [None, 4])
    def test_one_loads_per_base_row(self, shards, monkeypatch):
        _db, view = setup_text_view(shards)
        calls = []
        real_loads = adapters.loads

        def counting_loads(text):
            calls.append(text)
            return real_loads(text)

        monkeypatch.setattr(adapters, "loads", counting_loads)
        pushed = [r for r in view.scan_pushdown(self.PATHS)
                  if self._residual(r)]
        assert len(calls) == len(DOCS)
        assert sorted(calls) == sorted(dumps(doc) for doc in DOCS)
        plain = [r for r in view.scan() if self._residual(r)]
        key = itemgetter("id", "part")
        assert sorted(pushed, key=key) == sorted(plain, key=key)
        assert sorted(r["part"] for r in pushed) == ["p2", "p3"]
