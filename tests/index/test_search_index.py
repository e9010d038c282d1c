"""Tests for the schema-agnostic JSON search index."""

import pytest

from repro.engine import Column, Database, NUMBER, CLOB
from repro.engine.constraints import CheckConstraint, IsJsonConstraint
from repro.errors import ConstraintViolation, IndexError_
from repro.jsontext import dumps
from repro.storage import MemoryFileSystem

DOCS = [
    {"name": "red phone", "price": 100},
    {"name": "blue tablet", "price": 250,
     "extras": {"warranty": "2 years"}},
    {"name": "red tablet", "price": 180},
]


def make_db(with_constraint=True, preload=0):
    db = Database()
    table = db.create_table("docs", [Column("id", NUMBER),
                                     Column("jdoc", CLOB)])
    if with_constraint:
        table.add_constraint(IsJsonConstraint("jdoc"))
    for i in range(preload):
        table.insert({"id": i, "jdoc": dumps(DOCS[i])})
    index = db.create_json_search_index("idx", "docs", "jdoc")
    for i in range(preload, len(DOCS)):
        table.insert({"id": i, "jdoc": dumps(DOCS[i])})
    return db, table, index


class TestMaintenance:
    def test_incremental_on_insert(self):
        _db, _table, index = make_db()
        assert index.inverted.indexed_documents == 3

    def test_existing_rows_indexed_at_creation(self):
        _db, _table, index = make_db(preload=2)
        assert index.inverted.indexed_documents == 3
        assert len(index.docs_with_keywords("phone")) == 1

    def test_uses_constraint_hook_when_available(self):
        db, table, _index = make_db(with_constraint=True)
        assert table.is_json_constraint("jdoc").hook_count == 1
        db.drop_index("idx")
        assert table.is_json_constraint("jdoc").hook_count == 0

    def test_falls_back_to_listener_without_constraint(self):
        _db, table, index = make_db(with_constraint=False)
        assert table.is_json_constraint("jdoc") is None
        assert index.inverted.indexed_documents == 3

    def test_delete_removes_from_inverted(self):
        _db, table, index = make_db()
        table.delete(lambda row: row["id"] == 0)
        assert index.docs_with_keywords("phone") == []
        assert index.inverted.indexed_documents == 2

    def test_delete_keeps_dataguide_paths(self):
        """The persistent DataGuide is additive (section 3.4)."""
        _db, table, index = make_db()
        paths_before = set(index.get_dataguide().paths())
        table.delete(lambda row: True)
        assert set(index.get_dataguide().paths()) == paths_before

    def test_update_reindexes(self):
        _db, table, index = make_db()
        table.update(lambda row: row["id"] == 0,
                     {"jdoc": dumps({"name": "green phone", "price": 1})})
        assert len(index.docs_with_keywords("green")) == 1
        assert index.docs_with_keywords("red phone") == []

    def test_detach_stops_maintenance(self):
        db, table, index = make_db()
        db.drop_index("idx")
        table.insert({"id": 99, "jdoc": dumps({"name": "late doc"})})
        assert index.docs_with_keywords("late") == []
        table.delete(lambda row: row["id"] == 0)
        assert index.inverted.indexed_documents == 3


def indexed_ids(index):
    return [r["id"] for r in index.docs_with_path("$.name")]


class TestNoPhantoms:
    """The index holds exactly the rows the table holds: postings are
    keyed by the table's doc id and applied only when a row lands."""

    @pytest.mark.parametrize("with_constraint", [True, False])
    def test_update_then_delete_leaves_nothing(self, with_constraint):
        _db, table, index = make_db(with_constraint=with_constraint)
        table.update(lambda row: row["id"] == 0,
                     {"jdoc": dumps({"name": "green phone"})})
        table.delete(lambda row: row["id"] == 0)
        assert index.docs_with_keywords("phone") == []
        assert indexed_ids(index) == [1, 2]
        table.delete(lambda row: True)
        assert len(table) == 0
        assert index.inverted.indexed_documents == 0
        assert index.docs_with_keywords("tablet") == []

    def test_rejected_batch_is_not_indexed(self):
        _db, table, index = make_db()
        with pytest.raises(ConstraintViolation):
            table.insert_many([{"id": 7, "jdoc": dumps({"name": "ok doc"})},
                               {"id": 8, "jdoc": '{"a":'}])
        assert len(table) == 3
        assert index.docs_with_keywords("ok") == []
        assert index.inverted.indexed_documents == 3
        # the next row that lands is indexed with its own parse, and the
        # rejected row's staged parse is dropped, never applied
        table.insert({"id": 9, "jdoc": dumps({"name": "late doc"})})
        assert [r["id"] for r in index.docs_with_keywords("late")] == [9]
        assert index.docs_with_keywords("ok") == []
        assert indexed_ids(index) == [0, 1, 2, 9]

    def test_rejected_update_is_not_indexed(self):
        _db, table, index = make_db()
        table.add_constraint(CheckConstraint(
            "small", lambda row: row["id"] < 2))
        with pytest.raises(ConstraintViolation):
            table.update(lambda row: True,
                         {"jdoc": dumps({"name": "never"})})
        assert index.docs_with_keywords("never") == []
        assert indexed_ids(index) == [0, 1, 2]

    def test_durable_update_then_delete_leaves_nothing(self):
        db = Database()
        table = db.create_table("docs", [Column("id", NUMBER),
                                         Column("jdoc", CLOB)],
                                durable="docs", fs=MemoryFileSystem())
        table.add_constraint(IsJsonConstraint("jdoc"))
        index = db.create_json_search_index("idx", "docs", "jdoc")
        try:
            table.insert_many([{"id": i, "jdoc": dumps(doc)}
                               for i, doc in enumerate(DOCS)])
            table.update(lambda row: row["id"] == 1,
                         {"jdoc": dumps({"name": "grey tablet"})})
            assert indexed_ids(index) == [0, 2, 1]
            table.delete(lambda row: row["id"] == 1)
            assert [r["id"] for r in index.docs_with_keywords("tablet")
                    ] == [2]
            assert index.inverted.indexed_documents == len(table) == 2
        finally:
            table.close()


class TestOneParsePerRow:
    """Figure 7 rests on the fused parse: with IS JSON and the index, a
    row's document is decoded once, by the constraint."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        from repro.engine import constraints
        from repro.index import search_index
        calls = []

        def counting(raw):
            calls.append(raw)
            return constraints_decode(raw)

        constraints_decode = constraints.decode_json
        monkeypatch.setattr(constraints, "decode_json", counting)
        monkeypatch.setattr(search_index, "decode_json", counting)
        return calls

    def test_insert_parses_once(self, decodes):
        _db, table, index = make_db()
        assert len(decodes) == len(DOCS)
        table.insert({"id": 9, "jdoc": dumps({"name": "late doc"})})
        assert len(decodes) == len(DOCS) + 1
        assert index.inverted.indexed_documents == len(DOCS) + 1

    def test_insert_many_parses_once(self, decodes):
        _db, table, index = make_db()
        before = len(decodes)
        table.insert_many([{"id": 10 + i, "jdoc": dumps(doc)}
                           for i, doc in enumerate(DOCS)])
        assert len(decodes) - before == len(DOCS)
        assert index.inverted.indexed_documents == 2 * len(DOCS)


class TestSearch:
    def test_docs_with_path(self):
        _db, _table, index = make_db()
        rows = index.docs_with_path("$.extras.warranty")
        assert [r["id"] for r in rows] == [1]

    def test_docs_with_field(self):
        _db, _table, index = make_db()
        assert len(index.docs_with_field("extras")) == 1
        assert len(index.docs_with_field("name")) == 3

    def test_docs_with_keywords(self):
        _db, _table, index = make_db()
        assert [r["id"] for r in index.docs_with_keywords("red")] == [0, 2]
        assert [r["id"] for r in
                index.docs_with_keywords("red", path="$.name")] == [0, 2]

    def test_docs_with_number(self):
        _db, _table, index = make_db()
        assert [r["id"] for r in index.docs_with_number("$.price", 250)] == [1]

    def test_index_results_agree_with_operator_scan(self):
        """Index-accelerated JSON_EXISTS == full-scan JSON_EXISTS."""
        from repro.sqljson import json_exists
        _db, table, index = make_db()
        path = "$.extras.warranty"
        indexed = {r["id"] for r in index.docs_with_path(path)}
        scanned = {r["id"] for r in table.scan()
                   if json_exists(r["jdoc"], path)}
        assert indexed == scanned


class TestDataGuideIntegration:
    def test_get_dataguide(self):
        _db, _table, index = make_db()
        guide = index.get_dataguide()
        assert "$.extras.warranty" in guide.paths()

    def test_dataguide_disabled(self):
        db = Database()
        table = db.create_table("d", [Column("jdoc", CLOB)])
        index = db.create_json_search_index("i", "d", "jdoc",
                                            dataguide=False)
        table.insert({"jdoc": "{}"})
        with pytest.raises(IndexError_):
            index.get_dataguide()

    def test_compute_statistics_fills_dg_rows(self):
        _db, _table, index = make_db()
        assert index.compute_statistics() > 0
        rows = index.dg_table.rows()
        price = [r for r in rows if r["PATH"] == "$.price"][0]
        assert price["FREQUENCY"] == 3
        assert price["MIN_VALUE"] == "100"
        assert price["MAX_VALUE"] == "250"

    def test_unknown_column_rejected(self):
        db = Database()
        db.create_table("d", [Column("jdoc", CLOB)])
        with pytest.raises(IndexError_):
            db.create_json_search_index("i", "d", "nope")
