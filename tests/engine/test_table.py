"""Tests for heap tables: DML, constraints, virtual columns, listeners."""

import pytest

from repro.engine import Column, NUMBER, Table, VARCHAR2, expr
from repro.engine.constraints import CheckConstraint, NotNullConstraint
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    EngineError,
    TypeCoercionError,
)


def people():
    return Table("people", [
        Column("id", NUMBER, nullable=False),
        Column("name", VARCHAR2(20)),
        Column("age", NUMBER),
    ])


class TestSchema:
    def test_columns(self):
        t = people()
        assert t.column_names == ["id", "name", "age"]
        assert t.column("id").sql_type == NUMBER

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            people().column("zzz")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", NUMBER), Column("a", NUMBER)])

    def test_empty_table_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [])

    def test_add_column(self):
        t = people()
        t.add_column(Column("email", VARCHAR2(50)))
        assert t.has_column("email")

    def test_add_duplicate_column_rejected(self):
        t = people()
        with pytest.raises(CatalogError):
            t.add_column(Column("name", VARCHAR2(5)))

    def test_add_not_null_to_populated_table_rejected(self):
        t = people()
        t.insert({"id": 1})
        with pytest.raises(EngineError):
            t.add_column(Column("x", NUMBER, nullable=False))


class TestInsert:
    def test_basic(self):
        t = people()
        t.insert({"id": 1, "name": "ann", "age": 30})
        assert len(t) == 1
        assert list(t.scan()) == [{"id": 1, "name": "ann", "age": 30}]

    def test_missing_columns_default_null(self):
        t = people()
        t.insert({"id": 1})
        assert list(t.scan())[0]["name"] is None

    def test_not_null_enforced(self):
        t = people()
        with pytest.raises(EngineError):
            t.insert({"name": "no id"})

    def test_type_coercion_on_insert(self):
        t = people()
        t.insert({"id": "5", "age": "30"})
        row = list(t.scan())[0]
        assert row["id"] == 5 and row["age"] == 30

    def test_bad_type_rejected(self):
        t = people()
        with pytest.raises(TypeCoercionError):
            t.insert({"id": 1, "age": "not-a-number"})

    def test_unknown_column_rejected(self):
        t = people()
        with pytest.raises(CatalogError):
            t.insert({"id": 1, "nope": 1})

    def test_insert_many(self):
        t = people()
        assert t.insert_many([{"id": i} for i in range(5)]) == 5
        assert len(t) == 5

    def test_check_constraint(self):
        t = people()
        t.add_constraint(CheckConstraint(
            "age_positive", lambda row: row["age"] is None or row["age"] >= 0))
        t.insert({"id": 1, "age": 5})
        with pytest.raises(ConstraintViolation):
            t.insert({"id": 2, "age": -1})

    def test_not_null_constraint_object(self):
        t = people()
        t.add_constraint(NotNullConstraint("name"))
        with pytest.raises(ConstraintViolation):
            t.insert({"id": 1})


class TestDeleteUpdate:
    def test_delete(self):
        t = people()
        t.insert_many([{"id": i} for i in range(5)])
        removed = t.delete(lambda row: row["id"] % 2 == 0)
        assert removed == 3
        assert [r["id"] for r in t.scan()] == [1, 3]

    def test_update(self):
        t = people()
        t.insert_many([{"id": 1, "age": 10}, {"id": 2, "age": 20}])
        changed = t.update(lambda row: row["id"] == 2, {"age": 25})
        assert changed == 1
        assert [r["age"] for r in t.scan()] == [10, 25]

    def test_update_coerces(self):
        t = people()
        t.insert({"id": 1})
        t.update(lambda r: True, {"age": "44"})
        assert list(t.scan())[0]["age"] == 44


class TestVirtualColumns:
    def test_computed_on_scan(self):
        t = people()
        t.add_column(Column("age2", NUMBER,
                            expression=expr.Col("age") * 2))
        t.insert({"id": 1, "age": 21})
        assert list(t.scan())[0]["age2"] == 42

    def test_cannot_insert_into_virtual(self):
        t = people()
        t.add_column(Column("v", NUMBER, expression=expr.Literal(1)))
        with pytest.raises(EngineError):
            t.insert({"id": 1, "v": 9})

    def test_cannot_update_virtual(self):
        t = people()
        t.add_column(Column("v", NUMBER, expression=expr.Literal(1)))
        t.insert({"id": 1})
        with pytest.raises(EngineError):
            t.update(lambda r: True, {"v": 2})

    def test_virtual_not_stored(self):
        t = people()
        t.add_column(Column("v", NUMBER, expression=expr.Literal(1)))
        t.insert({"id": 1})
        assert "v" not in t.doc_id_rows()[0][1]

    def test_virtual_excluded_from_storage_bytes(self):
        t = people()
        before_schema = Table("p2", [Column("id", NUMBER)])
        t.add_column(Column("v", VARCHAR2(100),
                            expression=expr.Literal("x" * 100)))
        t.insert({"id": 1})
        before_schema.insert({"id": 1})
        # virtual column contributes nothing beyond the shared columns
        assert t.storage_bytes() < before_schema.storage_bytes() + 50


class TestListeners:
    def test_insert_listener_fires(self):
        t = people()
        seen = []
        t.on_insert(lambda doc_id, row: seen.append((doc_id, row)))
        t.insert({"id": 1})
        assert len(seen) == 1 and seen[0][1]["id"] == 1
        assert t.doc_id_rows() == seen

    def test_delete_listener_fires(self):
        t = people()
        seen = []
        t.on_delete(lambda doc_id, row: seen.append((doc_id, row)))
        t.insert({"id": 1})
        (pair,) = t.doc_id_rows()
        t.delete(lambda r: True)
        assert seen == [pair]

    def test_update_fires_delete_then_insert(self):
        t = people()
        log = []
        t.on_insert(lambda doc_id, r: log.append(("ins", doc_id, r["id"])))
        t.on_delete(lambda doc_id, r: log.append(("del", doc_id, r["id"])))
        t.insert({"id": 1})
        t.update(lambda r: True, {"age": 9})
        # replace semantics: the new row lands under a new doc id
        assert log == [("ins", 0, 1), ("del", 0, 1), ("ins", 1, 1)]
        assert [doc_id for doc_id, _row in t.doc_id_rows()] == [1]

    def test_removed_listener_stops_firing(self):
        t = people()
        seen = []

        def listener(doc_id, row):
            seen.append(doc_id)

        t.on_insert(listener)
        t.on_delete(listener)
        t.remove_listener(listener)
        t.insert({"id": 1})
        t.delete(lambda r: True)
        assert seen == []


class TestHeapIdentity:
    def test_update_keeps_heap_position(self):
        t = people()
        t.insert_many([{"id": i} for i in range(4)])
        t.update(lambda r: r["id"] == 1, {"age": 5})
        assert [r["id"] for r in t.scan()] == [0, 1, 2, 3]
        assert [doc_id for doc_id, _row in t.doc_id_rows()] == [0, 4, 2, 3]

    def test_failed_batch_assigns_no_ids(self):
        t = people()
        t.add_constraint(CheckConstraint("pos", lambda r: r["id"] > 0))
        with pytest.raises(ConstraintViolation):
            t.insert_many([{"id": 1}, {"id": -1}])
        assert len(t) == 0
        t.insert({"id": 2})
        assert [doc_id for doc_id, _row in t.doc_id_rows()] == [0]

    def test_failed_update_changes_nothing(self):
        # the first row's new value passes, the second's fails: every
        # candidate is checked before the first row is replaced
        t = people()
        t.add_constraint(CheckConstraint("small",
                                         lambda r: r["id"] + r["age"] < 11))
        t.insert_many([{"id": 1, "age": 1}, {"id": 2, "age": 8}])
        with pytest.raises(ConstraintViolation):
            t.update(lambda r: True, {"age": 9})
        assert [(r["id"], r["age"]) for r in t.scan()] == [(1, 1), (2, 8)]

    def test_transient_pending_batch_has_no_handle(self):
        t = people()
        assert t.insert_many_pending([{"id": 1}]) is None
        assert len(t) == 1

    def test_rows_by_id_skips_missing(self):
        t = people()
        t.insert_many([{"id": 1}, {"id": 2}])
        t.delete(lambda r: r["id"] == 1)
        assert [r["id"] for r in t.rows_by_id([0, 1, 7])] == [2]


class TestStorageAccounting:
    def test_bytes_grow_with_rows(self):
        t = people()
        empty = t.storage_bytes()
        t.insert({"id": 1, "name": "ann"})
        one = t.storage_bytes()
        t.insert({"id": 2, "name": "annabelle"})
        two = t.storage_bytes()
        assert empty == 0 < one < two

    def test_longer_values_take_more(self):
        a = people()
        b = people()
        a.insert({"id": 1, "name": "x"})
        b.insert({"id": 1, "name": "x" * 20})
        assert a.storage_bytes() < b.storage_bytes()
