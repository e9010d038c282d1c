"""Tests for JSON_TABLE: nested paths, join semantics, the row source API."""

import pytest

from repro import bson
from repro.core.oson import encode as oson_encode
from repro.errors import QueryError
from repro.jsontext import dumps
from repro.sqljson import ColumnDef, JsonTable, NestedPath

PO_DOC = {
    "purchaseOrder": {
        "id": 1,
        "podate": "2014-09-08",
        "items": [
            {"name": "TV", "price": 345.55, "quantity": 1,
             "parts": [{"partName": "remoteCon", "partQuantity": "1"},
                       {"partName": "antenna", "partQuantity": "2"}]},
            {"name": "PC", "price": 546.78, "quantity": 10},
        ],
        "discount_items": [
            {"dis_itemName": "cable", "dis_itemPrice": 5.0},
        ],
    }
}


def po_table():
    return JsonTable("$", [
        ColumnDef("id", "number", "$.purchaseOrder.id"),
        ColumnDef("podate", "varchar2(16)", "$.purchaseOrder.podate"),
        NestedPath("$.purchaseOrder.items[*]", [
            ColumnDef("name", "varchar2(16)", "$.name"),
            ColumnDef("price", "number", "$.price"),
            NestedPath("$.parts[*]", [
                ColumnDef("partName", "varchar2(16)", "$.partName"),
                ColumnDef("partQuantity", "varchar2(4)", "$.partQuantity"),
            ]),
        ]),
        NestedPath("$.purchaseOrder.discount_items[*]", [
            ColumnDef("dis_itemName", "varchar2(16)", "$.dis_itemName"),
            ColumnDef("dis_itemPrice", "number", "$.dis_itemPrice"),
        ]),
    ])


class TestBasicProjection:
    def test_simple_columns(self):
        table = JsonTable("$", [
            ColumnDef("id", "number", "$.purchaseOrder.id"),
            ColumnDef("podate", "varchar2(16)", "$.purchaseOrder.podate"),
        ])
        assert table.rows(PO_DOC) == [{"id": 1, "podate": "2014-09-08"}]

    def test_default_path_from_name(self):
        table = JsonTable("$", [ColumnDef("a"), ColumnDef("b")])
        assert table.rows({"a": "x", "b": "y"}) == [{"a": "x", "b": "y"}]

    def test_row_path_unnests(self):
        table = JsonTable("$.purchaseOrder.items[*]", [
            ColumnDef("name", "varchar2(16)", "$.name"),
        ])
        assert table.rows(PO_DOC) == [{"name": "TV"}, {"name": "PC"}]

    def test_missing_column_is_null(self):
        table = JsonTable("$", [ColumnDef("nope", "number", "$.missing")])
        assert table.rows(PO_DOC) == [{"nope": None}]

    def test_type_coercion(self):
        table = JsonTable("$", [
            ColumnDef("id_text", "varchar2(8)", "$.purchaseOrder.id"),
            ColumnDef("truncated", "varchar2(4)", "$.purchaseOrder.podate"),
        ])
        assert table.rows(PO_DOC) == [{"id_text": "1", "truncated": "2014"}]

    def test_column_value_from_item_method(self):
        table = JsonTable("$", [
            ColumnDef("n_items", "number", "$.purchaseOrder.items.size()"),
        ])
        assert table.rows(PO_DOC) == [{"n_items": 2}]


class TestJoinSemantics:
    def test_left_outer_join_child(self):
        """Parents without details still produce one row (NULL details)."""
        rows = po_table().rows(PO_DOC)
        pc_rows = [r for r in rows if r["name"] == "PC"]
        assert len(pc_rows) == 1
        assert pc_rows[0]["partName"] is None  # PC has no parts

    def test_child_expansion(self):
        rows = po_table().rows(PO_DOC)
        tv_rows = [r for r in rows if r["name"] == "TV"]
        assert [r["partName"] for r in tv_rows] == ["remoteCon", "antenna"]

    def test_master_fields_repeated(self):
        rows = po_table().rows(PO_DOC)
        assert all(r["id"] == 1 for r in rows)

    def test_union_join_siblings(self):
        """Sibling nested paths: each sibling's rows NULL the other's cols."""
        rows = po_table().rows(PO_DOC)
        item_rows = [r for r in rows if r["name"] is not None]
        discount_rows = [r for r in rows if r["dis_itemName"] is not None]
        assert len(item_rows) == 3       # TV x2 parts + PC x1
        assert len(discount_rows) == 1
        assert all(r["dis_itemName"] is None for r in item_rows)
        assert all(r["name"] is None for r in discount_rows)
        assert len(rows) == 4

    def test_empty_document_single_null_row(self):
        rows = po_table().rows({})
        assert len(rows) == 1
        assert all(v is None for v in rows[0].values())

    def test_all_columns_present_in_every_row(self):
        table = po_table()
        for row in table.rows(PO_DOC):
            assert set(row) == set(table.column_names)


class TestFormatParity:
    def test_same_rows_for_all_encodings(self):
        table = po_table()
        expected = table.rows(PO_DOC)
        assert table.rows(dumps(PO_DOC)) == expected
        assert table.rows(oson_encode(PO_DOC)) == expected
        assert table.rows(bson.encode(PO_DOC)) == expected


class TestAbsolutePaths:
    def test_scalar_column_paths(self):
        paths = po_table().absolute_paths
        assert paths["id"] == "$.purchaseOrder.id"
        assert paths["name"] == "$.purchaseOrder.items[*].name"
        assert paths["partName"] == \
            "$.purchaseOrder.items[*].parts[*].partName"
        assert paths["dis_itemPrice"] == \
            "$.purchaseOrder.discount_items[*].dis_itemPrice"


class TestValidation:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(QueryError):
            JsonTable("$", [ColumnDef("x"), ColumnDef("x")])

    def test_duplicate_across_nesting_rejected(self):
        with pytest.raises(QueryError):
            JsonTable("$", [
                ColumnDef("x"),
                NestedPath("$.a[*]", [ColumnDef("x")]),
            ])

    def test_bad_column_spec_rejected(self):
        with pytest.raises(QueryError):
            JsonTable("$", ["not-a-column"])


class TestRowSource:
    def docs(self):
        return [PO_DOC, {}, PO_DOC]

    def test_start_fetch_close(self):
        source = po_table().open(self.docs())
        source.start()
        rows = []
        while True:
            batch = source.fetch_next_batch(3)
            if not batch:
                break
            rows.append(batch)
            assert len(batch) <= 3
        source.close()
        flattened = [r for batch in rows for r in batch]
        assert len(flattened) == 4 + 1 + 4

    def test_fetch_before_start_raises(self):
        source = po_table().open(self.docs())
        with pytest.raises(QueryError):
            source.fetch_next_batch()

    def test_start_after_close_raises(self):
        source = po_table().open(self.docs())
        source.start()
        source.close()
        with pytest.raises(QueryError):
            source.start()

    def test_iter_rows(self):
        rows = list(po_table().iter_rows([PO_DOC, PO_DOC]))
        assert len(rows) == 8


class TestDmdvRowCache:
    """The bounded memoization of OSON expansions (the in-memory DMDV),
    keyed by (JsonTable identity, image value)."""

    @pytest.fixture
    def cache(self):
        from repro.core.counters import cache_named
        cache = cache_named("sqljson.jsontable_rows")
        cache.counters.reset()
        return cache

    def test_oson_expansion_is_cached(self, cache):
        table = po_table()
        image = oson_encode(PO_DOC)
        assert table.probe(image) is None
        first = table.rows(image)
        assert table.rows(image) == first
        assert (cache.counters.hits, cache.counters.misses) == (1, 2)

    def test_equal_images_share_one_entry(self, cache):
        table = po_table()
        image = oson_encode(PO_DOC)
        copy = bytes(bytearray(image))
        assert copy == image and copy is not image
        before = len(cache)
        table.rows(image)
        assert table.probe(copy) is table.probe(image) is not None
        assert len(cache) == before + 1

    def test_public_rows_are_private_copies(self):
        table = po_table()
        image = oson_encode(PO_DOC)
        table.rows(image)[0]["id"] = "corrupted"   # the miss's rows
        table.rows(image)[0]["id"] = "corrupted"   # a hit's rows
        assert table.rows(image)[0]["id"] == 1
        assert table.probe(image)[0]["id"] == 1

    def test_distinct_tables_do_not_share_entries(self):
        image = oson_encode(PO_DOC)
        wide = po_table()
        narrow = JsonTable("$", [ColumnDef("id", "number",
                                           "$.purchaseOrder.id")])
        assert len(wide.rows(image)[0]) == 8
        assert narrow.rows(image) == [{"id": 1}]
        assert len(wide.rows(image)[0]) == 8

    def test_disabled_cache_recomputes(self):
        from repro.core.counters import (
            restore_caches_enabled,
            set_caches_enabled,
        )
        table = po_table()
        image = oson_encode(PO_DOC)
        previous = set_caches_enabled(
            False, names=["sqljson.jsontable_rows"])
        try:
            rows = table.rows(image)
            assert table.probe(image) is None
            assert rows == table.rows(image)
        finally:
            restore_caches_enabled(previous)

    def test_entries_do_not_pin_the_table(self, cache):
        """Regression: entries held ``(adapter, rows, self)``, so a
        dropped table (and every image it had expanded) stayed resident
        until 4096 newer entries pushed it out."""
        import gc
        import weakref
        table = JsonTable("$", [ColumnDef("sku", "varchar2(30)")])
        table.rows(oson_encode({"sku": "a"}))
        resident = len(cache)
        alive = weakref.ref(table)
        del table
        gc.collect()
        assert alive() is None
        assert len(cache) == resident - 1

    def test_uncacheable_inputs_insert_nothing(self, cache):
        """Regression: a ``bytearray`` or ``OsonDocument`` call built a
        throw-away adapter and inserted rows under its ``id()`` — an
        entry nobody could probe again, evicting a live one."""
        from repro.core.oson import OsonDocument
        table = po_table()
        image = oson_encode(PO_DOC)
        expected = table.rows(dumps(PO_DOC))           # text: no entry
        assert table.rows(bson.encode(PO_DOC)) == expected  # nor BSON
        resident, evictions = len(cache), cache.counters.evictions
        for _ in range(50):
            assert table.rows(bytearray(image)) == expected
            assert table.rows(OsonDocument(image)) == expected
        assert table.probe(bytearray(image)) is None
        assert len(cache) == resident
        assert cache.counters.evictions == evictions
        assert cache.counters.hits == 0

    def test_mutated_bytearray_is_never_served_stale(self):
        from repro.core.oson import OsonUpdater
        table = JsonTable("$", [ColumnDef("qty", "number")])
        buffer = bytearray(oson_encode({"qty": 3}))
        assert table.rows(buffer) == [{"qty": 3}]
        updater = OsonUpdater(bytes(buffer))
        updater.set_scalar_by_path(["qty"], 9)
        buffer[:] = updater.to_bytes()
        assert table.rows(buffer) == [{"qty": 9}]
