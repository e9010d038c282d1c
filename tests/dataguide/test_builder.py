"""Tests for instance skeleton extraction and the collection merge.

The key scenarios come straight from the paper: Tables 1-6 show exactly
which $DG rows a purchase-order collection must produce as documents grow
the hierarchy deeper and wider.
"""

from repro.core.dataguide.builder import DataGuideBuilder, instance_entries
from repro.core.dataguide.model import ARRAY, OBJECT, SCALAR

# the documents of the paper's Tables 1, 3 and 5 (abridged values)
DOC1 = {"purchaseOrder": {"id": 1, "podate": "2014-09-08",
        "items": [{"name": "phone", "price": 100, "quantity": 2},
                  {"name": "ipad", "price": 350.86, "quantity": 3}]}}

DOC3 = {"purchaseOrder": {"id": 2, "podate": "2015-06-03",
        "foreign_id": "CDEG35",
        "items": [{"name": "TV", "price": 345.55, "quantity": 1,
                   "parts": [{"partName": "remoteCon", "partQuantity": "1"}]},
                  {"name": "PC", "price": 546.78, "quantity": 10,
                   "parts": [{"partName": "mouse", "partQuantity": "2"},
                             {"partName": "keyboard", "partQuantity": "1"}]}]}}

DOC5 = {"purchaseOrder": {"id": 3, "podate": "2015-08-03",
        "items": [{"name": "monitor", "price": 345.55, "quantity": 1}],
        "discount_items": [
            {"dis_itemName": "mousepad", "dis_itemPrice": 4.55,
             "dis_itemQuanitty": 1,
             "dis_parts": [{"dis_partName": "pad", "dis_partQuantity": 1}]}]}}


def type_map(entries):
    return {(e.path, e.kind): e.type_label for e in entries.values()}


class TestInstanceEntries:
    def test_paper_table_2(self):
        """Extracting DOC1 must yield the rows of the paper's Table 2."""
        entries = instance_entries(DOC1)
        types = type_map(entries)
        assert types[("$.purchaseOrder", OBJECT)] == "object"
        assert types[("$.purchaseOrder.id", SCALAR)] == "number"
        assert types[("$.purchaseOrder.podate", SCALAR)] == "string"
        assert types[("$.purchaseOrder.items", ARRAY)] == "array"
        assert types[("$.purchaseOrder.items.name", SCALAR)] == "array of string"
        assert types[("$.purchaseOrder.items.price", SCALAR)] == "array of number"
        assert types[("$.purchaseOrder.items.quantity", SCALAR)] == "array of number"

    def test_scalar_stats_collected(self):
        entries = instance_entries(DOC1)
        price = entries[("$.purchaseOrder.items.price", SCALAR)]
        assert price.min_value == 100
        assert price.max_value == 350.86
        name = entries[("$.purchaseOrder.items.name", SCALAR)]
        assert name.max_length == len("phone")

    def test_frequency_is_per_document(self):
        entries = instance_entries(DOC1)
        # 'name' occurs twice in the doc but frequency counts documents
        assert entries[("$.purchaseOrder.items.name", SCALAR)].frequency == 1

    def test_array_of_scalars(self):
        entries = instance_entries({"tags": ["a", "b"]})
        assert ("$.tags", ARRAY) in entries
        scalar = entries[("$.tags", SCALAR)]
        assert scalar.in_array and scalar.scalar_type == "string"

    def test_nested_array_of_arrays(self):
        entries = instance_entries({"m": [[1, 2], [3]]})
        # outer and inner arrays share the path; the merge ORs in_array,
        # yielding the paper's "array of array" label
        assert entries[("$.m", ARRAY)].type_label == "array of array"
        scalar = entries[("$.m", SCALAR)]
        assert scalar.in_array

    def test_heterogeneous_path_keeps_both_kinds(self):
        """The paper's $.a.b-as-scalar vs $.a.b-as-object example."""
        builder = DataGuideBuilder()
        builder.add({"a": {"b": 1}})
        builder.add({"a": {"b": {"c": 2}}})
        keys = {e.key for e in builder.entries()}
        assert ("$.a.b", SCALAR) in keys
        assert ("$.a.b", OBJECT) in keys

    def test_root_scalar_document(self):
        entries = instance_entries(42)
        assert entries[("$", SCALAR)].scalar_type == "number"

    def test_null_leaf(self):
        entries = instance_entries({"v": None})
        entry = entries[("$.v", SCALAR)]
        assert entry.scalar_type == "null"
        assert entry.null_count == 1


class TestCollectionMerge:
    def test_paper_table_4_deeper(self):
        """Adding DOC3 grows the guide deeper by exactly 4 new rows."""
        builder = DataGuideBuilder()
        builder.add(DOC1)
        before = {e.key for e in builder.entries()}
        changed = builder.add(DOC3)
        after = {e.key for e in builder.entries()}
        assert after - before <= set(changed)
        new_paths = sorted(path for path, _kind in after - before)
        assert new_paths == [
            "$.purchaseOrder.foreign_id",
            "$.purchaseOrder.items.parts",
            "$.purchaseOrder.items.parts.partName",
            "$.purchaseOrder.items.parts.partQuantity",
        ]
        types = {e.key: e.type_label for e in builder.entries()}
        assert types[("$.purchaseOrder.items.parts", ARRAY)] == "array of array"
        assert types[("$.purchaseOrder.items.parts.partName", SCALAR)] \
            == "array of string"
        assert types[("$.purchaseOrder.foreign_id", SCALAR)] == "string"

    def test_paper_table_6_wider(self):
        """Adding DOC5 grows the guide wider with the discount hierarchy."""
        builder = DataGuideBuilder()
        builder.add(DOC1)
        builder.add(DOC3)
        before = {e.key for e in builder.entries()}
        changed = builder.add(DOC5)
        after = {e.key for e in builder.entries()}
        new_paths = sorted(path for path, _kind in after - before)
        assert new_paths == [
            "$.purchaseOrder.discount_items",
            "$.purchaseOrder.discount_items.dis_itemName",
            "$.purchaseOrder.discount_items.dis_itemPrice",
            "$.purchaseOrder.discount_items.dis_itemQuanitty",
            "$.purchaseOrder.discount_items.dis_parts",
            "$.purchaseOrder.discount_items.dis_parts.dis_partName",
            "$.purchaseOrder.discount_items.dis_parts.dis_partQuantity",
        ]
        # add also reports the one entry DOC5 widens: "monitor" is the
        # longest item name so far
        widened = ("$.purchaseOrder.items.name", SCALAR)
        assert set(changed) == (after - before) | {widened}
        assert builder.entry(widened).max_length == len("monitor")

    def test_no_change_fast_path(self):
        builder = DataGuideBuilder()
        builder.add(DOC1)
        assert builder.add(DOC1) == []  # identical structure: nothing new

    def test_add_reports_structural_changes(self):
        """``add`` returns new keys and keys whose type, array flag or
        max length changed; statistics alone are not a change."""
        builder = DataGuideBuilder()
        builder.add({"v": 1, "s": "ab", "n": 5})
        changed = builder.add({"v": "text", "s": "abc", "n": 9})
        assert sorted(changed) == [("$.s", SCALAR), ("$.v", SCALAR)]

    def test_type_generalization_on_merge(self):
        builder = DataGuideBuilder()
        builder.add({"v": 1})
        builder.add({"v": "text"})
        entry = builder.entry(("$.v", SCALAR))
        assert entry.scalar_type == "string"

    def test_frequency_counts_documents(self):
        builder = DataGuideBuilder()
        for _ in range(3):
            builder.add(DOC1)
        builder.add({"other": 1})
        entry = builder.entry(("$.purchaseOrder", OBJECT))
        assert entry.frequency == 3
        assert builder.documents_seen == 4

    def test_merge_builder(self):
        a = DataGuideBuilder()
        a.add(DOC1)
        b = DataGuideBuilder()
        b.add(DOC5)
        b_before = [e.as_row() for e in b.entries()]
        a.merge_builder(b)
        assert a.documents_seen == 2
        assert ("$.purchaseOrder.discount_items", ARRAY) in \
            {e.key for e in a.entries()}
        a.add(DOC5)  # later merges into a must not reach into b
        assert [e.as_row() for e in b.entries()] == b_before

    def test_guide_snapshot(self):
        builder = DataGuideBuilder()
        builder.add(DOC1)
        guide = builder.guide()
        assert len(guide) == len(builder.entries())
        assert guide.document_count == 1
