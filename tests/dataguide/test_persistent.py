"""Tests for the persistent DataGuide: the ``$DG`` table a JSON search
index maintains incrementally with its ``DataGuideBuilder``."""

from repro.engine import CLOB, Column, Database, NUMBER
from repro.engine.constraints import IsJsonConstraint
from repro.jsontext import dumps

DOC = {"po": {"id": 1, "items": [{"sku": "A", "qty": 1}]}}


class Indexed:
    """A CLOB table under IS JSON with a DataGuide-enabled search index
    created over the ``preload`` documents."""

    def __init__(self, preload=()):
        self.db = Database()
        self.table = self.db.create_table(
            "t", [Column("id", NUMBER), Column("jdoc", CLOB)])
        self.table.add_constraint(IsJsonConstraint("jdoc"))
        for doc in preload:
            self._insert(doc)
        self.index = self.db.create_json_search_index("idx", "t", "jdoc")
        self.dg_table = self.index.dg_table

    def _insert(self, doc):
        self.table.insert({"id": len(self.table), "jdoc": dumps(doc)})

    def insert(self, doc) -> int:
        """Insert one document; returns the ``$DG`` rows it wrote."""
        before = self.dg_table.insert_count
        self._insert(doc)
        return self.dg_table.insert_count - before


class TestIncrementalMaintenance:
    def test_first_document_writes_all_paths(self):
        idx = Indexed()
        writes = idx.insert(DOC)
        assert writes == len(idx.dg_table) == 6  # $, po, id, items, sku, qty
        assert len(idx.index.get_dataguide()) == 6

    def test_homogeneous_fast_path_writes_nothing(self):
        """The paper's common case: no new structure => zero $DG writes.

        Values vary but structure (paths, kinds, scalar types, string
        lengths) stays fixed, like Figure 7's identical-structure inserts.
        """
        idx = Indexed()
        idx.insert({"po": {"id": 0, "items": [{"sku": "SKU000", "qty": 0}]}})
        before = idx.dg_table.insert_count
        for i in range(1, 50):
            doc = {"po": {"id": i,
                          "items": [{"sku": f"SKU{i:03d}", "qty": i}]}}
            assert idx.insert(doc) == 0
        assert idx.dg_table.insert_count == before

    def test_string_length_growth_is_structural(self):
        """A longer string widens MAX_LENGTH and rewrites the $DG row."""
        idx = Indexed()
        idx.insert({"v": "ab"})
        assert idx.insert({"v": "abcdef"}) == 1
        assert idx.dg_table.lookup("$.v")[0]["MAX_LENGTH"] == 6

    def test_new_field_writes_one_row(self):
        idx = Indexed()
        idx.insert(DOC)
        writes = idx.insert(
            {"po": {"id": 2, "items": [{"sku": "B", "qty": 1}],
                    "rush": True}})
        assert writes == 1
        assert "$.po.rush" in idx.index.get_dataguide().paths()

    def test_type_generalization_refreshes_row(self):
        idx = Indexed()
        idx.insert({"v": 1})
        writes = idx.insert({"v": "text"})
        assert writes == 1  # the $.v row is rewritten, not duplicated
        rows = idx.dg_table.lookup("$.v")
        assert len(rows) == 1
        assert rows[0]["TYPE"] == "string"

    def test_heterogeneous_every_doc_writes(self):
        """Figure 8's hetero case: a unique field per document."""
        idx = Indexed()
        idx.insert(DOC)
        for i in range(10):
            doc = dict(DOC)
            doc[f"unique_{i}"] = i
            assert idx.insert(doc) >= 1

    def test_rebuild_over_collection(self):
        """An index created over existing rows builds its guide from
        them, one $DG row per distinct (path, kind)."""
        idx = Indexed(preload=[DOC, {"other": 1}, DOC])
        guide = idx.index.get_dataguide()
        assert guide.document_count == 3
        assert "$.other" in guide.paths()
        assert len(idx.dg_table) == len(guide)

    def test_statistics_pass(self):
        idx = Indexed()
        idx.insert({"v": 5})
        idx.insert({"v": 9})
        assert idx.index.compute_statistics() > 0
        row = idx.dg_table.lookup("$.v")[0]
        assert row["FREQUENCY"] == 2
        assert row["MIN_VALUE"] == "5"
        assert row["MAX_VALUE"] == "9"

    def test_forms_available(self):
        idx = Indexed()
        idx.insert(DOC)
        guide = idx.index.get_dataguide()
        assert isinstance(guide.as_flat(), list)
        assert guide.as_hierarchical()["type"] == "object"
