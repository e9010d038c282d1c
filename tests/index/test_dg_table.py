"""Tests for the $DG relational table."""

from repro.core.dataguide.model import PathEntry, SCALAR, ARRAY
from repro.index.dg_table import DgTable


def scalar_entry(path="$.a", scalar_type="number", **kwargs):
    return PathEntry(path, SCALAR, scalar_type=scalar_type, **kwargs)


class TestDgTable:
    def test_record_new(self):
        """Upserting an unknown (path, kind) appends its row."""
        dg = DgTable("IDX")
        dg.upsert(scalar_entry())
        assert len(dg) == 1
        rows = dg.rows()
        assert rows[0]["PATH"] == "$.a"
        assert rows[0]["TYPE"] == "number"

    def test_structural_columns_written_stats_deferred(self):
        dg = DgTable("IDX")
        entry = scalar_entry(frequency=10, min_value=1, max_value=9)
        dg.upsert(entry)
        row = dg.rows()[0]
        assert row["FREQUENCY"] is None  # stats lazy until write_statistics
        assert dg.write_statistics([entry]) == 1
        row = dg.rows()[0]
        assert row["FREQUENCY"] == 10
        assert row["MIN_VALUE"] == "1"

    def test_refresh_rewrites_type(self):
        """Upserting a known (path, kind) rewrites its row in place."""
        dg = DgTable("IDX")
        entry = scalar_entry()
        dg.upsert(entry)
        entry.scalar_type = "string"  # generalized
        dg.upsert(entry)
        assert len(dg) == 1  # still one row
        assert dg.rows()[0]["TYPE"] == "string"
        assert dg.insert_count == 2  # two physical writes

    def test_refresh_unknown_entry_inserts(self):
        dg = DgTable("IDX")
        dg.upsert(scalar_entry())
        assert len(dg) == 1
        assert dg.insert_count == 1

    def test_lookup_by_path_and_kind(self):
        dg = DgTable("IDX")
        dg.upsert(scalar_entry("$.x"))
        dg.upsert(PathEntry("$.x", ARRAY))
        assert len(dg.lookup("$.x")) == 2
        assert len(dg.lookup("$.x", SCALAR)) == 1
        assert dg.lookup("$.y") == []

    def test_array_type_label(self):
        dg = DgTable("IDX")
        dg.upsert(PathEntry("$.items.parts", ARRAY, in_array=True))
        assert dg.rows()[0]["TYPE"] == "array of array"

    def test_write_statistics_skips_unknown(self):
        dg = DgTable("IDX")
        assert dg.write_statistics([scalar_entry("$.ghost")]) == 0
