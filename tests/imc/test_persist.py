"""Persistent IMC: cold start from durable column segments.

The tentpole contract: a table whose columns were populated and then
lifted into column segments by checkpoint/compact is served **from the
segments** on reopen — no full-table extraction scan (the
``imc.populate`` span is absent), ``imc.columns_read`` counts exactly
the projected columns, and any damaged segment degrades to
rebuild-from-OSON with a quarantine diagnostic, never an error.  The
hypothesis differential pins the scan equivalences: persisted-segment
scan ≡ fresh populate ≡ row mode, including the merged base+delta
read after post-reopen DML.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, NUMBER, Query, VARCHAR2, expr
from repro.engine.table import DurableTable
from repro.imc import IMCStore
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.storage import CollectionStore

COLUMNS = ["id", "name", "name_len"]


def make_table(store):
    t = DurableTable("emp", [Column("id", NUMBER),
                             Column("name", VARCHAR2(64))], store)
    t.add_column(Column("name_len", NUMBER,
                        expression=expr.LENGTH(expr.Col("name"))))
    return t


def seed_store(directory, rows):
    """Create, fill, populate, checkpoint (cutting segments), close."""
    store = CollectionStore.create(str(directory))
    table = make_table(store)
    for row in rows:
        table.insert(dict(row))
    imc = IMCStore()
    imc.populate(table, COLUMNS)
    store.checkpoint()
    store.close()


def reopen(directory):
    store = CollectionStore.open(str(directory))
    table = make_table(store)
    imc = IMCStore()
    imc.bind(table)
    return store, table, imc


ROWS = [{"id": 1, "name": "ann"}, {"id": 2, "name": "bobby"},
        {"id": 3, "name": None}, {"id": 4, "name": "dee"}]


def span_names(spans):
    out = []
    for s in spans:
        out.append(s.name)
        out.extend(span_names(s.children))
    return out


class TestColdStart:
    def test_segments_pinned_by_checkpoint(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store = CollectionStore.open(str(tmp_path))
        pinned = {(e["table"], e["column"]) for e in store.imc_segments()}
        assert pinned == {("emp", c) for c in COLUMNS}
        store.close()

    def test_populate_serves_segments_without_rescan(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store, table, imc = reopen(tmp_path)
        before = obs_metrics.snapshot_metrics()
        previous = obs_trace.set_tracing_enabled(True)
        obs_trace.take_spans()
        try:
            imc.populate(table, COLUMNS)
            spans = span_names(obs_trace.take_spans())
        finally:
            obs_trace.set_tracing_enabled(previous)
        deltas = obs_metrics.metric_deltas(before,
                                           obs_metrics.snapshot_metrics())
        assert "imc.segment_load" in spans
        assert "imc.populate" not in spans  # zero extraction scans
        assert deltas.get("imc.segment_loads") == len(COLUMNS)
        assert "imc.populates" not in deltas
        assert imc.segment_quarantines() == []
        store.close()

    def test_cold_values_match_row_mode(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store, table, imc = reopen(tmp_path)
        imc.populate(table, COLUMNS)
        for name in COLUMNS:
            column = table.column(name)
            if column.expression is not None:
                expected = [column.expression.compiled()(r)
                            for r in table.raw_rows()]
            else:
                expected = [r.get(name) for r in table.raw_rows()]
            assert imc.column("emp", name).to_list() == expected, name
        store.close()

    def test_query_cold_start_projects_only_named_columns(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store, table, imc = reopen(tmp_path)
        q = Query(table).select("id", "name_len")
        text = q.explain(analyze=True)
        assert "IMC SCAN emp [columns=id, name_len]" in text
        assert "metric imc.columns_read: 2" in text
        assert "metric imc.segment_loads: 2" in text
        assert "metric imc.populates" not in text
        store.close()


class TestDegradation:
    def corrupt_one_segment(self, tmp_path, column):
        store = CollectionStore.open(str(tmp_path))
        entry = [e for e in store.imc_segments()
                 if e["column"] == column][0]
        store.close()
        path = tmp_path / entry["name"]
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        return entry["name"]

    def test_corrupt_segment_degrades_with_quarantine(self, tmp_path):
        seed_store(tmp_path, ROWS)
        name = self.corrupt_one_segment(tmp_path, "name_len")
        store, table, imc = reopen(tmp_path)
        imc.populate(table, COLUMNS)
        # the answer is still exact (rebuilt from OSON)...
        assert imc.column("emp", "name_len").to_list() == [3, 5, None, 3]
        # ...and the degraded read is accounted for
        quarantines = imc.segment_quarantines()
        assert [q.name for q in quarantines] == [name]
        assert quarantines[0].column == "name_len"
        # the intact segments still serve
        assert imc.column("emp", "id").to_list() == [1, 2, 3, 4]
        store.close()

    def test_missing_segment_degrades(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store = CollectionStore.open(str(tmp_path))
        victim = store.imc_segments()[0]["name"]
        store.close()
        (tmp_path / victim).unlink()
        store, table, imc = reopen(tmp_path)
        imc.populate(table, COLUMNS)
        assert imc.column("emp", "id").to_list() == [1, 2, 3, 4]
        assert len(imc.segment_quarantines()) == 1
        store.close()


class TestRestartStability:
    def test_double_restart_identical(self, tmp_path):
        seed_store(tmp_path, ROWS)
        results = []
        for _ in range(2):
            store, table, imc = reopen(tmp_path)
            imc.populate(table, COLUMNS)
            results.append({name: imc.column("emp", name).to_list()
                            for name in COLUMNS})
            entries = [dict(e) for e in store.imc_segments()]
            results.append(entries)
            store.close()
        assert results[0] == results[2]
        assert results[1] == results[3]

    def test_dml_then_checkpoint_refreshes_segments(self, tmp_path):
        seed_store(tmp_path, ROWS)
        store, table, imc = reopen(tmp_path)
        imc.populate(table, COLUMNS)
        table.insert({"id": 5, "name": "eve"})
        table.update(lambda r: r["id"] == 1, {"name": "a"})
        table.delete(lambda r: r["id"] == 2)
        store.checkpoint()  # lifts the refreshed columnar form
        store.close()
        store, table, imc = reopen(tmp_path)
        rows = imc.scan_rows(table, ["id", "name_len"])
        assert sorted((r["id"], r["name_len"]) for r in rows) == [
            (1, 1), (3, None), (4, 3), (5, 3)]
        assert imc.segment_quarantines() == []
        store.close()


NAMES = st.one_of(st.none(), st.text(
    alphabet=st.characters(codec="utf-8",
                           blacklist_categories=("Cs",)),
    max_size=8))
ROW_SETS = st.lists(
    st.fixed_dictionaries({"id": st.integers(-1000, 1000), "name": NAMES}),
    min_size=0, max_size=12)
DML = st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]),
                         st.integers(-1000, 1000), NAMES), max_size=4)


class TestDifferential:
    """persisted-segment scan ≡ fresh populate ≡ row mode."""

    @settings(max_examples=20, deadline=None)
    @given(rows=ROW_SETS, dml=DML)
    def test_three_way_equivalence(self, tmp_path_factory, rows, dml):
        directory = tmp_path_factory.mktemp("imcdiff")
        seed_store(directory, rows)
        store, table, imc = reopen(directory)
        # post-reopen DML: the merged base+delta read path
        for op, key, name in dml:
            if op == "insert":
                table.insert({"id": key, "name": name})
            elif op == "update":
                table.update(lambda r: r["id"] == key, {"name": name})
            else:
                table.delete(lambda r: r["id"] == key)
        persisted = imc.scan_rows(table, COLUMNS)
        fresh = IMCStore()
        fresh.populate(table, COLUMNS)
        fresh_scan = fresh.scan_rows(table, COLUMNS)
        row_mode = [{name: row[name] for name in COLUMNS}
                    for row in table.scan()]
        assert persisted == fresh_scan == row_mode
        store.close()
