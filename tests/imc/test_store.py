"""Tests for the IMC store (columnar population of table columns)."""

import threading

import pytest

from repro.engine import Column, NUMBER, Table, VARCHAR2, expr
from repro.errors import CatalogError
from repro.imc import IMCStore
from repro.obs import metrics as obs_metrics


def table_with_vc():
    t = Table("emp", [Column("id", NUMBER), Column("name", VARCHAR2(10))])
    t.add_column(Column("name_len", NUMBER,
                        expression=expr.LENGTH(expr.Col("name"))))
    t.insert_many([{"id": 1, "name": "ann"}, {"id": 2, "name": "bobby"},
                   {"id": 3, "name": None}])
    return t


class TestPopulate:
    def test_populate_all_columns(self):
        store = IMCStore()
        vectors = store.populate(table_with_vc())
        assert {v.name for v in vectors} == {"id", "name", "name_len"}

    def test_stored_column_values(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id"])
        assert store.column("emp", "id").to_list() == [1, 2, 3]

    def test_virtual_column_evaluated_at_population(self):
        """Section 5.2.1: JSON_VALUE-style virtual columns become columnar
        vectors, the extraction cost paid once."""
        store = IMCStore()
        store.populate(table_with_vc(), ["name_len"])
        assert store.column("emp", "name_len").to_list() == [3, 5, None]

    def test_unknown_column_rejected(self):
        store = IMCStore()
        with pytest.raises(CatalogError):
            store.populate(table_with_vc(), ["nope"])

    def test_unpopulated_lookup_rejected(self):
        store = IMCStore()
        with pytest.raises(CatalogError):
            store.column("emp", "id")

    def test_is_populated(self):
        store = IMCStore()
        t = table_with_vc()
        assert not store.is_populated("emp", "id")
        store.populate(t, ["id"])
        assert store.is_populated("emp", "id")

    def test_evict(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id", "name"])
        store.evict("emp", "id")
        assert not store.is_populated("emp", "id")
        assert store.is_populated("emp", "name")
        store.evict("emp")
        assert not store.is_populated("emp", "name")

    def test_memory_accounting(self):
        store = IMCStore()
        assert store.memory_bytes() == 0
        store.populate(table_with_vc(), ["id"])
        assert store.memory_bytes() > 0


def row_mode_column(table, name):
    """What row-at-a-time evaluation serves for one column right now."""
    column = table.column(name)
    if column.expression is not None:
        return [column.expression.compiled()(r) for r in table.raw_rows()]
    return [r.get(name) for r in table.raw_rows()]


class TestCoherence:
    """The stale-read bugfix: populated vectors must track DML — a
    columnar answer is always byte-identical to row mode."""

    def test_insert_after_populate_is_visible(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id", "name_len"])
        t.insert({"id": 4, "name": "dee"})
        assert store.column("emp", "id").to_list() == [1, 2, 3, 4]
        assert store.column("emp", "name_len").to_list() == [3, 5, None, 3]

    def test_update_after_populate_is_visible(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["name_len"])
        t.update(lambda r: r["id"] == 2, {"name": "bo"})
        assert (store.column("emp", "name_len").to_list()
                == row_mode_column(t, "name_len"))

    def test_delete_after_populate_is_visible(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id"])
        t.delete(lambda r: r["id"] == 2)
        assert store.column("emp", "id").to_list() == [1, 3]

    def test_mixed_dml_matches_row_mode(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t)
        t.insert({"id": 4, "name": "dee"})
        t.update(lambda r: r["id"] == 1, {"name": "a"})
        t.delete(lambda r: r["id"] == 3)
        t.insert({"id": 5, "name": None})
        for name in t.column_names:
            assert (store.column("emp", name).to_list()
                    == row_mode_column(t, name)), name

    def test_scan_rows_absorbs_delta(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id"])
        t.insert({"id": 9, "name": "zz"})
        rows = store.scan_rows(t, ["id", "name_len"])
        assert rows[-1] == {"id": 9, "name_len": 2}
        assert all(set(r) == {"id", "name_len"} for r in rows)


class TestDuplicateColumns:
    """The duplicate-name bugfix: populate dedupes, keeping order."""

    def test_populate_dedupes_preserving_order(self):
        store = IMCStore()
        vectors = store.populate(table_with_vc(),
                                 ["name_len", "id", "name_len", "id"])
        assert [v.name for v in vectors] == ["name_len", "id"]

    def test_scan_rows_dedupes(self):
        store = IMCStore()
        rows = store.scan_rows(table_with_vc(), ["id", "id"])
        assert rows[0] == {"id": 1}


class TestResidentGauge:
    """The gauge bugfix: ``imc.resident_bytes`` tracks
    :meth:`memory_bytes` exactly through every transition."""

    def gauge(self):
        return obs_metrics.gauge("imc.resident_bytes").value

    def test_gauge_exact_through_transitions(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t, ["id", "name"])
        assert self.gauge() == store.memory_bytes()
        store.evict("emp", "id")
        assert self.gauge() == store.memory_bytes()
        store.populate(t, ["id", "id", "name_len"])
        assert self.gauge() == store.memory_bytes()
        store.evict("emp")
        assert self.gauge() == store.memory_bytes() == 0


class TestConcurrency:
    """The unguarded-state bugfix: populate/evict/read from many
    threads never corrupts the cache or crashes."""

    def test_populate_evict_read_hammer(self):
        store = IMCStore()
        t = table_with_vc()
        store.populate(t)
        errors = []
        start = threading.Barrier(8)

        def worker(slot):
            try:
                start.wait()
                for i in range(60):
                    turn = (slot + i) % 4
                    if turn == 0:
                        store.populate(t, ["id", "name_len"])
                    elif turn == 1:
                        store.evict("emp", "name_len")
                    elif turn == 2:
                        try:
                            values = store.column("emp", "id").to_list()
                            assert values == [1, 2, 3]
                        except CatalogError:
                            pass  # legitimately evicted by a peer
                    else:
                        assert store.memory_bytes() >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        store.populate(t, ["id"])
        assert store.column("emp", "id").to_list() == [1, 2, 3]
        assert (obs_metrics.gauge("imc.resident_bytes").value
                == store.memory_bytes())
