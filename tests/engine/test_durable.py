"""DurableTable: a heap table write-through-backed by the crash-safe
CollectionStore, created via ``Database.create_table(durable=...)``."""

import pytest

from repro.engine import Column, Database
from repro.engine.table import DurableTable, _document_to_row, _row_to_document
from repro.errors import EngineError
from repro.storage import MemoryFileSystem


def columns():
    return [
        Column.of("ID", "number", nullable=False),
        Column.of("NAME", "varchar2(30)"),
        Column.of("BLOB", "raw(100)"),
    ]


@pytest.fixture
def fs():
    return MemoryFileSystem()


def make_db(fs):
    db = Database()
    table = db.create_table("T", columns(), durable="t_store", fs=fs)
    return db, table


class TestWriteThrough:
    def test_create_table_durable_returns_durable_table(self, fs):
        _, table = make_db(fs)
        assert isinstance(table, DurableTable)
        assert table.recovery is None  # freshly created store

    def test_insert_persists_and_restores(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        table.insert({"ID": 2, "NAME": "bob"})
        table.close()

        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        rows = sorted(restored.scan(), key=lambda r: r["ID"])
        assert [r["NAME"] for r in rows] == ["ada", "bob"]
        assert len(restored) == 2
        assert restored.recovery.clean

    def test_delete_write_through(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        table.insert({"ID": 2, "NAME": "bob"})
        assert table.delete(lambda r: r["ID"] == 1) == 1
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        assert [r["NAME"] for r in restored.scan()] == ["bob"]

    def test_update_write_through(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        assert table.update(lambda r: r["ID"] == 1,
                            {"NAME": "grace"}) == 1
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        assert [r["NAME"] for r in restored.scan()] == ["grace"]

    def test_failed_update_leaves_row_and_document_intact(self, fs):
        """A coercion/constraint failure during update must surface
        *before* the delete listener fires — otherwise the backing
        document is already gone and the row is lost on restart."""
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        with pytest.raises(EngineError):
            table.update(lambda r: r["ID"] == 1, {"NAME": "x" * 99})
        (row,) = list(table.scan())
        assert row["NAME"] == "ada"
        # the row still has its backing document: deletable, durable
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        assert [r["NAME"] for r in restored.scan()] == ["ada"]
        assert restored.delete(lambda r: True) == 1

    def test_failed_constraint_update_leaves_document_intact(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})

        class NameNotNull:
            def check(self, row):
                if row.get("NAME") is None:
                    raise EngineError("NAME must not be NULL")

        table.add_constraint(NameNotNull())
        with pytest.raises(EngineError):
            table.update(lambda r: r["ID"] == 1, {"NAME": None})
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        assert [r["NAME"] for r in restored.scan()] == ["ada"]

    def test_raw_bytes_roundtrip(self, fs):
        _, table = make_db(fs)
        payload = bytes(range(32))
        table.insert({"ID": 1, "BLOB": payload})
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        (row,) = list(restored.scan())
        assert row["BLOB"] == payload
        assert isinstance(row["BLOB"], bytes)

    def test_missing_columns_restore_as_null(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1})
        table.close()
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        (row,) = list(restored.scan())
        assert row["NAME"] is None and row["BLOB"] is None

    def test_unknown_recovered_column_is_an_error(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        table.close()
        db2 = Database()
        with pytest.raises(EngineError):
            db2.create_table("T", [Column.of("OTHER", "number")],
                             durable="t_store", fs=fs)

    def test_checkpoint_delegates(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1})
        table.checkpoint()
        assert len(table.store.storage_files()) == 2


class TestDurableSurvivesCrash:
    def test_unsynced_rows_would_be_lost_but_acked_ones_survive(self, fs):
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        # no close(): recover from the durable bytes only, as after a
        # power loss — the insert was acknowledged, so it must be there
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs.durable_state())
        assert [r["NAME"] for r in restored.scan()] == ["ada"]

    def test_quarantine_surfaces_on_table(self, fs):
        import posixpath
        _, table = make_db(fs)
        table.insert({"ID": 1, "NAME": "ada"})
        table.insert({"ID": 2, "NAME": "bob"})
        table.close()
        # damage the second insert's record in the WAL
        wal = posixpath.join("t_store", "log-00000001.log")

        def flip_tail(data):
            mutated = bytearray(data)
            mutated[-3] ^= 0x10
            return bytes(mutated)

        fs.mutate_durable(wal, flip_tail)
        db2 = Database()
        restored = db2.create_table("T", columns(), durable="t_store",
                                    fs=fs)
        assert restored.recovery.quarantined  # reported, not fatal
        assert len(restored) == 1  # the undamaged row survived


class TestDocumentMapping:
    def test_bytes_wrapped_as_raw(self):
        document = _row_to_document({"A": b"\x01\x02", "B": 1})
        assert document == {"A": {"$raw": "0102"}, "B": 1}
        assert _document_to_row(document) == {"A": b"\x01\x02", "B": 1}

    def test_plain_dict_with_raw_key_is_not_mangled(self):
        # only exact {"$raw": ...} single-key dicts are unwrapped
        row = _document_to_row({"A": {"$raw": "00", "extra": 1}})
        assert row["A"] == {"$raw": "00", "extra": 1}


class TestDmdvCacheFreshness:
    """A partial (OsonUpdater) update written back through a
    DurableTable must not let JSON_TABLE views serve stale rows from the
    DMDV row cache: the new image is a new adapter identity, so the
    memoized expansion of the old image can never be returned for it."""

    DOC = {"sku": "phone", "qty": 3}

    def _durable_json_table(self, fs):
        from repro.core.oson import encode
        db = Database()
        table = db.create_table(
            "J", [Column.of("ID", "number", nullable=False),
                  Column.of("JDOC", "raw(2000)")],
            durable="j_store", fs=fs)
        table.insert({"ID": 1, "JDOC": encode(self.DOC)})
        return db, table

    def _view(self, table):
        from repro.engine.view import JsonTableView
        from repro.sqljson.json_table import ColumnDef, JsonTable
        expansion = JsonTable("$", [ColumnDef("sku", "varchar2(30)"),
                                    ColumnDef("qty", "number")])
        return JsonTableView("j_view", table, "JDOC", expansion,
                             include_columns=["ID"])

    def test_partial_update_not_served_stale(self, fs):
        from repro.core.oson import OsonUpdater
        from repro.obs import metrics
        db, table = self._durable_json_table(fs)
        view = self._view(table)

        assert [r["qty"] for r in view.scan()] == [3]
        # second scan comes from the memoized DMDV expansion
        hits = metrics.counter("sqljson.jsontable_rows.hits")
        hits_before = hits.value
        assert [r["qty"] for r in view.scan()] == [3]
        assert hits.value > hits_before

        # partial update on the stored image, written back through the
        # table's normal (durable, write-through) update path
        (row,) = list(table.scan())
        u = OsonUpdater(row["JDOC"])
        u.set_scalar_by_path(["qty"], 9)
        assert table.update(lambda r: r["ID"] == 1,
                            {"JDOC": u.to_bytes()}) == 1

        assert [r["qty"] for r in view.scan()] == [9]
        assert [r["qty"] for r in view.scan()] == [9]  # warm rescan too

    def test_updated_rows_survive_restart(self, fs):
        from repro.core.oson import OsonUpdater
        db, table = self._durable_json_table(fs)
        (row,) = list(table.scan())
        u = OsonUpdater(row["JDOC"])
        u.set_scalar_by_path(["qty"], 42)
        table.update(lambda r: r["ID"] == 1, {"JDOC": u.to_bytes()})
        table.close()

        db2 = Database()
        restored = db2.create_table(
            "J", [Column.of("ID", "number", nullable=False),
                  Column.of("JDOC", "raw(2000)")],
            durable="j_store", fs=fs)
        view = self._view(restored)
        assert [r["qty"] for r in view.scan()] == [42]
