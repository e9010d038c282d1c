"""The three JSON execution modes of Figures 5/6 as table setups.

TEXT is a CLOB table of JSON text, OSON-IMC a BLOB table of OSON images,
and VC-IMC that table plus the JSON_VALUE virtual columns populated into
an :class:`~repro.imc.IMCStore` (see :mod:`repro.workloads.nobench`).
"""

import pytest

from repro.core import oson
from repro.engine import Database
from repro.engine.sql import compile_sql, execute_sql
from repro.errors import CatalogError
from repro.imc import IMCStore
from repro.jsontext import loads
from repro.sqljson.operators import json_value
from repro.workloads.nobench import (NobenchGenerator, add_vc_columns,
                                     load_nobench)

DOCS = list(NobenchGenerator().documents(10))
VC_NAMES = ["str1", "num", "dyn1"]


def collection(binary=False):
    db = Database()
    return db, load_nobench(db, DOCS, binary=binary)


def vc_collection(columns=VC_NAMES):
    """The OSON table with its virtual columns, ``columns`` populated."""
    db, table = collection(binary=True)
    add_vc_columns(table)
    imc = IMCStore()
    imc.populate(table, columns)
    return db, table, imc


def values(db, path):
    sql = f"SELECT JSON_VALUE(jdoc, '{path}') v FROM nb"
    return [row["v"] for row in execute_sql(db, sql)]


class TestModes:
    def test_text_mode_handles_are_text(self):
        db, table = collection()
        assert [loads(row["jdoc"]) for _doc_id, row in table.doc_id_rows()] == DOCS
        assert values(db, "$.num") == list(range(10))

    def test_oson_mode_handles_are_oson(self):
        db, table = collection(binary=True)
        assert [oson.decode(row["jdoc"]) for _doc_id, row in table.doc_id_rows()] == DOCS
        assert values(db, "$.num") == list(range(10))

    def test_modes_agree_on_query_results(self):
        text, _ = collection()
        binary, _ = collection(binary=True)
        for path in ("$.str1", "$.num", "$.nested_obj.str", "$.missing"):
            assert values(text, path) == values(binary, path)

    def test_vc_mode_vectors(self):
        _, _, imc = vc_collection()
        assert imc.column("nb", "num").to_list() == list(range(10))
        assert imc.column("nb", "str1").to_list() == [d["str1"] for d in DOCS]

    def test_vc_vector_matches_operator_extraction(self):
        _, _, imc = vc_collection()
        expected = [json_value(d, "$.dyn1", returning="number") for d in DOCS]
        assert imc.column("nb", "dyn1").to_list() == expected
        assert expected[1] is None  # RETURNING NUMBER nulls string dyn1

    def test_vc_unpopulated_path_rejected(self):
        _, _, imc = vc_collection(columns=["num"])
        with pytest.raises(CatalogError):
            imc.column("nb", "str1")

    def test_vc_paths_only_in_vc_mode(self):
        _, table = collection(binary=True)
        assert table.column_names == ["id", "jdoc"]
        assert add_vc_columns(table) == VC_NAMES
        assert all(table.column(name).is_virtual for name in VC_NAMES)

    def test_unpopulated_access_rejected(self):
        _, table = collection(binary=True)
        add_vc_columns(table)
        with pytest.raises(CatalogError):
            IMCStore().column("nb", "num")

    def test_document_at(self):
        for binary, decode in ((False, loads), (True, oson.decode)):
            db, _ = collection(binary)
            [row] = execute_sql(db, "SELECT jdoc FROM nb WHERE id = 3")
            assert decode(row["jdoc"]) == DOCS[3]

    def test_selection_to_indexes(self):
        # a predicate on a populated virtual column selects from vectors
        db, _, _ = vc_collection()
        sql = "SELECT id FROM nb WHERE num >= 8"
        assert compile_sql(db, sql).explain().startswith("IMC SCAN nb")
        assert execute_sql(db, sql) == [{"id": 8}, {"id": 9}]

    def test_memory_accounting(self):
        _, text = collection()
        _, binary = collection(binary=True)
        _, vc, imc = vc_collection()
        assert text.storage_bytes() > 0
        assert binary.storage_bytes() > 0
        # virtual columns take no heap bytes; their vectors live in the IMC
        assert vc.storage_bytes() == binary.storage_bytes()
        assert imc.memory_bytes() > 0

    def test_len(self):
        for binary in (False, True):
            assert len(collection(binary)[1]) == 10
