"""Tests for the NOBENCH generator and its SQL statements."""

import pytest

from repro.core import oson
from repro.engine import Database
from repro.engine.sql import compile_sql, execute_sql
from repro.imc import IMCStore
from repro.jsontext import loads
from repro.workloads.nobench import (
    NobenchGenerator,
    SPARSE_FIELD_COUNT,
    SPARSE_PER_DOCUMENT,
    add_vc_columns,
    load_nobench,
    nobench_sql,
    vc_sql,
)

N = 400


class TestGenerator:
    def test_deterministic(self):
        a = NobenchGenerator(seed=1).document(5)
        b = NobenchGenerator(seed=1).document(5)
        assert a == b

    def test_common_fields(self):
        doc = NobenchGenerator().document(3)
        for field in ("str1", "str2", "num", "bool", "dyn1", "dyn2",
                      "nested_obj", "nested_arr", "thousandth"):
            assert field in doc
        assert doc["num"] == 3
        assert doc["thousandth"] == 3

    def test_sparse_fields_per_document(self):
        doc = NobenchGenerator().document(0)
        sparse = [k for k in doc if k.startswith("sparse_")]
        assert len(sparse) == SPARSE_PER_DOCUMENT

    def test_sparse_space_covered(self):
        docs = list(NobenchGenerator().documents(SPARSE_FIELD_COUNT // SPARSE_PER_DOCUMENT))
        seen = set()
        for doc in docs:
            seen.update(k for k in doc if k.startswith("sparse_"))
        assert len(seen) == SPARSE_FIELD_COUNT

    def test_dynamic_typing(self):
        generator = NobenchGenerator()
        assert isinstance(generator.document(4)["dyn1"], int)
        assert isinstance(generator.document(5)["dyn1"], str)

    def test_homogeneous_documents_identical_structure(self):
        docs = list(NobenchGenerator().homogeneous_documents(10))
        keys = set(frozenset(d) for d in docs)
        assert len(keys) == 1

    def test_heterogeneous_documents_unique_fields(self):
        docs = list(NobenchGenerator().heterogeneous_documents(10))
        uniques = [k for d in docs for k in d if k.startswith("unique_")]
        assert len(set(uniques)) == 10


DOCS = list(NobenchGenerator().documents(N))
SQL = nobench_sql(N)
#: NOBENCH's 0.1 % range width at N documents
SPAN = max(N // 1000, 1)


@pytest.fixture(scope="module")
def databases():
    """TEXT, OSON-IMC and VC-IMC setups of the same documents."""
    databases = {"text": Database(), "oson": Database(), "vc": Database()}
    load_nobench(databases["text"], DOCS)
    load_nobench(databases["oson"], DOCS, binary=True)
    table = load_nobench(databases["vc"], DOCS, binary=True)
    IMCStore().populate(table, add_vc_columns(table))
    return databases


@pytest.fixture(scope="module")
def oson_db(databases):
    return databases["oson"]


def run(db, qid):
    return execute_sql(db, SQL[qid])


def decoded(rows):
    """Rows with ``jdoc`` as a JSON value, whatever the storage mode."""
    def value(jdoc):
        return oson.decode(jdoc) if isinstance(jdoc, bytes) else loads(jdoc)
    return [{**row, "jdoc": value(row["jdoc"])} if "jdoc" in row else row
            for row in rows]


class TestQueries:
    def test_q1_projects_all(self, oson_db):
        result = run(oson_db, "q1")
        assert len(result) == N
        assert result[5] == {"str1": DOCS[5]["str1"], "num": 5}

    def test_q2_nested_projection(self, oson_db):
        result = run(oson_db, "q2")
        assert len(result) == N
        assert result[3]["num"] == 3  # nested_obj.num == i

    def test_q3_q4_sparse_projection(self, oson_db):
        assert 0 < len(run(oson_db, "q3")) < N
        assert 0 < len(run(oson_db, "q4")) < N

    def test_q5_point_lookup(self, oson_db):
        [row] = decoded(run(oson_db, "q5"))
        assert row == {"id": N // 2, "jdoc": DOCS[N // 2]}

    def test_q6_range(self, oson_db):
        low = N // 3
        result = [row["v"] for row in run(oson_db, "q6")]
        assert result == list(range(low, low + SPAN))

    def test_q7_dynamic_range(self, oson_db):
        low = N // 4
        result = [row["v"] for row in run(oson_db, "q7")]
        # only even docs have numeric dyn1
        assert result == [v for v in range(low, low + SPAN) if v % 2 == 0]

    def test_q8_array_membership(self, oson_db):
        needle = DOCS[N // 5]["str1"]
        ids = [row["id"] for row in run(oson_db, "q8")]
        assert ids
        assert ids == [i for i, d in enumerate(DOCS)
                       if needle in d["nested_arr"]]

    def test_q9_sparse_predicate(self, oson_db):
        result = decoded(run(oson_db, "q9"))
        assert result
        assert result == [{"id": i, "jdoc": d} for i, d in enumerate(DOCS)
                          if "sparse_550" in d]

    def test_q10_groupby_sum(self, oson_db):
        result = run(oson_db, "q10")
        assert len(result) == min(N, 1000)
        assert sum(row["total"] for row in result) == sum(range(N))

    def test_q11_self_join(self, oson_db):
        # nested_obj.str == str1 of the same document by construction
        assert run(oson_db, "q11") == [{"matches": N}]


class TestModeParity:
    """All three modes return identical rows (Figures 5/6 compare time,
    not answers)."""

    def test_text_vs_oson(self, databases):
        for qid in SQL:
            assert (decoded(run(databases["text"], qid))
                    == decoded(run(databases["oson"], qid))), qid

    def test_oson_vs_vc(self, databases):
        for qid in SQL:
            expected = decoded(run(databases["oson"], qid))
            assert decoded(run(databases["vc"], qid)) == expected, qid
        # the statements spelled over the virtual columns answer the same
        for qid, sql in vc_sql(N).items():
            assert (execute_sql(databases["vc"], sql)
                    == run(databases["oson"], qid)), qid

    def test_vc_uses_vectors(self, databases):
        imc = databases["vc"].table("nb").imc
        for name in ("str1", "num", "dyn1"):
            assert imc.is_populated("nb", name)
        for qid in ("q6", "q7"):
            plan = compile_sql(databases["vc"], vc_sql(N)[qid]).explain()
            assert plan.startswith("IMC SCAN nb")
