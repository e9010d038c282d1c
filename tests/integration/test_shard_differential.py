"""Sharded vs unsharded differential parity (ISSUE 8).

The contract: sharding is a physical layout choice, never a semantic
one.  For any query the sharded scatter-gather plan must produce the
same multiset of rows as the single-stream plan — including the
Figure 3 OLAP query set over JSON_TABLE views at 1/2/4 shards — raise
the same errors, and a crashed shard must recover with the exact same
report contract (``cut_batches``) a standalone store would emit.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import oson
from repro.engine import CLOB, Column, Database, NUMBER, Query, expr
from repro.engine.sql import execute_sql
from repro.engine.types import BLOB
from repro.errors import QueryError
from repro.jsontext import dumps
from repro.storage.files import MemoryFileSystem
from repro.storage.shard import routing_hash
from repro.storage.store import CollectionStore
from repro.workloads.purchase_orders import (
    PoOlapQueries,
    PoQueryParams,
    PurchaseOrderGenerator,
    build_po_views,
)

N_DOCUMENTS = 96
SHARD_COUNTS = (1, 2, 4)
QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"]


def _normalize(value):
    """Floats round to 6 decimals: scatter-gather regroups float
    summation per shard, and fp addition is not associative — equality
    is modulo the last ulps, nothing else."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


def canon(result):
    """Order-insensitive comparison form ("byte-identical modulo row
    order"): every row serialized canonically, then sorted.  Scalar
    results (some OLAP queries return one value) compare directly."""
    if not isinstance(result, list):
        return _normalize(result)
    return sorted(json.dumps(_normalize(row), sort_keys=True,
                             default=repr)
                  for row in result)


def run_olap(queries, params, qid):
    runners = {
        "q1": lambda: queries.q1(params.reference),
        "q2": queries.q2,
        "q3": lambda: queries.q3(params.partno),
        "q4": lambda: queries.q4(params.requestor, 2, 50.0),
        "q5": lambda: queries.q5(params.partnos),
        "q6": lambda: queries.q6(params.partno),
        "q7": queries.q7,
        "q8": lambda: queries.q8(10, 400.0),
        "q9": queries.q9,
    }
    return runners[qid]()


@pytest.fixture(scope="module")
def documents():
    return list(PurchaseOrderGenerator().documents(N_DOCUMENTS))


@pytest.fixture(scope="module")
def baseline(documents):
    """The unsharded reference: an in-memory table + the PO views."""
    db = Database()
    table = db.create_table("po", [Column("did", NUMBER),
                                   Column("jdoc", CLOB)])
    for i, doc in enumerate(documents):
        table.insert({"did": i, "jdoc": dumps(doc)})
    mv, dmdv = build_po_views(db, table, "jdoc", "base")
    return PoOlapQueries(mv, dmdv), PoQueryParams(documents)


#: JSON column storage: (SQL type, encoder).  An OSON ``BLOB`` reaches
#: the shard guides as a ``{"$raw": <hex>}`` wrapper — an object the
#: guide cannot see into — so pruning on it must be off (known gap G1:
#: every shard was pruned and q3-q6/q8 came back empty)
ENCODINGS = {"text": (CLOB, dumps), "oson": (BLOB, oson.encode)}


def sharded_queries(documents, shards, encoding="text"):
    sql_type, encode = ENCODINGS[encoding]
    fs = MemoryFileSystem()
    db = Database()
    table = db.create_table(
        "po", [Column("did", NUMBER), Column("jdoc", sql_type)],
        durable="/po", fs=fs, shards=shards, routing_field="did")
    table.insert_many([{"did": i, "jdoc": encode(doc)}
                       for i, doc in enumerate(documents)])
    mv, dmdv = build_po_views(db, table, "jdoc", f"s{shards}")
    return PoOlapQueries(mv, dmdv), table


class TestFigure3Parity:
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_olap_suite_matches_unsharded(self, documents, baseline,
                                          shards, encoding):
        reference, params = baseline
        queries, table = sharded_queries(documents, shards, encoding)
        try:
            for qid in QUERIES:
                expected = canon(run_olap(reference, params, qid))
                actual = canon(run_olap(queries, params, qid))
                assert actual == expected, (qid, shards, encoding)
        finally:
            table.close()

    def test_survives_reopen(self, documents, baseline):
        """The parity holds over rows restored through recovery, not
        just freshly inserted ones."""
        reference, params = baseline
        fs = MemoryFileSystem()
        db = Database()
        table = db.create_table(
            "po", [Column("did", NUMBER), Column("jdoc", CLOB)],
            durable="/po", fs=fs, shards=2, routing_field="did")
        table.insert_many([{"did": i, "jdoc": dumps(doc)}
                           for i, doc in enumerate(documents)])
        table.close()

        db2 = Database()
        reopened = db2.create_table(
            "po", [Column("did", NUMBER), Column("jdoc", CLOB)],
            durable="/po", fs=fs, shards=2, routing_field="did")
        mv, dmdv = build_po_views(db2, reopened, "jdoc", "re")
        queries = PoOlapQueries(mv, dmdv)
        try:
            for qid in QUERIES:
                assert canon(run_olap(queries, params, qid)) == canon(
                    run_olap(reference, params, qid)), qid
        finally:
            reopened.close()


class TestDataGuideAggParity:
    """JSON_DATAGUIDEAGG over a sharded table gathers the per-shard
    partial guides into exactly the unsharded guide."""

    SQL = "SELECT JSON_DATAGUIDEAGG(jdoc) AS dg FROM po"

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_unsharded(self, documents, shards, encoding):
        sql_type, encode = ENCODINGS[encoding]
        columns = [Column("did", NUMBER), Column("jdoc", sql_type)]
        rows = [{"did": i, "jdoc": encode(doc)}
                for i, doc in enumerate(documents)]
        reference = Database()
        reference.create_table("po", columns).insert_many(rows)
        expected = execute_sql(reference, self.SQL)[0]["dg"]

        db = Database()
        table = db.create_table("po", columns, durable="/po",
                                fs=MemoryFileSystem(), shards=shards,
                                routing_field="did")
        try:
            table.insert_many(rows)
            actual = execute_sql(db, self.SQL)[0]["dg"]
        finally:
            table.close()
        assert actual.document_count == expected.document_count == N_DOCUMENTS
        assert actual.as_flat() == expected.as_flat()


row_lists = st.lists(
    st.fixed_dictionaries({
        "k": st.sampled_from(["a", "b", "c"]),
        "v": st.one_of(st.none(),
                       st.integers(min_value=-100, max_value=100)),
    }), max_size=18)


class TestPropertyParity:
    @settings(max_examples=25, deadline=None)
    @given(rows=row_lists, pivot=st.integers(min_value=-50, max_value=50),
           shards=st.sampled_from([1, 2, 4]))
    def test_filter_group_by(self, rows, pivot, shards):
        table = self._table(rows, shards)
        try:
            def shape(query):
                return (query.where(expr.Col("v") >= pivot)
                        .group_by(["k"], total=expr.SUM(expr.Col("v")),
                                  n=expr.COUNT())
                        .rows())
            assert canon(shape(Query(table))) == canon(shape(Query(
                [dict(row) for row in rows])))
        finally:
            table.close()

    @settings(max_examples=25, deadline=None)
    @given(rows=row_lists, key=st.sampled_from(["a", "b", "c", "zz"]))
    def test_routing_equality(self, rows, key):
        """Equality on the routing field prunes to the home shard and
        must still return exactly the unsharded rows."""
        table = self._table(rows, 2, routing_field="k")
        try:
            sharded = Query(table).where(expr.Col("k") == key).rows()
            flat = [dict(r) for r in rows if r["k"] == key]
            assert canon(sharded) == canon(flat)
        finally:
            table.close()

    @staticmethod
    def _table(rows, shards, routing_field=None):
        db = Database()
        table = db.create_table(
            "t", [Column("k", CLOB), Column("v", NUMBER)],
            durable="/t", fs=MemoryFileSystem(), shards=shards,
            routing_field=routing_field)
        if rows:
            table.insert_many([dict(row) for row in rows])
        return table


class TestErrorParity:
    """The scatter path must surface the same exception the
    single-stream path would — a worker failure is the query's
    failure, not a shard's."""

    ROWS = [{"k": "a", "v": 2}, {"k": "b", "v": 0},
            {"k": "c", "v": 5}, {"k": "d", "v": 7}]

    def _both(self, build):
        db = Database()
        table = db.create_table(
            "t", [Column("k", CLOB), Column("v", NUMBER)],
            durable="/t", fs=MemoryFileSystem(), shards=2)
        table.insert_many([dict(row) for row in self.ROWS])
        try:
            flat_error = sharded_error = None
            try:
                build(Query([dict(r) for r in self.ROWS])).rows()
            except Exception as exc:  # lint: ignore[broad-except] the exception type is the assertion
                flat_error = exc
            try:
                build(Query(table)).rows()
            except Exception as exc:  # lint: ignore[broad-except] the exception type is the assertion
                sharded_error = exc
            return flat_error, sharded_error
        finally:
            table.close()

    def test_unknown_column(self):
        flat, sharded = self._both(
            lambda q: q.where(expr.Col("nope") > 1))
        assert isinstance(flat, QueryError)
        assert type(sharded) is type(flat)
        assert str(sharded) == str(flat)

    def test_runtime_evaluation_error(self):
        reciprocal = expr.Arithmetic("/", expr.Literal(1), expr.Col("v"))
        flat, sharded = self._both(
            lambda q: q.group_by(["k"], r=expr.SUM(reciprocal)))
        assert isinstance(flat, ZeroDivisionError)
        assert type(sharded) is type(flat)


class TestCrashedShardRecovery:
    """Tearing one shard's WAL must produce the standalone store's
    report contract, scoped to that shard, with every other shard's
    rows intact."""

    ROWS = [{"k": region, "v": i} for i, region in enumerate(
        ["eu", "us", "ap", "eu", "us", "ap", "eu", "us"])]
    TEAR = 7

    def _torn_sharded(self, fs):
        db = Database()
        table = db.create_table(
            "t", [Column("k", CLOB), Column("v", NUMBER)],
            durable="/t", fs=fs, shards=2, routing_field="k")
        table.insert_many([dict(row) for row in self.ROWS])
        table.close()
        self._tear(fs, self._active_wal(fs, "/t/shard-01"))

    @staticmethod
    def _active_wal(fs, directory):
        name = max(n for n in fs.listdir(directory)
                   if n.startswith("log-"))
        return f"{directory}/{name}"

    @classmethod
    def _tear(cls, fs, path):
        data = fs.read_bytes(path)
        handle = fs.create(path)
        handle.write(data[:len(data) - cls.TEAR])
        handle.close()

    def shard1_rows(self):
        return [row for row in self.ROWS
                if routing_hash(row["k"]) % 2 == 1]

    def test_report_contract_matches_standalone(self):
        fs = MemoryFileSystem()
        self._torn_sharded(fs)

        # the same documents, the same tear, in a standalone store
        solo = CollectionStore.create("/solo", fs=fs)
        solo.insert_many([dict(row) for row in self.shard1_rows()])
        solo.close()
        self._tear(fs, self._active_wal(fs, "/solo"))

        sharded = Database().create_table(
            "t", [Column("k", CLOB), Column("v", NUMBER)],
            durable="/t", fs=fs, shards=2, routing_field="k")
        solo_reopened = CollectionStore.open("/solo", fs=fs)
        try:
            report = sharded.recovery
            solo_report = solo_reopened.recovery
            assert len(report.cut_batches) == len(
                solo_report.cut_batches) == 1
            cut, solo_cut = report.cut_batches[0], \
                solo_report.cut_batches[0]
            # identical contract, plus the shard attribution
            assert cut["shard"] == 1
            assert set(cut) == set(solo_cut) | {"shard"}
            for field in ("offset", "expected", "seen"):
                assert cut[field] == solo_cut[field]
            assert not report.quarantined and not solo_report.quarantined
        finally:
            sharded.close()
            solo_reopened.close()

    def test_other_shards_survive_and_store_stays_writable(self):
        fs = MemoryFileSystem()
        self._torn_sharded(fs)
        db = Database()
        table = db.create_table(
            "t", [Column("k", CLOB), Column("v", NUMBER)],
            durable="/t", fs=fs, shards=2, routing_field="k")
        try:
            torn = {row["v"] for row in self.shard1_rows()}
            survivors = {row["v"] for row in table.scan()}
            # shard 0 lost nothing; shard 1 lost at most the torn tail
            assert {row["v"] for row in self.ROWS} - torn <= survivors
            table.insert({"k": "eu", "v": 99})
            assert 99 in {row["v"] for row in table.scan()}
        finally:
            table.close()
