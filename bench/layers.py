"""Per-layer microbenchmarks: timed calls into each layer's public
functions on the same generated inputs as the workload being traced.

A layer is a module of ``repro``.  Each call group runs inside one
benchmark-owned span named ``<layer>:<metric>``; the metric is computed
from the time spent in the calls themselves (preparing fresh arguments
between repetitions is inside the span but not in the figure).  ``PREDICTIONS`` records, for every
per-layer metric, which end-to-end metric it should move and on which
workload — written down before any measurement (see ``bench/README.md``
for where each should stay flat).
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import oson
from repro.core.dataguide.builder import DataGuideBuilder
from repro.core.oson import OsonDocument, navigate
from repro.engine import CLOB, Column, Database, NUMBER, Query, Table, expr
from repro.engine import executor
from repro.imc import IMCStore, kernels
from repro.imc.columns import ColumnVector
from repro.imc.segments import decode_column_segment, encode_column_segment
from repro.index.inverted import InvertedIndex
from repro.jsontext import dumps, loads, tokenize
from repro.serve import Server
from repro.sqljson import ColumnDef, JsonTable, NestedPath, json_value
from repro.sqljson.path import parse_path
from repro.sqljson.path.compiler import compile_nav
from repro.storage import CollectionStore
from repro.storage.files import MemoryFileSystem
from repro.workloads.purchase_orders import po_item_dmdv_json_table

from bench.spans import SpanLog
from bench.tracefs import TraceFS
from bench.workloads import Inputs

SAMPLE_DOCUMENTS = 200
VECTOR_ROWS = 65536

#: per-layer metric -> the (end-to-end metric, workload) pairs it is
#: predicted to move
PREDICTIONS: Dict[str, str] = {
    "jsontext.tokenize_us_per_kb": "stmt_p50_ms@olap_sharded, commit_p50_ms@ingest_mixed",
    "jsontext.loads_us_per_kb": "stmt_p50_ms@olap_sharded, commit_p50_ms@ingest_mixed",
    "jsontext.dumps_us_per_kb": "commit_p50_ms@ingest_mixed",
    "oson.encode_us_per_doc": "commits_per_s@ingest_mixed",
    "oson.decode_us_per_doc": "stmt_p50_ms@olap_cold, recovery_p50_ms@ingest_mixed",
    "oson.navigate_us_per_path": "stmt_p50_ms@olap_cold",
    "oson.bytes_per_json_byte": "space_amp@ingest_mixed",
    "oson.document.decodes_per_stmt": "stmt_p50_ms@olap_cold",
    "oson.navigate.chain_walks_per_stmt": "stmt_p50_ms@olap_cold",
    "dataguide.add_us_per_doc": "commit_p50_ms@ingest_mixed, recovery_p50_ms@ingest_mixed",
    "dataguide.merge_us": "recovery_p50_ms@ingest_mixed",
    "index.add_us_per_doc": "commit_p50_ms@ingest_mixed",
    "index.lookup_us": "commit_p50_ms@ingest_mixed",
    "sqljson.path_compile_us": "setup_s@imc_analytics",
    "sqljson.json_value_us_per_doc": "setup_s@imc_analytics, stmt_p50_ms@olap_cold",
    "sqljson.json_table_oson_rows_per_s": "stmt_p50_ms@olap_cold",
    "sqljson.json_table_text_rows_per_s": "stmt_p50_ms@olap_sharded",
    "sqljson.jsontable.docs_expanded_per_row_out": "stmt_p50_ms@olap_cold, stmt_p50_ms@olap_sharded",
    "sqljson.path.dom_fallbacks": "stmt_p50_ms@olap_cold",
    "sqljson.oson_adapter.hit_rate": "stmt_p50_ms@olap_hot, stmt_p50_ms@olap_cold",
    "sqljson.jsontable_rows.hit_rate": "stmt_p50_ms@olap_hot, stmt_p50_ms@olap_cold",
    "engine.plan_us": "stmt_p50_ms@olap_hot",
    "engine.expr_compile_us": "stmt_p50_ms@olap_hot",
    "engine.filter_morsel_rows_per_s": "stmt_p50_ms@imc_analytics, stmt_p50_ms@olap_hot",
    "engine.group_by_morsel_rows_per_s": "stmts_per_s@imc_analytics, stmt_p50_ms@olap_hot",
    "engine.hash_join_morsel_rows_per_s": "stmt_p50_ms@imc_analytics",
    "engine.sort_rows_per_s": "stmt_p50_ms@olap_hot",
    "engine.scatter.partial_fold_us": "stmt_p50_ms@olap_sharded",
    "engine.scatter.shards_scanned_per_stmt": "stmt_p50_ms@olap_sharded, stmt_p50_ms@ingest_mixed",
    "engine.scatter.shards_pruned_per_stmt": "stmt_p50_ms@olap_sharded, stmt_p50_ms@ingest_mixed",
    "engine.morsel.batches_per_stmt": "stmt_p50_ms@imc_analytics",
    "imc.kernel_compare_mrows_per_s": "stmt_p50_ms@imc_analytics",
    "imc.kernel_group_sum_mrows_per_s": "stmt_p50_ms@imc_analytics",
    "imc.kernel_starts_with_mrows_per_s": "stmt_p50_ms@imc_analytics",
    "imc.scan_rows_per_s": "stmt_p50_ms@imc_analytics",
    "imc.populate_us_per_doc": "setup_s@imc_analytics",
    "imc.segment_encode_mb_per_s": "setup_s@imc_analytics",
    "imc.segment_decode_mb_per_s": "cold_start_p50_ms@imc_analytics",
    "imc.columns_read_per_stmt": "stmt_p50_ms@imc_analytics",
    "imc.resident_bytes": "peak_rss_mb@imc_analytics",
    "imc.segment_quarantines": "cold_start_p50_ms@imc_analytics",
    "storage.wal_append_us_per_commit": "commit_p50_ms@ingest_mixed",
    "storage.fsync_p50_ms": "commit_p50_ms@ingest_mixed",
    "storage.commit_p90_ms": "commit_p50_ms@ingest_mixed",
    "storage.commit.mean_batch_ops": "commits_per_s@ingest_mixed",
    "storage.commit.wait_ms_per_commit": "commit_p50_ms@ingest_mixed",
    "storage.snapshot_us": "stmt_p50_ms@ingest_mixed",
    "storage.checkpoint_ms": "commits_per_s@ingest_mixed",
    "storage.compact_ms": "commits_per_s@ingest_mixed",
    "storage.compact_bytes_rewritten": "write_amp@ingest_mixed",
    "storage.stall_ms_total": "commits_per_s@ingest_mixed",
    "storage.recovery_records_per_s": "recovery_p50_ms@ingest_mixed, cold_start_p50_ms@imc_analytics",
    "storage.fs.writes": "write_amp@ingest_mixed",
    "storage.fs.bytes_written": "write_amp@ingest_mixed",
    "storage.fs.syncs": "commit_p50_ms@ingest_mixed",
    "serve.empty_stmt_us": "stmt_p50_ms@olap_hot, stmt_p50_ms@ingest_mixed",
    "serve.statements": "stmts_per_s@olap_hot",
    "serve.refused": "stmts_per_s@olap_hot",
    "serve.query.timeouts": "stmts_per_s@olap_hot",
    "obs.trace_overhead_pct": "stmts_per_s@every workload (reported, not gated)",
    "obs.attributed_share": "none (reported, not gated)",
}


#: what the counters of a traced window should show today — printed as
#: checks, not enforced: (metric, comparison, value) per workload
EXPECTATIONS: Dict[str, List[Tuple[str, str, float]]] = {
    "olap_hot": [("sqljson.oson_adapter.hit_rate", ">=", 0.9),
                 ("sqljson.jsontable_rows.hit_rate", ">=", 0.9)],
    # two interleaved scans find some of each other's adapter entries
    "olap_cold": [("sqljson.oson_adapter.hit_rate", "<=", 0.5),
                  ("sqljson.jsontable_rows.hit_rate", "<=", 0.25)],
    "imc_analytics": [
        ("sqljson.jsontable.docs_expanded_per_row_out", "<=", 0.0),
        ("oson.document.decodes_per_stmt", "<=", 0.0),
        ("oson.navigate.chain_walks_per_stmt", "<=", 0.0)],
}


class _Shape:
    """What the microbenchmarks need to know about a document kind."""

    def __init__(self, documents: List[dict]) -> None:
        if "purchaseOrder" in documents[0]:
            self.scalar_path = "$.purchaseOrder.reference"
            self.array_path = "$.purchaseOrder.items[*].partno"
            self.json_table = po_item_dmdv_json_table()
            self.flat = [
                {"grp": doc["purchaseOrder"]["costcenter"],
                 "s": item["partno"], "n": item["quantity"],
                 "f": item["unitprice"]}
                for doc in documents
                for item in doc["purchaseOrder"]["items"]]
        else:
            self.scalar_path = "$.nested_obj.str"
            self.array_path = "$.nested_arr[*]"
            self.json_table = JsonTable("$", [
                ColumnDef("str1", "varchar2(32)", "$.str1"),
                ColumnDef("num", "number", "$.num"),
                NestedPath("$.nested_arr[*]",
                           [ColumnDef("elem", "varchar2(32)", "$")])])
            self.flat = [
                {"grp": f"g{doc['thousandth'] % 16}", "s": doc["str1"],
                 "n": doc["num"], "f": doc["num"] / 3.0}
                for doc in documents]


def measure(inputs: Inputs, log: SpanLog, budget_seconds: float,
            scratch: str) -> Dict[str, float]:
    """Every timed per-layer metric, each from one span.  ``scratch``
    is a directory for the one store kept on real files."""
    documents = inputs.documents[:SAMPLE_DOCUMENTS]
    n = len(documents)
    shape = _Shape(documents)
    texts = [dumps(doc) for doc in documents]
    images = [oson.encode(doc) for doc in documents]
    text_bytes = sum(len(text.encode("utf-8")) for text in texts)
    kib = text_bytes / 1024.0
    decoded = [OsonDocument(image) for image in images]
    programs = [compile_nav(parse_path(path))
                for path in (shape.scalar_path, shape.array_path)]

    def fresh_images() -> List[bytes]:
        # new objects: the identity caches have never seen them, so the
        # timed call pays the uncached route every repetition
        return [bytes(bytearray(image)) for image in images]

    flat = shape.flat
    rows = (flat * (4096 // len(flat) + 1))[:4096]
    dimension = [{"grp": key, "label": key.lower()}
                 for key in sorted({row["grp"] for row in rows})]
    plain = Table("layer_rows", [Column("grp", CLOB), Column("s", CLOB),
                                 Column("n", NUMBER), Column("f", NUMBER)])
    plain.insert_many(rows)
    middle = sorted(row["n"] for row in rows)[len(rows) // 2]
    predicate = lambda: expr.And(expr.Col("n") > middle,  # noqa: E731
                                 expr.Col("grp") == rows[0]["grp"])
    keys = [("grp", expr.Col("grp"))]
    aggregates = [("total", expr.SUM(expr.Col("f"))), ("c", expr.COUNT())]
    quarters = [rows[i::4] for i in range(4)]

    tiled = (flat * (VECTOR_ROWS // len(flat) + 1))[:VECTOR_ROWS]
    numbers = ColumnVector.from_values("f", [row["f"] for row in tiled])
    groups = ColumnVector.from_values("grp", [row["grp"] for row in tiled])
    strings = ColumnVector.from_values("s", [row["s"] for row in tiled])
    prefix = tiled[0]["s"][:2]
    ids = list(range(VECTOR_ROWS))
    number_values = [row["f"] for row in tiled]
    string_values = [row["s"] for row in tiled]
    segments = [encode_column_segment("t", "f", ids, number_values),
                encode_column_segment("t", "s", ids, string_values)]
    segment_mb = sum(len(s) for s in segments) / 1e6

    def text_table() -> Table:
        table = Table("layer_docs", [Column("id", NUMBER),
                                     Column("jdoc", CLOB)])
        table.add_column(Column("v", CLOB, expression=expr.JsonValueExpr(
            "jdoc", shape.scalar_path)))
        table.insert_many([{"id": i, "jdoc": text}
                           for i, text in enumerate(texts)])
        return table

    def populated() -> Tuple[IMCStore, Table]:
        imc = IMCStore()
        imc.populate(plain, ["n", "f"])
        return imc, plain

    index = InvertedIndex()
    guide_builders = [DataGuideBuilder(), DataGuideBuilder()]
    for i, doc in enumerate(documents):
        index.add_document(i, doc)
        guide_builders[i % 2].add(doc)
    guides = [builder.guide() for builder in guide_builders]

    store = CollectionStore.create("/layer", MemoryFileSystem())
    device = TraceFS()
    on_disk = CollectionStore.create(os.path.join(scratch, "layer-store"),
                                     device)
    db = Database()
    db.create_table("empty", [Column("id", NUMBER)]).insert({"id": 1})
    server = Server(db, read_workers=2, write_workers=1)
    session = server.session()

    def consume(iterable: Any) -> None:
        for _ in iterable:
            pass

    def each(fn: Callable[[Any], Any], items: List[Any]) -> None:
        for item in items:
            fn(item)

    # (metric, unit, work units per call, prepare or None, call)
    # unit "us": microseconds per work unit; "per_s": work units per
    # second; "m_per_s": millions of work units per second; "fsync":
    # the median fsync of the store on real files, in milliseconds
    benches: List[Tuple[str, str, float, Optional[Callable], Callable]] = [
        ("jsontext.tokenize_us_per_kb", "us", kib, None,
         lambda _: each(lambda t: consume(tokenize(t)), texts)),
        ("jsontext.loads_us_per_kb", "us", kib, None,
         lambda _: each(loads, texts)),
        ("jsontext.dumps_us_per_kb", "us", kib, None,
         lambda _: each(dumps, documents)),
        ("oson.encode_us_per_doc", "us", n, None,
         lambda _: each(oson.encode, documents)),
        ("oson.decode_us_per_doc", "us", n, None,
         lambda _: each(oson.decode, images)),
        ("oson.navigate_us_per_path", "us", 2 * n, None,
         lambda _: [navigate(doc, program)
                    for doc in decoded for program in programs]),
        ("dataguide.add_us_per_doc", "us", n, DataGuideBuilder,
         lambda builder: each(builder.add, documents)),
        ("dataguide.merge_us", "us", 1, None,
         lambda _: guides[0].merge(guides[1])),
        ("index.add_us_per_doc", "us", n, InvertedIndex,
         lambda fresh: [fresh.add_document(i, doc)
                        for i, doc in enumerate(documents)]),
        ("index.lookup_us", "us", 2, None,
         lambda _: (index.docs_with_path(shape.scalar_path),
                    index.docs_with_token(tiled[0]["s"]))),
        ("sqljson.path_compile_us", "us", 2, None,
         lambda _: [compile_nav(parse_path(path))
                    for path in (shape.scalar_path, shape.array_path)]),
        ("sqljson.json_value_us_per_doc", "us", n, fresh_images,
         lambda fresh: [json_value(image, shape.scalar_path)
                        for image in fresh]),
        ("sqljson.json_table_oson_rows_per_s", "per_s", len(flat),
         fresh_images,
         lambda fresh: each(shape.json_table.rows, fresh)),
        ("sqljson.json_table_text_rows_per_s", "per_s", len(flat), None,
         lambda _: each(shape.json_table.rows, texts)),
        ("engine.plan_us", "us", 1, None,
         lambda _: Query(plain).where(predicate()).group_by(
             ["grp"], total=expr.SUM(expr.Col("f"))).explain()),
        ("engine.expr_compile_us", "us", 1, None,
         lambda _: predicate().compiled()),
        ("engine.filter_morsel_rows_per_s", "per_s", len(rows), None,
         lambda _: consume(executor.filter_rows_morsel(rows, predicate()))),
        ("engine.group_by_morsel_rows_per_s", "per_s", len(rows), None,
         lambda _: consume(executor.group_by_morsel(rows, keys,
                                                    aggregates))),
        ("engine.hash_join_morsel_rows_per_s", "per_s", len(rows), None,
         lambda _: consume(executor.hash_join_morsel(rows, dimension,
                                                     "grp", "grp"))),
        ("engine.sort_rows_per_s", "per_s", len(rows), None,
         lambda _: executor.sort(rows, [(expr.Col("n"), False)])),
        ("engine.scatter.partial_fold_us", "us", 1, None,
         lambda _: consume(executor.finalize_groups(
             executor.gather_group_partials(
                 [executor.partial_group_by(part, keys, aggregates)
                  for part in quarters], aggregates), keys, aggregates))),
        ("imc.kernel_compare_mrows_per_s", "m_per_s", VECTOR_ROWS, None,
         lambda _: kernels.compare(numbers, ">", number_values[0])),
        ("imc.kernel_group_sum_mrows_per_s", "m_per_s", VECTOR_ROWS, None,
         lambda _: kernels.group_by_sum(groups, numbers)),
        ("imc.kernel_starts_with_mrows_per_s", "m_per_s", VECTOR_ROWS, None,
         lambda _: kernels.starts_with(strings, prefix)),
        ("imc.scan_rows_per_s", "per_s", len(rows), populated,
         lambda pair: pair[0].scan_rows(pair[1], ["n", "f"])),
        ("imc.populate_us_per_doc", "us", n, text_table,
         lambda table: IMCStore().populate(table, ["v"])),
        ("imc.segment_encode_mb_per_s", "per_s", segment_mb, None,
         lambda _: (encode_column_segment("t", "f", ids, number_values),
                    encode_column_segment("t", "s", ids, string_values))),
        ("imc.segment_decode_mb_per_s", "per_s", segment_mb, None,
         lambda _: each(decode_column_segment, segments)),
        ("storage.wal_append_us_per_commit", "us", n, None,
         lambda _: each(store.insert, documents)),
        ("storage.fsync_p50_ms", "fsync", n, None,
         lambda _: each(on_disk.insert, documents)),
        ("storage.snapshot_us", "us", 1, None,
         lambda _: store.snapshot()),
        ("serve.empty_stmt_us", "us", 1, None,
         lambda _: session.execute("SELECT id FROM empty WHERE id = ?",
                                   [-1]).fetchall()),
    ]

    values: Dict[str, float] = {
        "oson.bytes_per_json_byte":
            sum(len(image) for image in images) / text_bytes}
    slot = budget_seconds / len(benches)
    try:
        for metric, unit, work, prepare, call in benches:
            layer = metric.split(".", 1)[0]
            repetitions, busy = 0, 0.0
            deadline = time.perf_counter() + slot
            with log.span(f"{layer}:{metric}"):
                while True:
                    argument = prepare() if prepare else None
                    start = time.perf_counter()
                    call(argument)
                    busy += time.perf_counter() - start
                    repetitions += 1
                    if time.perf_counter() >= deadline:
                        break
            done = work * repetitions
            values[metric] = {"us": busy * 1e6 / done,
                              "per_s": done / busy,
                              "m_per_s": done / busy / 1e6,
                              # the device alone: nothing else runs, so
                              # no wait for the interpreter lock is in it
                              "fsync": median(device.sync_seconds) * 1e3,
                              }[unit]
    finally:
        session.close()
        server.close()
        store.close()
        on_disk.close()
    return values
