"""Ablation benchmarks for the design decisions of DESIGN.md §4.

Each ablation disables one OSON/engine design choice and measures the
same work both ways, verifying the choice actually pays:

1. sorted-field-id binary search  vs  linear name scan over object items;
2. single-row look-back resolver  vs  per-document dictionary search;
3. lazy offset DOM evaluation     vs  materialize-to-dict then evaluate;
4. JSON_EXISTS predicate pushdown vs  expand-then-filter;
5. shared-dictionary set encoding vs  self-contained documents (memory);
6. the full PR-3 fast path (navigation VM + caches + morsel batching)
   vs the pre-PR configuration (DOM evaluation, cold caches, row mode).
"""

import time

import pytest

from benchmarks.conftest import SCALE, record, report, scaled
from repro.core.oson import (
    CompiledFieldName,
    FieldIdResolver,
    OsonDocument,
    SharedDictionaryStore,
    encode,
)
from repro.core.oson.hashing import field_name_hash
from repro.sqljson.adapters import DictAdapter
from repro.sqljson.operators import json_value
from repro.sqljson.path.evaluator import PathEvaluator
from repro.sqljson.path.parser import compile_path
from repro.workloads.purchase_orders import PurchaseOrderGenerator

N_DOCS = scaled(400)


@pytest.fixture(scope="module")
def documents():
    return list(PurchaseOrderGenerator().documents(N_DOCS))


@pytest.fixture(scope="module")
def oson_docs(documents):
    return [OsonDocument(encode(d)) for d in documents]


# -- 1. binary search vs linear scan ---------------------------------------


def _lookup_binary(doc: OsonDocument, node: int, field_id: int):
    return doc.get_field_value(node, field_id)


def _lookup_linear(doc: OsonDocument, node: int, name: str):
    """The ablated lookup: walk the child array comparing names (what a
    format without sorted integer ids — e.g. BSON — must do)."""
    for field_id, child in doc.object_items(node):
        if doc.field_name(field_id) == name:
            return child
    return None


@pytest.fixture(scope="module")
def wide_object():
    doc = OsonDocument(encode(
        {f"field_{i:03d}": i for i in range(200)}))
    return doc


def test_ablation1_binary_search(benchmark, wide_object):
    doc = wide_object
    targets = [(doc.field_id(f"field_{i:03d}"), f"field_{i:03d}")
               for i in range(0, 200, 7)]

    def run():
        return [_lookup_binary(doc, doc.root, fid) for fid, _n in targets]

    results = benchmark(run)
    assert all(r is not None for r in results)


def test_ablation1_linear_scan(benchmark, wide_object):
    doc = wide_object
    names = [f"field_{i:03d}" for i in range(0, 200, 7)]

    def run():
        return [_lookup_linear(doc, doc.root, n) for n in names]

    results = benchmark(run)
    assert all(r is not None for r in results)


def test_ablation1_shape(benchmark, wide_object):
    doc = wide_object
    names = [f"field_{i:03d}" for i in range(200)]
    ids = [doc.field_id(n) for n in names]
    benchmark.pedantic(lambda: None, rounds=1)  # shape check, not a timing
    start = time.perf_counter()
    for _ in range(20):
        for fid in ids:
            _lookup_binary(doc, doc.root, fid)
    binary = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(20):
        for name in names:
            _lookup_linear(doc, doc.root, name)
    linear = time.perf_counter() - start
    report("Ablation 1 — field lookup on a 200-field object",
           [f"binary search: {binary * 1000:.1f} ms",
            f"linear scan:   {linear * 1000:.1f} ms "
            f"({linear / binary:.1f}x slower)"])
    record("ablation1", "binary_search_ms", binary * 1000)
    record("ablation1", "linear_scan_ms", linear * 1000)
    assert binary < linear


# -- 2. look-back resolver vs per-document search ----------------------------


def test_ablation2_with_lookback(benchmark, oson_docs):
    compiled = CompiledFieldName("purchaseOrder")

    def run():
        resolver = FieldIdResolver()
        return [resolver.resolve(d, compiled) for d in oson_docs]

    ids = benchmark(run)
    assert all(i is not None for i in ids)


def test_ablation2_without_lookback(benchmark, oson_docs):
    name = "purchaseOrder"
    name_hash = field_name_hash(name)

    def run():
        return [d.field_id(name, name_hash) for d in oson_docs]

    ids = benchmark(run)
    assert all(i is not None for i in ids)


def test_ablation2_lookback_hits(benchmark, oson_docs):
    """On a homogeneous collection the look-back skips nearly every
    binary search."""
    benchmark.pedantic(lambda: None, rounds=1)  # shape check, not a timing
    resolver = FieldIdResolver()
    compiled = CompiledFieldName("purchaseOrder")
    for doc in oson_docs:
        resolver.resolve(doc, compiled)
    hit_rate = resolver.lookback_hits / resolver.lookups
    report("Ablation 2 — single-row look-back",
           [f"lookups: {resolver.lookups}, look-back hits: "
            f"{resolver.lookback_hits} ({100 * hit_rate:.1f}%)"])
    record("ablation2", "lookback_hit_rate", hit_rate)
    assert hit_rate > 0.95


# -- 3. lazy DOM vs materialize-then-evaluate ----------------------------------

_PATH = "$.purchaseOrder.items[0].partno"


def test_ablation3_lazy_dom(benchmark, oson_docs):
    def run():
        return [json_value(d, _PATH) for d in oson_docs]

    values = benchmark(run)
    assert sum(v is not None for v in values) == len(values)


def test_ablation3_materialize_first(benchmark, oson_docs):
    evaluator = PathEvaluator(compile_path(_PATH))

    def run():
        out = []
        for doc in oson_docs:
            materialized = doc.materialize()  # the ablated full decode
            nodes = evaluator.values(DictAdapter(materialized))
            out.append(nodes[0] if nodes else None)
        return out

    values = benchmark(run)
    assert sum(v is not None for v in values) == len(values)


def test_ablation3_shape(benchmark, oson_docs):
    benchmark.pedantic(lambda: None, rounds=1)  # shape check, not a timing
    start = time.perf_counter()
    lazy = [json_value(d, _PATH) for d in oson_docs]
    lazy_time = time.perf_counter() - start
    evaluator = PathEvaluator(compile_path(_PATH))
    start = time.perf_counter()
    materialized = [
        (evaluator.values(DictAdapter(d.materialize())) or [None])[0]
        for d in oson_docs]
    full_time = time.perf_counter() - start
    assert lazy == materialized
    report("Ablation 3 — lazy DOM vs materialize-then-evaluate",
           [f"lazy offset DOM:   {lazy_time * 1000:.1f} ms",
            f"materialize first: {full_time * 1000:.1f} ms "
            f"({full_time / lazy_time:.1f}x slower)"])
    record("ablation3", "lazy_dom_ms", lazy_time * 1000)
    record("ablation3", "materialize_first_ms", full_time * 1000)
    assert lazy_time < full_time


# -- 4. predicate pushdown on/off ------------------------------------------------


@pytest.fixture(scope="module")
def dmdv_view(documents):
    from repro.engine import Column, Database, NUMBER
    from repro.engine.types import BLOB
    from repro.workloads.purchase_orders import build_po_views
    db = Database()
    table = db.create_table("po", [Column("did", NUMBER),
                                   Column("jdoc", BLOB)])
    for i, doc in enumerate(documents):
        table.insert({"did": i, "jdoc": encode(doc)})
    _mv, dmdv = build_po_views(db, table, "jdoc", "po")
    return dmdv, documents[len(documents) // 2]["purchaseOrder"]["items"][0][
        "partno"]


@pytest.fixture
def no_row_cache():
    """Ablation 4 measures pushdown vs expand-then-filter; the DMDV row
    cache would serve both sides and hide the effect, so it sits out."""
    from repro.core.counters import restore_caches_enabled, set_caches_enabled
    previous = set_caches_enabled(False, names=["sqljson.jsontable_rows"])
    yield
    restore_caches_enabled(previous)


def test_ablation4_with_pushdown(benchmark, dmdv_view, no_row_cache):
    from repro.engine import Query, expr
    view, partno = dmdv_view

    def run():
        return Query(view).where(expr.Col("partno") == partno).rows()

    rows = benchmark(run)
    assert len(rows) >= 1


def test_ablation4_without_pushdown(benchmark, dmdv_view, no_row_cache):
    view, partno = dmdv_view

    def run():
        # the ablated plan: expand every document, then filter rows
        return [r for r in view.scan() if r["partno"] == partno]

    rows = benchmark(run)
    assert len(rows) >= 1


def test_ablation4_shape(benchmark, dmdv_view, no_row_cache):
    from repro.engine import Query, expr
    view, partno = dmdv_view
    benchmark.pedantic(lambda: None, rounds=1)  # shape check, not a timing
    start = time.perf_counter()
    pushed = Query(view).where(expr.Col("partno") == partno).rows()
    pushed_time = time.perf_counter() - start
    start = time.perf_counter()
    scanned = [r for r in view.scan() if r["partno"] == partno]
    scan_time = time.perf_counter() - start
    assert pushed == scanned
    report("Ablation 4 — JSON_EXISTS predicate pushdown",
           [f"pushdown:           {pushed_time * 1000:.1f} ms",
            f"expand-then-filter: {scan_time * 1000:.1f} ms "
            f"({scan_time / pushed_time:.1f}x slower)"])
    record("ablation4", "pushdown_ms", pushed_time * 1000)
    record("ablation4", "expand_then_filter_ms", scan_time * 1000)
    assert pushed_time < scan_time


# -- 5. set encoding memory ---------------------------------------------------------


def test_ablation5_set_encoding_memory(benchmark, documents):
    def build():
        store = SharedDictionaryStore()
        for doc in documents:
            store.add(doc)
        return store

    store = benchmark(build)
    shared = store.memory_bytes()
    self_contained = SharedDictionaryStore.self_contained_bytes(documents)
    report("Ablation 5 — set encoding (shared dictionary) memory",
           [f"self-contained: {self_contained:,} B",
            f"shared dict:    {shared:,} B "
            f"({100 * (1 - shared / self_contained):.0f}% saved)"])
    record("ablation5", "self_contained_bytes", self_contained)
    record("ablation5", "shared_dict_bytes", shared)
    assert shared < self_contained


# -- 6. PR-3 fast path: navigation VM + caches + morsel execution -------------


def _run_olap(view, partno, partnos, mode):
    """A Figure-3-style OLAP round over the item DMDV: filtered group-by
    (q3 shape), IN-list projection (q5 shape), and a grouped SUM (q7
    shape)."""
    from repro.engine import Query, expr
    q3 = (Query(view).mode(mode)
          .where(expr.Col("partno") == partno)
          .group_by(["costcenter"], n=expr.COUNT())
          .rows())
    q5 = (Query(view).mode(mode)
          .where(expr.Col("partno").in_(partnos))
          .select("reference", "itemno", "partno", "description")
          .rows())
    q7 = (Query(view).mode(mode)
          .group_by(["costcenter"], n=expr.COUNT(),
                    total=expr.SUM(expr.Col("quantity")))
          .rows())
    return q3, q5, q7


#: the caches the pre-PR engine did not have; the path-parse cache stays
#: enabled in the ablated run because the seed engine already memoized
#: path compilation
_PR3_CACHES = ["oson.dictionary_intern", "sqljson.oson_adapter",
               "sqljson.jsontable_rows"]

ROUNDS = 3


def _ablation6_setup(dmdv_view, documents):
    view, partno = dmdv_view
    items = documents[0]["purchaseOrder"]["items"]
    partnos = sorted({item["partno"] for item in items})[:3] + [partno]
    return view, partno, partnos


def test_ablation6_fast_path(benchmark, dmdv_view, documents):
    view, partno, partnos = _ablation6_setup(dmdv_view, documents)
    results = benchmark(_run_olap, view, partno, partnos, "morsel")
    assert all(len(part) >= 1 for part in results)


def test_ablation6_ablated(benchmark, dmdv_view, documents):
    from repro.core.counters import restore_caches_enabled, set_caches_enabled
    from repro.core.oson import set_navigation_enabled
    view, partno, partnos = _ablation6_setup(dmdv_view, documents)
    previous = set_caches_enabled(False, names=_PR3_CACHES)
    set_navigation_enabled(False)
    try:
        results = benchmark(_run_olap, view, partno, partnos, "row")
    finally:
        set_navigation_enabled(True)
        restore_caches_enabled(previous)
    assert all(len(part) >= 1 for part in results)


def test_ablation6_shape(benchmark, dmdv_view, documents):
    """The PR's acceptance gate: the full fast path (partial-decode
    navigation + interned dictionaries/documents + morsel batching) must
    beat the pre-PR configuration by a clear margin on an OLAP round."""
    from repro.core.counters import restore_caches_enabled, set_caches_enabled
    from repro.core.oson import set_navigation_enabled
    from repro.obs import metrics
    view, partno, partnos = _ablation6_setup(dmdv_view, documents)
    benchmark.pedantic(lambda: None, rounds=1)  # shape check, not a timing

    _run_olap(view, partno, partnos, "morsel")  # warm caches / dispatch
    start = time.perf_counter()
    for _ in range(ROUNDS):
        fast = _run_olap(view, partno, partnos, "morsel")
    fast_time = time.perf_counter() - start

    previous = set_caches_enabled(False, names=_PR3_CACHES)
    set_navigation_enabled(False)
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            slow = _run_olap(view, partno, partnos, "row")
        slow_time = time.perf_counter() - start
    finally:
        set_navigation_enabled(True)
        restore_caches_enabled(previous)

    assert fast == slow  # byte-identical results, only the speed differs
    ratio = slow_time / fast_time
    filter_hits = metrics.counter("engine.morsel_filter.hits").value
    report("Ablation 6 — PR-3 fast path vs pre-PR configuration",
           [f"fast (nav + caches + morsel): {fast_time * 1000:.1f} ms",
            f"ablated (DOM + cold + row):   {slow_time * 1000:.1f} ms "
            f"({ratio:.1f}x slower)",
            f"morsel filter vector batches: {filter_hits}"])
    record("ablation6", "fast_ms", fast_time * 1000)
    record("ablation6", "ablated_ms", slow_time * 1000)
    record("ablation6", "speedup", ratio)
    record("ablation6", "rounds", ROUNDS)
    # margin-asserted acceptance gate; tiny CI scales only get a weak gate
    # because fixed per-query overhead dominates sub-millisecond scans
    floor = 3.0 if SCALE >= 1.0 else 1.2
    assert ratio > floor, f"fast path speedup {ratio:.2f}x <= {floor}x"


