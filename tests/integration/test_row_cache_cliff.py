"""The cache cliff as deterministic counts (ISSUE 24).

The DMDV row cache is keyed by (JsonTable, image *value*) and probed
before anything is decoded, so a repeated Figure-3 cycle is all hits
whenever its working set — views x documents — fits the 4096-entry row
cache, no matter that

* the collection is larger than the 1024-entry adapter cache (the
  ``olap_hot`` -> ``olap_cold`` cliff: the identity-keyed row entries
  were only reachable through a live adapter entry, and a cyclic scan of
  1300 documents turned that LRU over every time), or
* the scan rebuilds every image (a sharded scatter stream, a pinned
  ``snapshot_scan``): an equal copy finds the rows the first one left.

Counts, not times.
"""

import pytest

from repro.core import oson
from repro.core.counters import counters_for
from repro.engine import Column, Database, NUMBER
from repro.engine.types import BLOB
from repro.obs import metrics
from repro.storage.files import MemoryFileSystem
from repro.workloads.purchase_orders import (
    PoOlapQueries,
    PoQueryParams,
    PurchaseOrderGenerator,
    build_po_views,
)

from tests.integration.test_shard_differential import QUERIES, canon, run_olap

#: more documents than ``sqljson.oson_adapter`` holds (1024); both views'
#: expansions (2 x 1300) still fit ``sqljson.jsontable_rows`` (4096)
N_COLD = 1300
N_REBUILT = 400

_ROWS = counters_for("sqljson.jsontable_rows")
_EXPANDED = metrics.counter("sqljson.jsontable.docs_expanded")
_DECODES = metrics.counter("oson.document.decodes")


def _counts():
    return (_ROWS.hits, _ROWS.misses, _EXPANDED.value, _DECODES.value)


def _delta(work):
    """``(hits, misses, docs expanded, documents decoded)`` of ``work()``,
    and its result."""
    before = _counts()
    result = work()
    return tuple(b - a for a, b in zip(before, _counts())), result


def _po_store(documents, shards=None):
    db = Database()
    layout = {} if shards is None else {"shards": shards,
                                        "routing_field": "did"}
    table = db.create_table(
        "po", [Column("did", NUMBER), Column("jdoc", BLOB)],
        durable="/po", fs=MemoryFileSystem(), **layout)
    table.insert_many([{"did": i, "jdoc": oson.encode(doc)}
                       for i, doc in enumerate(documents)])
    mv, dmdv = build_po_views(db, table, "jdoc", "v")
    return table, (mv, dmdv), PoOlapQueries(mv, dmdv), PoQueryParams(documents)


def _figure3(queries, params):
    return {qid: canon(run_olap(queries, params, qid)) for qid in QUERIES}


@pytest.fixture(scope="module")
def documents():
    return list(PurchaseOrderGenerator(seed=7).documents(N_COLD))


@pytest.fixture(scope="module")
def unsharded(documents):
    table, views, queries, params = _po_store(documents[:N_REBUILT])
    yield table, views, queries, params
    table.close()


def test_second_pass_past_the_adapter_cache_is_all_hits(documents):
    table, _views, queries, params = _po_store(documents)
    try:
        _cold, first = _delta(lambda: _figure3(queries, params))
        (hits, misses, expanded, decoded), second = _delta(
            lambda: _figure3(queries, params))
    finally:
        table.close()
    assert second == first
    assert (misses, expanded, decoded) == (0, 0, 0)
    assert hits == len(QUERIES) * N_COLD  # one probe per document per scan


def test_sharded_scan_finds_the_rows_of_rebuilt_images(documents, unsharded):
    """Every scatter stream rebuilds its shard's images from the pinned
    snapshot (``bytes.fromhex``): fresh objects, equal values."""
    _table, _views, reference, params = unsharded
    table, _views, queries, _params = _po_store(documents[:N_REBUILT],
                                                shards=4)
    try:
        expected = _figure3(reference, params)
        assert _figure3(queries, params) == expected
        (hits, misses, expanded, decoded), again = _delta(
            lambda: _figure3(queries, params))
    finally:
        table.close()
    assert again == expected
    assert (misses, expanded, decoded) == (0, 0, 0)
    assert hits == len(QUERIES) * N_REBUILT


def test_snapshot_scan_finds_the_rows_of_the_live_scan(unsharded):
    table, views, _queries, _params = unsharded
    for view in views:
        live = list(view.scan())
        counts, pinned = _delta(
            lambda: list(view._expand_rows(table.snapshot_scan())))
        assert pinned == live
        assert counts == (N_REBUILT, 0, 0, 0)
