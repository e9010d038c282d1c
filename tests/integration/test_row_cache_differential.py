"""Cached ≡ uncached for the content-addressed DMDV row cache (ISSUE 24).

The row cache is sound because a JSON_TABLE expansion is a pure function
of (table definition, image value).  These tests hold it to that under
everything that changes images — inserts, whole-image updates,
``OsonUpdater`` partial updates (same length, a few bytes differ),
deletes — on every route that hands images to the view: the live heap,
a pinned ``snapshot_scan`` and a 4-shard scatter (both rebuild each
image, so they probe with equal copies), and under concurrent readers.
"""

import sys
import threading
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import oson
from repro.core.counters import (
    cache_named,
    restore_caches_enabled,
    set_caches_enabled,
)
from repro.engine import Column, Database, NUMBER, Query
from repro.engine.types import BLOB
from repro.engine.view import JsonTableView
from repro.obs import locks
from repro.sqljson.json_table import ColumnDef, JsonTable, NestedPath
from repro.storage.files import MemoryFileSystem

CACHES = ["sqljson.jsontable_rows", "sqljson.oson_adapter"]


def _json_table():
    return JsonTable("$", [
        ColumnDef("sku", "varchar2(8)"),
        ColumnDef("qty", "number"),
        NestedPath("$.items[*]", [ColumnDef("n", "number")]),
    ])


def _store(shards=None):
    db = Database()
    layout = {} if shards is None else {"shards": shards,
                                        "routing_field": "did"}
    table = db.create_table(
        "po", [Column("did", NUMBER), Column("jdoc", BLOB)],
        durable="/po", fs=MemoryFileSystem(), **layout)
    view = JsonTableView("po_v", table, "jdoc", _json_table(),
                         include_columns=["did"])
    db.register_view(view)
    return db, table, view


def _sorted(rows):
    return sorted(rows, key=lambda row: (row["did"], row["n"] is None,
                                         row["n"]))


_DOCUMENTS = st.fixed_dictionaries({
    "sku": st.sampled_from(["a", "b", "c"]),
    "qty": st.integers(min_value=0, max_value=9),
    "items": st.lists(st.fixed_dictionaries(
        {"n": st.integers(min_value=0, max_value=3)}), max_size=3),
})


class CachedEqualsUncached(RuleBasedStateMachine):
    """One DML stream applied to an unsharded and a 4-shard OSON table;
    every route, cached and uncached, must show the model's rows."""

    def __init__(self):
        super().__init__()
        self.model = {}
        self.next_did = 0
        _db, self.table, self.view = _store()
        _db, self.sharded, self.sharded_view = _store(shards=4)

    def teardown(self):
        self.table.close()
        self.sharded.close()

    def _each_table(self):
        return (self.table, self.sharded)

    @rule(document=_DOCUMENTS)
    def insert(self, document):
        did, self.next_did = self.next_did, self.next_did + 1
        for table in self._each_table():
            table.insert({"did": did, "jdoc": oson.encode(document)})
        self.model[did] = document

    @precondition(lambda self: self.model)
    @rule(data=st.data(), document=_DOCUMENTS)
    def update_whole_image(self, data, document):
        did = data.draw(st.sampled_from(sorted(self.model)))
        for table in self._each_table():
            assert table.update(lambda row: row["did"] == did,
                                {"jdoc": oson.encode(document)}) == 1
        self.model[did] = document

    @precondition(lambda self: self.model)
    @rule(data=st.data(), qty=st.integers(min_value=0, max_value=9))
    def update_one_scalar_in_place(self, data, qty):
        did = data.draw(st.sampled_from(sorted(self.model)))
        for table in self._each_table():
            (row,) = [r for r in table.scan() if r["did"] == did]
            updater = oson.OsonUpdater(row["jdoc"])
            updater.set_scalar_by_path(["qty"], qty)
            assert table.update(lambda row: row["did"] == did,
                                {"jdoc": updater.to_bytes()}) == 1
        self.model[did] = dict(self.model[did], qty=qty)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        did = data.draw(st.sampled_from(sorted(self.model)))
        for table in self._each_table():
            assert table.delete(lambda row: row["did"] == did) == 1
        del self.model[did]

    def _routes(self):
        return {
            "live": list(self.view.scan()),
            "snapshot": list(self.view._expand_rows(
                self.table.snapshot_scan())),
            "sharded": Query(self.sharded_view).rows(),
        }

    @invariant()
    def every_route_shows_the_model(self):
        reference = _json_table()
        expected = _sorted(
            dict(row, did=did) for did, document in self.model.items()
            for row in reference.rows(document))  # DictAdapter: no cache
        for route, rows in self._routes().items():
            assert _sorted(rows) == expected, ("cached", route)
        previous = set_caches_enabled(False, names=CACHES)
        try:
            for route, rows in self._routes().items():
                assert _sorted(rows) == expected, ("uncached", route)
        finally:
            restore_caches_enabled(previous)


TestCachedEqualsUncached = CachedEqualsUncached.TestCase
TestCachedEqualsUncached.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None)


def test_rows_handed_out_never_show_in_a_later_scan():
    _db, table, view = _store()
    try:
        image = oson.encode({"sku": "a", "qty": 1, "items": [{"n": 2}]})
        table.insert({"did": 0, "jdoc": image})
        expected = [{"did": 0, "sku": "a", "qty": 1, "n": 2}]
        for _ in range(2):  # what the miss returned, then what a hit did
            for row in view.json_table.rows(image):
                row["qty"] = "scribbled"
                row.clear()
            (scanned,) = view.scan()
            assert [scanned] == expected
            scanned["qty"] = "scribbled"
        assert list(view.scan()) == expected
    finally:
        table.close()


def test_dropped_view_releases_its_entries():
    """Regression (G3-shaped, at process level): row entries pinned
    their view's JsonTable, so a dropped view's expansions stayed
    resident until 4096 newer entries pushed them out."""
    import gc
    db, table, view = _store()
    try:
        table.insert_many([
            {"did": i, "jdoc": oson.encode({"sku": "a", "qty": i})}
            for i in range(10)])
        cache = cache_named("sqljson.jsontable_rows")
        gc.collect()  # earlier tests' tables, so only this view's die below
        before = len(cache)
        assert len(list(view.scan())) == 10
        assert len(cache) == before + 10
        db.drop_view("po_v")
        del view
        gc.collect()
        assert len(cache) == before
    finally:
        table.close()


# -- readers beside an updater ----------------------------------------------------

DOCUMENTS = 40
ROUNDS = 120
SCANS = 20  # reader scans the updater waits for before it stops


@pytest.fixture
def sanitized(monkeypatch):
    """Sanitize every lock the hammer touches: the store's (created while
    the switch is on) and the two module-level caches' (created at
    import, so swapped in for the test — one lock shared by the cache
    and its three counters)."""
    previous = locks.set_sanitizer_enabled(True)
    for name in CACHES:
        cache = cache_named(name)
        lock = locks.make_lock(f"core.counters.{name}")
        for owner in (cache, cache.hits, cache.misses, cache.evictions):
            monkeypatch.setattr(owner, "_lock", lock)
    yield lambda: {kind: locks.report()["counts"].get(kind, 0)
                   for kind in ("io-under-lock", "lock-order-inversion")}
    locks.set_sanitizer_enabled(previous)


def _versioned(key, version):
    return {"sku": f"{key}:{version % 10}", "qty": version, "items": []}


def test_two_readers_beside_an_updater_never_read_stale_rows(sanitized):
    findings_before = sanitized()
    _db, table, view = _store()
    table.insert_many([{"did": key, "jdoc": oson.encode(_versioned(key, 0))}
                       for key in range(DOCUMENTS)])
    committed = [0] * DOCUMENTS   # version known applied, per document
    failures = []
    scans = []
    done = threading.Event()

    def updater():
        # progress is paced by the readers, not by speed: keep updating
        # past ROUNDS until they have scanned SCANS times (a cold scan
        # costs as much as dozens of updates under sanitized locks)
        give_up = time.monotonic() + 50
        step = 0
        try:
            while not failures and (step < ROUNDS or len(scans) < SCANS):
                if time.monotonic() > give_up:
                    failures.append(f"updater: {len(scans)} scans in 50 s")
                    break
                step += 1
                key = step % DOCUMENTS
                version = committed[key] + 1
                if step % 2:
                    image = oson.encode(_versioned(key, version))
                else:  # in place: same length, a few bytes differ
                    (row,) = [r for r in table.scan() if r["did"] == key]
                    partial = oson.OsonUpdater(row["jdoc"])
                    partial.set_scalar_by_path(["qty"], version)
                    partial.set_scalar_by_path(
                        ["sku"], f"{key}:{version % 10}")
                    image = partial.to_bytes()
                table.update(lambda row: row["did"] == key, {"jdoc": image})
                committed[key] = version
        except Exception as error:  # noqa: BLE001 - surfaced via failures
            failures.append(f"updater: {error!r}")
        finally:
            done.set()

    def reader(name):
        try:
            while not done.is_set() and not failures:
                floor = list(committed)
                rows = list(view.scan())
                scans.append(name)
                if len(rows) != DOCUMENTS:
                    failures.append(f"{name}: {len(rows)} rows")
                for row in rows:
                    key, version = row["did"], row["qty"]
                    if version < floor[key]:
                        failures.append(
                            f"{name}: document {key} at version {version}, "
                            f"{floor[key]} was applied before the scan")
                    if row["sku"] != f"{key}:{version % 10}":
                        failures.append(f"{name}: torn row {row}")
        except Exception as error:  # noqa: BLE001 - surfaced via failures
            failures.append(f"{name}: {error!r}")

    threads = [threading.Thread(target=updater)] + [
        threading.Thread(target=reader, args=(f"reader-{i}",))
        for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # many more interleavings per second
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        done.set()
        table.close()
    assert not failures, failures[:5]
    assert len(scans) >= SCANS  # the readers really ran beside the updater
    assert [row["qty"] for row in view.scan()] == committed
    assert sanitized() == findings_before
