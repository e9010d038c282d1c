"""Session/cursor front-end: snapshot pinning, read-your-own-writes,
deadlines, cancellation, overload shedding, asyncio integration."""

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.engine.catalog import Database
from repro.engine.constraints import IsJsonConstraint
from repro.engine import expr
from repro.engine.query import Query
from repro.engine.table import Column
from repro.errors import (Cancelled, ConstraintViolation, Overloaded,
                          QueryTimeout, SessionClosed)
from repro.obs import metrics as obs_metrics
from repro.serve import CancelToken, Server
from repro.serve.session import _SnapshotView
from repro.storage import MemoryFileSystem


@pytest.fixture
def served():
    fs = MemoryFileSystem()
    db = Database()
    table = db.create_table(
        "po", [Column.of("id", "number"), Column.of("note", "varchar2(60)")],
        durable="db/po", fs=fs)
    table.insert_many([{"id": 1, "note": "one"}, {"id": 2, "note": "two"}])
    server = Server(db, read_workers=2, write_workers=2, queue_limit=16)
    yield server, db, table
    server.close()
    table.close()


def ids(cursor_or_rows):
    rows = (cursor_or_rows.fetchall()
            if hasattr(cursor_or_rows, "fetchall") else cursor_or_rows)
    return sorted(row["id"] for row in rows)


class TestCursorBasics:
    def test_execute_fetch(self, served):
        server, _, _ = served
        with server.session() as session:
            cursor = session.execute("SELECT id, note FROM po")
            assert cursor.rowcount == 2
            assert ids(cursor) == [1, 2]

    def test_fetchone_walks_then_none(self, served):
        server, _, _ = served
        with server.session() as session:
            cursor = session.execute("SELECT id FROM po ORDER BY id")
            assert cursor.fetchone() == {"id": 1}
            assert cursor.fetchone() == {"id": 2}
            assert cursor.fetchone() is None

    def test_cursor_iterates_remaining_rows(self, served):
        server, _, _ = served
        with server.session() as session:
            cursor = session.execute("SELECT id FROM po ORDER BY id")
            assert cursor.fetchone() == {"id": 1}  # consumed before iter
            assert [row["id"] for row in cursor] == [2]

    def test_fetch_without_execute_raises(self, served):
        server, _, _ = served
        with server.session() as session:
            with pytest.raises(SessionClosed):
                session.cursor().fetchall()


class TestSnapshotIsolation:
    def test_pinned_session_does_not_see_concurrent_writes(self, served):
        server, _, _ = served
        reader = server.session()
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2]  # pins
        writer = server.session()
        writer.insert("po", {"id": 3, "note": "three"})
        # the reader's pin predates the write...
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2]
        # ...until it refreshes
        reader.refresh()
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2, 3]

    def test_read_your_own_writes(self, served):
        server, _, _ = served
        with server.session() as session:
            session.insert("po", {"id": 3, "note": "three"})
            assert ids(session.execute("SELECT id FROM po")) == [1, 2, 3]

    def test_pin_versions_are_monotonic(self, served):
        server, _, _ = served
        with server.session() as session:
            session.execute("SELECT id FROM po").fetchall()
            first = session.snapshot_version("po")
            session.insert("po", {"id": 3, "note": "three"})
            second = session.snapshot_version("po")
            assert second > first

    def test_insert_many_is_atomic_to_other_sessions(self, served):
        server, _, _ = served
        writer = server.session()
        writer.insert_many("po", [{"id": 10 + i, "note": "b"}
                                  for i in range(4)])
        reader = server.session()
        seen = ids(reader.execute("SELECT id FROM po"))
        assert seen == [1, 2, 10, 11, 12, 13]


class TestAtomicBatches:
    """One ``insert_many`` is one logical commit: with group commit
    capped below the batch size, no published snapshot holds part of
    it, and the store version moves by exactly one."""

    BATCH = [{"id": 10 + i, "note": "b"} for i in range(5)]

    def test_no_published_snapshot_holds_part_of_a_batch(self, served):
        server, _, table = served
        pipeline = table.store.pipeline
        pipeline.set_batch_limit(3)
        published = []
        publish = pipeline._on_durable

        def recording(batch):
            publish(batch)
            published.append(len(table.store.snapshot().docs))

        pipeline._on_durable = recording
        with server.session() as session:
            session.insert_many("po", self.BATCH)
        assert published == [2 + len(self.BATCH)]

    def test_insert_many_moves_the_store_version_by_one(self, served):
        server, _, table = served
        table.store.pipeline.set_batch_limit(3)
        before = table.store.snapshot().version
        with server.session() as session:
            session.insert_many("po", self.BATCH)
            assert ids(session.execute("SELECT id FROM po")) == [
                1, 2, 10, 11, 12, 13, 14]
        assert table.store.snapshot().version == before + 1

    def test_staged_batch_publishes_whole(self):
        table = Database().create_table(
            "events", [Column.of("seq", "number"), Column.of("slot", "number")],
            durable="db/events", fs=MemoryFileSystem())
        table.store.pipeline.set_batch_limit(3)
        handle = table.insert_many_pending(
            [{"seq": 0, "slot": slot} for slot in range(5)])
        assert len(list(table.snapshot_scan())) == 0
        table.store.pipeline.wait(handle)
        assert len(list(table.snapshot_scan())) == 5
        table.close()

    def test_transient_batch_is_all_or_nothing(self):
        db = Database()
        table = db.create_table(
            "docs", [Column.of("id", "number"), Column.of("jdoc", "clob")])
        table.add_constraint(IsJsonConstraint("jdoc"))
        with Server(db, read_workers=1, write_workers=1) as server:
            with server.session() as session:
                with pytest.raises(ConstraintViolation):
                    session.insert_many("docs", [
                        {"id": 1, "jdoc": '{"a": 1}'},
                        {"id": 2, "jdoc": '{"a":'}])
                assert ids(session.execute("SELECT id FROM docs")) == []
                session.insert_many("docs", [{"id": 3, "jdoc": "[]"}])
                assert ids(session.execute("SELECT id FROM docs")) == [3]


class TestDeadlinesAndCancellation:
    def test_expired_deadline_raises_query_timeout(self, served):
        server, _, _ = served
        with server.session() as session:
            cursor = session.cursor().execute("SELECT id FROM po",
                                              timeout_ms=0.0)
            with pytest.raises(QueryTimeout):
                cursor.fetchall()

    def test_cancel_before_start_raises_typed_cancelled(self, served):
        server, _, _ = served
        release = threading.Event()
        # park both read workers so the statement stays queued
        blockers = [server.reads.submit(lambda: release.wait(10))
                    for _ in range(2)]
        try:
            with server.session() as session:
                cursor = session.cursor().execute("SELECT id FROM po")
                cursor.cancel()
                with pytest.raises(Cancelled):
                    cursor.fetchall()
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(5)

    def test_cancel_token_aborts_mid_scan(self):
        """Cooperative cancellation fires at a row boundary: the hook
        trips after three rows and the query aborts without draining
        the source."""
        token = CancelToken()
        consumed = []

        def source():
            for i in range(100):
                consumed.append(i)
                yield {"n": i}

        def hook(_row):
            if len(consumed) >= 3:
                token.cancel()
            token.check()

        with pytest.raises(Cancelled):
            Query(source).instrumented(hook).rows()
        assert len(consumed) < 100

    def test_deadline_counts_queue_wait(self, served):
        """A statement that sat in the queue past its deadline times
        out when a worker finally picks it up, instead of running."""
        server, _, _ = served
        release = threading.Event()
        blockers = [server.reads.submit(lambda: release.wait(10))
                    for _ in range(2)]
        try:
            with server.session() as session:
                cursor = session.cursor().execute("SELECT id FROM po",
                                                  timeout_ms=1.0)
                time.sleep(0.05)  # let the queued deadline expire
                release.set()
                with pytest.raises(QueryTimeout):
                    cursor.fetchall()
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(5)


class TestOverload:
    def test_saturated_read_lane_sheds_execute(self, served):
        server, _, _ = served
        release = threading.Event()
        started = threading.Barrier(3, timeout=10)

        def blocker():
            started.wait()
            release.wait(10)

        blockers = [server.reads.submit(blocker) for _ in range(2)]
        started.wait()  # both workers are now parked, queue is empty
        fillers = []
        try:
            with server.session() as session:
                # fill the queue to its limit with parked statements
                for _ in range(server.reads.queue_limit):
                    fillers.append(
                        server.reads.submit(lambda: None))
                with pytest.raises(Overloaded):
                    session.execute("SELECT id FROM po")
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(5)


class TestAsyncio:
    def test_cursor_future_awaits(self, served):
        server, _, _ = served

        async def main(session):
            cursor = session.cursor().execute("SELECT id FROM po")
            rows = await asyncio.wrap_future(cursor.as_future())
            return sorted(row["id"] for row in rows)

        with server.session() as session:
            assert asyncio.run(main(session)) == [1, 2]


class TestLifecycle:
    def test_closed_session_refuses_statements(self, served):
        server, _, _ = served
        session = server.session()
        session.close()
        with pytest.raises(SessionClosed):
            session.execute("SELECT id FROM po")

    def test_closed_server_refuses_sessions(self, served):
        server, _, _ = served
        session = server.session()
        server.close()
        with pytest.raises(SessionClosed):
            server.session()
        with pytest.raises(SessionClosed):
            session.execute("SELECT id FROM po")

    def test_transient_table_writes_ride_the_write_lane(self, served):
        server, db, _ = served
        db.create_table("scratch", [Column.of("k", "number")])
        with server.session() as session:
            session.insert("scratch", {"k": 1})
            session.insert_many("scratch", [{"k": 2}, {"k": 3}])
            rows = session.execute("SELECT k FROM scratch").fetchall()
            assert sorted(r["k"] for r in rows) == [1, 2, 3]


class TestSnapshotView:
    def test_delegates_schema_but_pins_rows(self, served):
        server, db, table = served
        snapshot = table.store.snapshot()
        view = _SnapshotView(table, snapshot)
        assert view.name == "po"
        assert view.column("id").name == "id"  # schema delegation
        before = sorted(row["id"] for row in view.scan())
        table.insert({"id": 99, "note": "later"})
        assert sorted(row["id"] for row in view.scan()) == before

    def test_imc_bound_table_serves_sql_through_the_cache(self, served):
        """Known gap G2: the plan rewrite found the IMC binding through
        the view but could not scan through it (AttributeError)."""
        from repro.imc import IMCStore

        server, db, table = served
        IMCStore().bind(table)
        columns_read = obs_metrics.counter("imc.columns_read")
        with server.session() as session:
            before = columns_read.value
            by_sql = session.execute(
                "SELECT id, note FROM po WHERE id = 2").fetchall()
            assert columns_read.value == before + 2  # the IMC scan ran
            by_query = session.execute_query(
                Query(table).where(expr.Col("id") == 2)
                .select("id", "note")).fetchall()
            assert by_sql == by_query == [{"id": 2, "note": "two"}]

    def test_imc_does_not_leak_past_a_stale_pin(self, served):
        """The cache serves the table's current state: behind an older
        pin the session must keep reading its snapshot's rows."""
        from repro.imc import IMCStore

        server, db, table = served
        IMCStore().bind(table)
        reader, writer = server.session(), server.session()
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2]
        writer.insert("po", {"id": 3, "note": "three"})
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2]
        reader.refresh()
        assert ids(reader.execute("SELECT id FROM po")) == [1, 2, 3]


class TestCursorRelease:
    """Known gap G3: a session kept every cursor, rows included, until
    it closed."""

    def test_finished_cursor_is_not_kept_alive(self, served):
        server, db, table = served
        with server.session() as session:
            cursor = session.execute("SELECT id FROM po")
            cursor.fetchall()
            cursor.close()
            alive = weakref.ref(cursor)
            del cursor
            gc.collect()
            assert alive() is None

    def test_long_lived_session_stays_bounded(self, served):
        server, db, table = served
        with server.session() as session:
            for _ in range(2000):
                assert session.execute(
                    "SELECT id FROM po WHERE id = 1").fetchone() == {"id": 1}
                assert len(session._cursors) <= 1
            assert not session._cursors

    def test_close_still_cancels_statements_in_flight(self, served):
        server, db, table = served
        session = server.session()
        cursor = session.cursor()
        cursor.execute("SELECT id FROM po")
        assert cursor in session._cursors  # not fetched yet: tracked
        session.close()
        assert cursor._token.cancelled and not session._cursors

