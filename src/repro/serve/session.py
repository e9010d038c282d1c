"""Session/cursor serving front-end: snapshot reads, lane-separated
execution, deadlines and cancellation.

A :class:`Server` wraps one :class:`~repro.engine.catalog.Database` and
exposes it to many concurrent clients through :class:`Session` objects:

* **Reads run over pinned snapshots.**  The first statement that touches
  a durable table pins that table's current
  :class:`~repro.storage.store.StoreSnapshot`; every statement in the
  session then sees that one consistent durable state until
  :meth:`Session.refresh` (or one of the session's own writes) advances
  the pin.  Long analytical scans therefore never observe a partially
  published group-commit batch, and pins only ever move forward
  (monotonic reads).
* **Read-your-own-writes.**  A write is acknowledged only after its
  group-commit batch is fsynced *and* published; the session re-pins the
  written table on acknowledgement, so the very next read sees the
  write.
* **Two admission lanes.**  Read statements run on a multi-worker read
  lane; writes funnel through a write lane whose workers serialize heap
  mutation under one write lock but wait for durability *outside* it —
  that overlap is what lets the group-commit leader batch many
  sessions' fsyncs into one.
* **Deadlines and cancellation are cooperative.**  A per-query deadline
  (or :meth:`Cursor.cancel`) trips a :class:`CancelToken` that the
  executing query polls at every row boundary via
  ``Query.instrumented``; the query aborts with a typed
  :class:`~repro.errors.QueryTimeout` / :class:`~repro.errors.Cancelled`
  without leaving any shared state locked.
* **asyncio-compatible.**  Every statement resolves through a
  ``concurrent.futures.Future``; event-loop callers await
  ``asyncio.wrap_future(cursor.as_future())`` instead of blocking.

A Session (and its cursors) is a per-client object and is not itself
thread-safe — exactly the DB-API connection contract.  The Server, the
lanes, and the underlying store are the concurrent parts.
"""

from __future__ import annotations

from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import Future
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.engine.catalog import Database
from repro.engine.query import Query
from repro.engine.scatter import ScatterPolicy
from repro.engine.sql.parser import compile_sql
from repro.engine.table import DurableTable, Table
from repro.errors import Cancelled, CatalogError, QueryTimeout, SessionClosed
from repro.obs import locks as _locks
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.trace import monotonic
from repro.serve.admission import AdmissionController

__all__ = ["CancelToken", "Cursor", "Server", "Session"]

_TIMEOUTS = _metrics.counter("serve.query.timeouts")
_CANCELLED = _metrics.counter("serve.query.cancelled")
_SESSIONS = _metrics.counter("serve.sessions.opened")
_STATEMENTS = _metrics.counter("serve.statements")
_WRITES = _metrics.counter("serve.writes")
_DEGRADED = _metrics.counter("serve.query.degraded")


class CancelToken:
    """Cooperative cancellation + deadline for one statement.

    The executing query calls :meth:`check` at every row boundary; the
    caller (or the session closing) flips :attr:`cancelled` from any
    thread.  The flag is a single attribute write — atomic under the
    GIL — so no lock is needed.
    """

    __slots__ = ("deadline", "started_at", "_cancelled")

    def __init__(self, timeout_ms: Optional[float] = None) -> None:
        self.started_at = monotonic()
        self.deadline = (None if timeout_ms is None
                         else self.started_at + timeout_ms / 1000.0)
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def elapsed_ms(self) -> float:
        return (monotonic() - self.started_at) * 1000.0

    def check(self, ahead_s: float = 0.0) -> None:
        """Raise the typed abort if the statement should stop now.

        ``ahead_s`` is a deadline *lookahead*: retry machinery about to
        sleep for a backoff delay passes the delay here, so a wait that
        cannot finish before the deadline raises
        :class:`~repro.errors.QueryTimeout` immediately instead of
        sleeping past a deadline it already missed — retry time is
        charged against the statement's budget up front."""
        if self._cancelled:
            _CANCELLED.inc()
            raise Cancelled("query cancelled")
        if (self.deadline is not None
                and monotonic() + ahead_s > self.deadline):
            _TIMEOUTS.inc()
            raise QueryTimeout("query deadline exceeded",
                               self.elapsed_ms())


class _SnapshotView:
    """A Query source presenting one pinned snapshot of a durable table.

    Delegates everything else (schema lookups, constraint inspection)
    to the live table — only row production is redirected, which is the
    part that must not move under a running scan."""

    __slots__ = ("_table", "_snapshot", "name")

    def __init__(self, table: DurableTable, snapshot: Any) -> None:
        self._table = table
        self._snapshot = snapshot
        self.name = table.name

    def scan(self) -> Iterator[dict]:
        return self._table.snapshot_scan(self._snapshot)

    def shard_plan(self) -> Any:
        """Scatter over the *pinned* snapshot.  Defined explicitly:
        the ``__getattr__`` fallthrough would hand back the live
        table's bound method, which pins the store's current state and
        would let a session's scatter read past its snapshot."""
        return self._table.shard_plan(self._snapshot)

    @property
    def imc(self) -> Any:
        """The table's columnar-cache binding, for the plan rewrite.
        The cache serves the table's current state, so it stands in for
        this view only while the pin *is* the current published state;
        behind a stale pin the rewrite finds no binding and the
        snapshot's own rows are scanned."""
        imc = self._table.imc
        if imc is None or \
                self._table.store.snapshot().version != self._snapshot.version:
            return None
        return _ViewIMC(imc, self._table)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._table, attr)


class _ViewIMC:
    """An IMC binding seen through a :class:`_SnapshotView`: the cache
    is keyed by the bound table, so scans name it, not the view."""

    __slots__ = ("_imc", "_table")

    def __init__(self, imc: Any, table: DurableTable) -> None:
        self._imc = imc
        self._table = table

    def scan_rows(self, _view: Any, names: Sequence[str]) -> List[dict]:
        return self._imc.scan_rows(self._table, names)


class _SessionCatalog:
    """The catalog facade handed to the SQL compiler: table references
    resolve to the session's pinned snapshots, everything else falls
    through to the real database."""

    __slots__ = ("_session",)

    def __init__(self, session: "Session") -> None:
        self._session = session

    def query(self, source_name: str) -> Query:
        return self._session._query_source(source_name)


class Cursor:
    """One statement's handle: result access, deadline, cancellation.

    DB-API-flavoured: :meth:`execute` returns ``self``; results come
    from :meth:`fetchone` / :meth:`fetchall`.  :meth:`as_future`
    exposes the underlying ``concurrent.futures.Future`` for asyncio
    integration."""

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._future: Optional[Future] = None
        self._token: Optional[CancelToken] = None
        self._rows: Optional[List[dict]] = None
        self._cursor_index = 0
        self._closed = False

    def execute(self, sql: str, params: Sequence[Any] = (),
                timeout_ms: Optional[float] = None,
                on_shard_failure: Optional[str] = None) -> "Cursor":
        """Admit a SELECT statement onto the read lane.

        Sheds synchronously with :class:`~repro.errors.Overloaded` when
        the lane is saturated.  ``timeout_ms`` starts counting at
        admission, so time spent waiting in the queue counts against
        the deadline (a saturated server times out instead of silently
        stretching latency).  ``on_shard_failure`` overrides the
        session's shard-failure policy for this statement (``"fail"``
        or ``"partial"``; see :attr:`degraded`)."""
        if self._closed:
            raise SessionClosed("cursor is closed")
        self._rows = None
        self._cursor_index = 0
        token = CancelToken(timeout_ms)
        self._token = token
        self._future = self._session._submit_read(sql, params, token,
                                                  on_shard_failure)
        self._session._cursors.add(self)
        return self

    def _execute_query(self, query: Query,
                       timeout_ms: Optional[float],
                       on_shard_failure: Optional[str]) -> "Cursor":
        """Admit a prebuilt :class:`Query` (same lane, deadline, and
        policy plumbing as :meth:`execute`)."""
        if self._closed:
            raise SessionClosed("cursor is closed")
        self._rows = None
        self._cursor_index = 0
        token = CancelToken(timeout_ms)
        self._token = token
        label = getattr(query._source, "name",
                        type(query._source).__name__)
        self._future = self._session._submit_query(
            query, token, f"<query over {label}>", on_shard_failure)
        self._session._cursors.add(self)
        return self

    def cancel(self) -> None:
        """Cancel the running statement (safe from any thread); the
        query aborts with :class:`~repro.errors.Cancelled` at its next
        row boundary — or never starts, if it is still queued."""
        if self._token is not None:
            self._token.cancel()
        if self._future is not None:
            self._future.cancel()

    def as_future(self) -> "Future[List[dict]]":
        """The statement's ``concurrent.futures.Future``; asyncio
        callers ``await asyncio.wrap_future(cursor.as_future())``."""
        if self._future is None:
            raise SessionClosed("no statement has been executed")
        return self._future

    def _resolve(self) -> List[dict]:
        if self._future is None:
            raise SessionClosed("no statement has been executed")
        if self._rows is None:
            try:
                self._rows = self._future.result()
            except FuturesCancelledError:
                # cancelled while still queued: it never ran, so the
                # token's typed error was never raised — translate here
                _CANCELLED.inc()
                raise Cancelled("query cancelled before it started"
                                ) from None
            finally:
                # the statement is over: nothing left for the session
                # to cancel, so it must not keep the rows alive
                self._session._cursors.discard(self)
        return self._rows

    def fetchall(self) -> List[dict]:
        """All result rows (blocks until the statement finishes)."""
        rows = self._resolve()
        self._cursor_index = len(rows)
        return list(rows)

    def fetchone(self) -> Optional[dict]:
        """The next result row, or ``None`` when exhausted."""
        rows = self._resolve()
        if self._cursor_index >= len(rows):
            return None
        row = rows[self._cursor_index]
        self._cursor_index += 1
        return row

    def __iter__(self) -> Iterator[dict]:
        """DB-API optional extension: iterate the remaining rows."""
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    @property
    def rowcount(self) -> int:
        return len(self._resolve())

    @property
    def degraded(self) -> Optional[Any]:
        """The :class:`~repro.errors.DegradedResult` marker when this
        statement returned an explicitly-degraded partial result under
        ``on_shard_failure="partial"``; None for complete results.
        Degradation is never silent — callers that must not consume
        partial data do ``if cursor.degraded: raise cursor.degraded``.
        """
        return getattr(self._resolve(), "degraded", None)

    @property
    def shards_failed(self) -> tuple:
        """The shard indexes missing from this statement's result
        (empty for complete results)."""
        marker = self.degraded
        return () if marker is None else marker.shards_failed

    def close(self) -> None:
        self.cancel()
        self._closed = True
        self._session._cursors.discard(self)


class Session:
    """One client's window onto the database: pinned snapshots for
    reads, acknowledged writes, cursors with deadlines."""

    def __init__(self, server: "Server") -> None:
        self._server = server
        self._catalog = _SessionCatalog(self)
        #: table name -> pinned StoreSnapshot; pins only move forward
        self._pins: Dict[str, Any] = {}
        #: cursors with a statement in flight — what :meth:`close` has
        #: to cancel; a cursor leaves once its result is in or it closes
        self._cursors: set = set()
        self._closed = False
        #: session-level shard-failure policy ("fail" | "partial"),
        #: seeded from the server default; per-statement
        #: ``on_shard_failure`` arguments override it
        self.on_shard_failure = server.on_shard_failure
        _SESSIONS.inc()

    # -- snapshot pinning --------------------------------------------------

    def _pin(self, name: str, table: DurableTable) -> Any:
        snapshot = self._pins.get(name)
        if snapshot is None:
            snapshot = table.store.snapshot()
            self._pins[name] = snapshot
        return snapshot

    def _advance_pin(self, name: str, table: DurableTable) -> None:
        """Move a pin forward to the current published state (never
        backward: monotonic reads even if a stale snapshot reference
        races in)."""
        current = table.store.snapshot()
        pinned = self._pins.get(name)
        if pinned is None or current.version >= pinned.version:
            self._pins[name] = current

    def refresh(self) -> None:
        """Drop every pin; the next statement re-pins fresh state."""
        self._pins.clear()

    def snapshot_version(self, table_name: str) -> Optional[int]:
        """The pinned snapshot version for ``table_name`` (None when the
        session has not touched the table yet)."""
        pinned = self._pins.get(table_name)
        return None if pinned is None else pinned.version

    def _query_source(self, source_name: str) -> Query:
        db = self._server.db
        try:
            table = db.table(source_name)
        except CatalogError:
            return db.query(source_name)  # view, or raises CatalogError
        if isinstance(table, DurableTable):
            return Query(_SnapshotView(table, self._pin(source_name, table)))
        return Query(table)

    # -- reads -------------------------------------------------------------

    def cursor(self) -> Cursor:
        self._live()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence[Any] = (),
                timeout_ms: Optional[float] = None,
                on_shard_failure: Optional[str] = None) -> Cursor:
        """Convenience: a fresh cursor with the statement admitted."""
        return self.cursor().execute(sql, params, timeout_ms=timeout_ms,
                                     on_shard_failure=on_shard_failure)

    def execute_query(self, query: Query,
                      timeout_ms: Optional[float] = None,
                      on_shard_failure: Optional[str] = None) -> Cursor:
        """Admit a prebuilt :class:`~repro.engine.query.Query` onto the
        read lane with the full serving treatment: admission control,
        deadline token wired into every row boundary *and* the scatter
        retry budget, and the session/statement shard-failure policy.

        The query's own source decides snapshot pinning (builders over
        durable tables read current published state); the chaos harness
        drives the Figure-3 builder queries through here."""
        return self.cursor()._execute_query(query, timeout_ms,
                                            on_shard_failure)

    def _submit_read(self, sql: str, params: Sequence[Any],
                     token: CancelToken,
                     on_shard_failure: Optional[str] = None) -> Future:
        self._live()
        # compile in the caller's thread: catalog resolution pins
        # snapshots on session state, which only the owning thread may
        # touch; the worker gets a fully bound plan
        query = compile_sql(self._catalog, sql, list(params))
        return self._submit_query(query, token, sql, on_shard_failure)

    def _submit_query(self, query: Query, token: CancelToken,
                      label: str,
                      on_shard_failure: Optional[str]) -> Future:
        self._live()
        _STATEMENTS.inc()
        policy = ScatterPolicy(
            on_failure=on_shard_failure or self.on_shard_failure,
            token=token)
        hooked = query.instrumented(
            lambda _row: token.check()).with_scatter_policy(policy)

        def run() -> List[dict]:
            token.check()  # queue wait may already have eaten the deadline
            with _trace.span("serve.query", statement=label[:120]) as sp:
                rows = hooked.rows()
                sp.record("rows_out", len(rows))
                sp.record("queue_plus_exec_ms", token.elapsed_ms())
            if getattr(rows, "degraded", None) is not None:
                _DEGRADED.inc()
            return rows

        return self._server.reads.submit(run)

    # -- writes ------------------------------------------------------------

    def insert(self, table_name: str, row: dict,
               timeout_ms: Optional[float] = None) -> None:
        """Durably insert one row; returns after the row's group-commit
        batch is fsynced and published (so this session — and any new
        snapshot — sees it)."""
        self.insert_many(table_name, [row], timeout_ms)

    def insert_many(self, table_name: str, rows: Sequence[dict],
                    timeout_ms: Optional[float] = None) -> None:
        """Insert a batch all-or-nothing; on a durable table as one
        commit (single fsync)."""
        rows = list(rows)
        if not rows:
            return
        self._live()
        _WRITES.inc()
        table = self._server.db.table(table_name)
        future = self._server.writes.submit(
            lambda: self._server.durable_insert(table, rows))
        if self._wait_write(future, timeout_ms) is not None:
            self._advance_pin(table_name, table)

    @staticmethod
    def _wait_write(future: Future, timeout_ms: Optional[float]) -> Any:
        if timeout_ms is None:
            return future.result()
        try:
            return future.result(timeout=timeout_ms / 1000.0)
        except TimeoutError:
            # the write itself still lands (durability is not revoked);
            # only this acknowledgement wait gave up
            _TIMEOUTS.inc()
            raise QueryTimeout(
                "write acknowledgement deadline exceeded",
                timeout_ms) from None

    # -- lifecycle ---------------------------------------------------------

    def _live(self) -> None:
        if self._closed or self._server.closed:
            raise SessionClosed("session is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):
            cursor.cancel()
        self._cursors.clear()
        self._pins.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class Server:
    """The concurrent front-end over one embedded database.

    Owns the two admission lanes and the write lock; it never changes
    the tables it serves.  Group commit batches across sessions because
    the write workers wait for durability outside the write lock: the
    first to find a table's pipeline idle leads the batch on its own
    thread, and the others' commits ride along in it."""

    def __init__(self, db: Database, read_workers: int = 4,
                 write_workers: int = 4, queue_limit: int = 64,
                 on_shard_failure: str = "fail") -> None:
        if on_shard_failure not in ("fail", "partial"):
            raise ValueError(
                f"on_shard_failure must be 'fail' or 'partial', got "
                f"{on_shard_failure!r}")
        self.db = db
        #: server-wide default shard-failure policy; sessions inherit it
        #: and statements may override per call
        self.on_shard_failure = on_shard_failure
        self.reads = AdmissionController("read", workers=read_workers,
                                         queue_limit=queue_limit)
        self.writes = AdmissionController("write", workers=write_workers,
                                          queue_limit=queue_limit)
        # serializes heap/index mutation across write workers; the
        # durability wait happens OUTSIDE it (see durable_insert)
        self._write_lock = _locks.make_lock("serve.write")
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def session(self) -> Session:
        if self._closed:
            raise SessionClosed("server is closed")
        return Session(self)

    def durable_insert(self, table: Table, rows: Sequence[dict]) -> Any:
        """Write-lane body: stage the rows' heap/index mutation as one
        commit under the write lock, then wait for durability with **no
        lock held**.  Returns the acknowledged commit handle, or None
        for a table without a store (nothing to wait for).
        Concurrent write workers therefore overlap their fsync waits,
        and the commit pipeline's leader folds them into one batch."""
        with _trace.span("serve.write", table=table.name,
                         rows=len(rows)):
            with self._write_lock:
                handle = table.insert_many_pending(rows)
            if handle is not None:
                table.store.pipeline.wait(handle)
        return handle

    def close(self) -> None:
        """Stop admitting, drain both lanes, and shut them down.  The
        database (and its stores) stay open — closing them is their
        owner's job, typically after this returns."""
        if self._closed:
            return
        self._closed = True
        self.reads.close()
        self.writes.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()
