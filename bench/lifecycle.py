"""One run of one workload: set-up, the timed window, the crash image,
recovery, the final compaction and cold starts — the life of a served
durable store, measured end to end.

Load is a closed loop from this one process with two client threads
(each waits for its reply before sending the next statement) against
``Server(read_workers=2, write_workers=1)`` on the real file system
with the store's default flush policy: one fsync per group-commit
batch, and with one writer every commit is its own batch.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import take_spans
from repro.storage import CollectionStore
from repro.storage.shard import ShardedStore

from bench.quiet import QuietGate
from bench.spans import SpanLog
from bench.stats import percentile
from bench.tracefs import TraceFS
from bench.workloads import Inputs, Served, Workload

SETUP_REPS = 3      # set-ups per run; setup_s is their median
REOPEN_REPS = 5     # recoveries and cold starts per run


@dataclass
class Tally:
    """Operations attempted and failed (error, refusal, timeout or
    wrong answer), counted across every phase of the run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, ok: bool, note: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"failed: {note}")


@dataclass
class Reads:
    """What the recording readers saw, cycle by cycle.  A cycle holds
    one of each statement, so every cycle has the same composition; each
    figure is computed per cycle and reported as the median over cycles,
    which a few seconds of interference from outside cannot move."""

    #: (client, seconds the cycle took, its statements' latencies)
    cycles: List[tuple] = field(default_factory=list)
    rows_out: int = 0

    @property
    def statements(self) -> int:
        return sum(len(latencies) for _c, _d, latencies in self.cycles)

    def latency(self, q: float) -> float:
        if not self.cycles:
            raise ValueError("the window was too short for one cycle")
        return median([percentile(latencies, q)
                       for _c, _d, latencies in self.cycles])

    @property
    def rate(self) -> float:
        """Statements per second: each client's median cycle rate, summed."""
        clients = {client for client, _d, _l in self.cycles}
        return sum(median([len(latencies) / duration
                           for c, duration, latencies in self.cycles
                           if c == client])
                   for client in clients)

    def extend(self, other: "Reads") -> None:
        self.cycles += other.cycles
        self.rows_out += other.rows_out


#: commits per chunk; commit figures are medians over chunks
COMMIT_CHUNK = 25


@dataclass
class Writes:
    latencies: List[float] = field(default_factory=list)

    def _chunks(self) -> List[List[float]]:
        whole = len(self.latencies) - len(self.latencies) % COMMIT_CHUNK
        return [self.latencies[i:i + COMMIT_CHUNK]
                for i in range(0, whole, COMMIT_CHUNK)] or [self.latencies]

    def latency(self, q: float) -> float:
        return median([percentile(chunk, q) for chunk in self._chunks()])

    @property
    def rate(self) -> float:
        """Commits per second in the steady state: the median chunk's.
        Checkpoints and compactions fall into a few chunks only; what
        they cost is in the per-layer figures."""
        return median([len(chunk) / sum(chunk) for chunk in self._chunks()])


class Run:
    """State shared by the phases of one run."""

    def __init__(self, workload: Workload, inputs: Inputs, scratch: str,
                 log: Optional[SpanLog], quick: bool = False) -> None:
        #: a smoke run sets up, recovers and cold-starts once each
        self.setup_reps = 1 if quick else SETUP_REPS
        self.reopen_reps = 1 if quick else REOPEN_REPS
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.log = log
        self.tally = Tally()
        #: ``settle()`` before each phase: see bench/quiet.py (a smoke
        #: run never waits)
        self.gate = QuietGate(0.0) if quick else QuietGate()
        self.acked = 0                  # commit rows acknowledged so far
        self.program_roots: List[Any] = []
        self.directory = ""
        self.fs: TraceFS = TraceFS()
        self.served: Optional[Served] = None

    @contextmanager
    def client_span(self, name: str, parent: Optional[str]) -> Iterator[None]:
        """In a traced run: a benchmark-owned span around one client
        call, then the program's spans it caused are collected."""
        if self.log is None:
            yield
            return
        with self.log.span(name, parent):
            yield
        self.program_roots.extend(take_spans())

    def execute(self, session: Any, statement: Any,
                parent: Optional[str] = None) -> tuple:
        """Run one statement, check its answer; (seconds, rows out)."""
        rows: List[dict] = []
        start = time.perf_counter()
        try:
            with self.client_span("client:statement", parent):
                rows = statement.run(session)
            error = None
        except (ReproError, OSError) as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if error is not None:
            self.tally.record(False, f"{statement.key}: {error!r}")
        else:
            self.tally.record(statement.check(rows),
                              f"{statement.key}: wrong answer "
                              f"({len(rows)} rows)")
        return elapsed, len(rows)


# -- phase A: set-up ----------------------------------------------------------


def set_up(run: Run, reps: int) -> List[float]:
    """Build the served store ``reps`` times (fresh directory each);
    the last build is the one measured.  A set-up ends when every
    statement has been answered correctly once: caches are filled and
    lazy work is done."""
    samples = []
    for rep in range(reps):
        if run.served is not None:
            run.served.close()
            shutil.rmtree(run.directory)
        run.directory = os.path.join(run.scratch, f"store-{rep}")
        run.fs = TraceFS()
        run.gate.settle()
        start = time.perf_counter()
        run.served = run.workload.open(run.inputs, run.directory, run.fs,
                                       load=True)
        with run.served.server.session() as session:
            for statement in run.workload.statements(run.inputs, run.served):
                run.execute(session, statement)
        samples.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    return samples


# -- phase B: the timed window ------------------------------------------------


def read_clients(run: Run, clients: int,
                 keep_going: Callable[[float, float], bool],
                 parent: Optional[str] = None,
                 beside_writer: bool = False) -> Reads:
    """``clients`` closed-loop reader threads.  Each records whole
    cycles while ``keep_going(elapsed, mean_cycle_seconds)`` holds, then
    keeps issuing unrecorded statements until every client has finished
    recording, so each recorded statement ran beside the same number of
    busy clients.  A window too short for one cycle records none."""
    reads = Reads()
    lock = threading.Lock()
    recording = [clients]
    served, workload, inputs = run.served, run.workload, run.inputs

    def client(index: int) -> None:
        cycles: List[tuple] = []
        rows_out = 0
        number = 0

        def one_cycle(record: bool) -> None:
            # a session per cycle: a session keeps every cursor (and its
            # rows) it ever issued until it closes (known gap G3)
            nonlocal rows_out
            latencies = []
            begin = time.perf_counter()
            with served.server.session() as session:
                for statement in workload.cycle(inputs, served, index,
                                                number, lambda: run.acked,
                                                beside_writer):
                    if not record and recording[0] <= 0:
                        return
                    seconds, rows = run.execute(session, statement, parent)
                    latencies.append(seconds)
                    rows_out += rows if record else 0
            if record:
                cycles.append((index, time.perf_counter() - begin,
                               latencies))

        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if not keep_going(elapsed, elapsed / number if number else 0):
                break
            one_cycle(True)
            number += 1
        with lock:
            recording[0] -= 1
            reads.cycles += cycles
            reads.rows_out += rows_out
        while recording[0] > 0:
            one_cycle(False)
            number += 1

    threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reads


def for_seconds(seconds: float) -> Callable[[float, float], bool]:
    """Start another cycle while it is more likely than not to end
    inside the window."""
    return lambda elapsed, cycle: elapsed + cycle / 2 < seconds


def write_commits(run: Run, first: int, last: int,
                  parent: Optional[str] = None) -> Writes:
    """The writer: acked single-row inserts ``first..last`` of the
    commit rows.  Every writer follows one schedule — a checkpoint each
    fifth of its rows and a compaction after three fifths.  Maintenance
    runs in the writer's thread just before the next insert and is
    charged to that insert's latency (the wait an insert arriving
    during the pipeline's pause would see), so device counts repeat
    exactly from run to run."""
    rows = run.inputs.commit_rows
    every = max(1, len(rows) // 5)
    table = run.served.table
    writes = Writes()
    with run.served.server.session() as session:
        for k in range(first, last):
            start = time.perf_counter()
            if k and k % every == 0:
                if k == 3 * every:
                    table.store.compact()
                else:
                    table.checkpoint()
            try:
                with run.client_span("client:commit", parent):
                    session.insert(run.workload.table_name, rows[k])
                ok = True
            except (ReproError, OSError) as exc:
                ok = False
                run.tally.record(False, f"commit {k}: {exc!r}")
            writes.latencies.append(time.perf_counter() - start)
            if ok:
                run.tally.record(True)
                run.acked = k + 1
    return writes


def read_window(run: Run, seconds: float,
                parent: Optional[str] = None) -> Reads:
    """Two readers for ``seconds``."""
    run.gate.settle()
    return read_clients(run, 2, for_seconds(seconds), parent)


def write_window(run: Run, first: int, last: int,
                 parent: Optional[str] = None) -> tuple:
    """The writer's fixed work (commit rows ``first..last``) beside one
    reader; returns what the reader and the writer saw.

    Every writer works beside a busy reader.  An insert crosses three
    threads and waits for the interpreter lock at every hand-over; that
    is what a commit costs in a process that also serves reads.  On an
    idle process a commit takes 0.3 ms here and follows the shared
    device's fsync time, which moved the figure by a quarter between
    identical runs."""
    run.gate.settle()
    done = threading.Event()
    result: List[Writes] = []

    def writer() -> None:
        try:
            result.append(write_commits(run, first, last, parent))
        finally:
            done.set()

    thread = threading.Thread(target=writer, name="client-writer")
    thread.start()
    reads = read_clients(run, 1, lambda _e, _c: not done.is_set(), parent,
                         beside_writer=True)
    thread.join()
    return reads, result[0]


# -- phases C-E: crash image, recovery, final compaction, cold start ----------


def recover_image(run: Run, reps: int) -> Dict[str, Any]:
    """Materialise the durable image (each file cut to its last-fsynced
    length, so unflushed bytes are discarded) and recover fresh copies
    of it; every acknowledged key must be there."""
    image = os.path.join(run.scratch, "image")
    run.fs.materialise(run.directory, image)
    key = run.workload.key_column
    expected = {row[key] for row in run.inputs.rows}
    expected.update(row[key]
                    for row in run.inputs.commit_rows[:run.acked])
    opener = ShardedStore if run.workload.shards else CollectionStore
    applied = obs_metrics.counter("storage.recovery.records_applied")
    samples, lost, records = [], 0, 0
    for rep in range(reps):
        copy = os.path.join(run.scratch, f"recover-{rep}")
        shutil.copytree(image, copy)
        run.gate.settle()
        before = applied.value
        start = time.perf_counter()
        store = opener.open(copy)
        samples.append(time.perf_counter() - start)
        records = applied.value - before
        if rep == 0:
            found = {document[key] for _id, document in store.documents()}
            lost = len(expected - found)
            run.tally.record(lost == 0, f"{lost} acknowledged rows lost")
        store.close()
        shutil.rmtree(copy)
    shutil.rmtree(image)
    return {"samples": samples, "acked_lost": lost, "records": records}


def final_compaction(run: Run) -> Dict[str, Any]:
    """Checkpoint, compact, close; then weigh what is on disk."""
    table = run.served.table
    start = time.perf_counter()
    table.checkpoint()
    checkpoint_seconds = time.perf_counter() - start
    before = run.fs.counts()["bytes_written"]
    start = time.perf_counter()
    table.store.compact()
    compact_seconds = time.perf_counter() - start
    compact_bytes = run.fs.counts()["bytes_written"] - before
    run.served.close()
    on_disk = sum(os.path.getsize(os.path.join(folder, name))
                  for folder, _dirs, names in os.walk(run.directory)
                  for name in names)
    user_bytes = (sum(run.inputs.row_bytes)
                  + sum(run.inputs.commit_bytes[:run.acked]))
    return {"checkpoint_seconds": checkpoint_seconds,
            "compact_seconds": compact_seconds,
            "compact_bytes": compact_bytes,
            "write_amp": run.fs.counts()["bytes_written"] / user_bytes,
            "space_amp": on_disk / user_bytes}


def cold_starts(run: Run, reps: int) -> List[float]:
    """Open the cleanly closed store and time the way to the first
    correct answer."""
    samples = []
    for _ in range(reps):
        run.gate.settle()
        start = time.perf_counter()
        served = run.workload.open(run.inputs, run.directory, None,
                                   load=False)
        with served.server.session() as session:
            run.execute(session, run.workload.probe(run.inputs, served))
        samples.append(time.perf_counter() - start)
        served.close()
    return samples


# -- the two kinds of run -----------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, seconds: int) -> Dict[str, tuple]:
    """The untraced run: name -> (value, sample count)."""
    setup = set_up(run, run.setup_reps)
    recorded = None
    if not run.workload.concurrent_writer:
        recorded = read_window(run, seconds)
    beside, writes = write_window(run, 0, len(run.inputs.commit_rows))
    # a workload whose writer is its main window records that reader
    reads = recorded or beside
    recovery = recover_image(run, run.reopen_reps)
    final = final_compaction(run)
    cold = cold_starts(run, run.reopen_reps)
    n_reads, n_writes = reads.statements, len(writes.latencies)
    return {
        "setup_s": (median(setup), len(setup)),
        "stmt_p50_ms": (reads.latency(0.5) * 1e3, n_reads),
        "stmt_p90_ms": (reads.latency(0.9) * 1e3, n_reads),
        "stmts_per_s": (reads.rate, n_reads),
        "commit_p50_ms": (writes.latency(0.5) * 1e3, n_writes),
        "commits_per_s": (writes.rate, n_writes),
        "cold_start_p50_ms": (median(cold) * 1e3, len(cold)),
        "recovery_p50_ms": (median(recovery["samples"]) * 1e3,
                            len(recovery["samples"])),
        "write_amp": (final["write_amp"], 1),
        "space_amp": (final["space_amp"], 1),
        "peak_rss_mb": (peak_rss_mb(), 1),
        # reported through ``correct``: zero is the only acceptable value
        "acked_lost": (recovery["acked_lost"], 1),
        # reported, not bounded: where most commits take one lock
        # hand-over and some take two, the 90th percentile sits between
        # the two steps and flips from run to run
        "commit_p90_ms": (writes.latency(0.9) * 1e3, n_writes),
    }
