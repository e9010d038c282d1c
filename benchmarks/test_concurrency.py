"""Concurrent commit throughput — group-commit WAL vs per-commit fsync.

ISSUE 7's serving-layer claim: batching many sessions' commits into one
WAL fsync multiplies commit throughput under concurrency.  The
experiment runs N client threads against one durable store whose file
system charges a fixed latency per ``sync`` (the one hardware cost that
dominates real commit paths and that an in-memory file system otherwise
hides).  Modes:

* **group** — the shipped configuration: unbounded batch, led by one
  of the waiting clients (the leader drains every staged commit per
  fsync);
* **baseline** — ``pipeline.set_batch_limit(1)``: same threads, same
  store, but one fsync per commit (the pre-group-commit protocol).

Shape asserted: at 8 clients, group commit sustains **>= 3x** the
baseline's commits/sec (the acceptance gate).  With batching, fsyncs
amortize across waiters, so the factor approaches the mean batch size.

Output: per-(mode, clients) p50/p99 commit latency and commits/sec, in
``BENCH_results.json`` under ``concurrency`` and standalone in
``BENCH_concurrency.json`` (CI artifact)."""

import json
import os
import sys
import threading
import time

import pytest

from benchmarks.conftest import record, report, scaled
from repro.storage import CollectionStore, MemoryFileSystem
from repro.storage.files import FileSystem

#: simulated fsync latency (seconds); dominates each commit the way a
#: real disk flush would
SYNC_LATENCY = 0.002

#: commits per client thread
OPS = scaled(30, minimum=8)

CLIENT_COUNTS = (1, 8, 64)

#: acceptance gate: group commit vs per-commit fsync at 8 clients
GATE_CLIENTS = 8
GATE_FACTOR = 3.0

CONCURRENCY_RESULTS_PATH = os.environ.get("REPRO_BENCH_CONCURRENCY",
                                          "BENCH_concurrency.json")


class SlowSyncFileSystem(FileSystem):
    """Delegates to a MemoryFileSystem but charges ``SYNC_LATENCY`` per
    ``sync`` — deterministic stand-in for a disk flush."""

    def __init__(self, inner=None, latency=SYNC_LATENCY):
        self.inner = inner if inner is not None else MemoryFileSystem()
        self.latency = latency
        self.syncs = 0
        self._count_lock = threading.Lock()

    def _slow_handle(self, handle):
        return _SlowSyncHandle(self, handle)

    def create(self, path):
        return self._slow_handle(self.inner.create(path))

    def open_append(self, path):
        return self._slow_handle(self.inner.open_append(path))

    def read_bytes(self, path):
        return self.inner.read_bytes(path)

    def exists(self, path):
        return self.inner.exists(path)

    def file_size(self, path):
        return self.inner.file_size(path)

    def listdir(self, path):
        return self.inner.listdir(path)

    def replace(self, src, dst):
        self.inner.replace(src, dst)

    def remove(self, path):
        self.inner.remove(path)

    def ensure_dir(self, path):
        self.inner.ensure_dir(path)


class _SlowSyncHandle:
    def __init__(self, fs, inner):
        self._fs = fs
        self._inner = inner

    def write(self, data):
        self._inner.write(data)

    def flush(self):
        self._inner.flush()

    def sync(self):
        time.sleep(self._fs.latency)
        with self._fs._count_lock:
            self._fs.syncs += 1
        self._inner.sync()

    def close(self):
        self._inner.close()

    def tell(self):
        return self._inner.tell()


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_commit_load(clients, batch_limit=None):
    """``clients`` threads x ``OPS`` inserts each; returns the stats."""
    fs = SlowSyncFileSystem()
    store = CollectionStore.create("db", fs=fs)
    pipeline = store.pipeline
    if batch_limit is not None:
        pipeline.set_batch_limit(batch_limit)
    latencies = [[] for _ in range(clients)]
    start_gate = threading.Barrier(clients + 1)

    def client(index):
        mine = latencies[index]
        start_gate.wait()
        for op in range(OPS):
            begin = time.perf_counter()
            store.insert({"client": index, "op": op})
            mine.append((time.perf_counter() - begin) * 1000.0)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    start_gate.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    commits = clients * OPS
    # syncs before close/checkpoint noise: captured now
    syncs = fs.syncs
    store.close()
    merged = sorted(value for bucket in latencies for value in bucket)
    return {
        "clients": clients,
        "commits": commits,
        "elapsed_s": round(elapsed, 4),
        "commits_per_sec": round(commits / elapsed, 1),
        "p50_ms": round(percentile(merged, 0.50), 3),
        "p99_ms": round(percentile(merged, 0.99), 3),
        "fsyncs": syncs,
        "mean_batch": round(commits / max(1, syncs), 2),
    }


@pytest.fixture(scope="module")
def measurements():
    results = {"group": {}, "baseline": {}}
    for clients in CLIENT_COUNTS:
        results["group"][clients] = run_commit_load(clients)
    # the baseline only needs the gate point (and the single-client
    # sanity point, where group commit must NOT be slower than 0.8x)
    for clients in (1, GATE_CLIENTS):
        results["baseline"][clients] = run_commit_load(clients,
                                                       batch_limit=1)
    payload = {
        "meta": {
            "sync_latency_ms": SYNC_LATENCY * 1000.0,
            "ops_per_client": OPS,
            "gate": {"clients": GATE_CLIENTS, "factor": GATE_FACTOR},
        },
        "group_commit": {str(c): stats
                         for c, stats in results["group"].items()},
        "per_commit_fsync": {str(c): stats
                             for c, stats in results["baseline"].items()},
    }
    with open(CONCURRENCY_RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nconcurrency results written to {CONCURRENCY_RESULTS_PATH}",
          file=sys.stderr)
    record("concurrency", "group_commit", payload["group_commit"])
    record("concurrency", "per_commit_fsync", payload["per_commit_fsync"])
    lines = [f"{'mode':<18}{'clients':>8}{'commits/s':>12}"
             f"{'p50 ms':>9}{'p99 ms':>9}{'batch':>7}"]
    for mode, per_clients in (("group", results["group"]),
                              ("baseline", results["baseline"])):
        for clients, stats in sorted(per_clients.items()):
            lines.append(
                f"{mode:<18}{clients:>8}{stats['commits_per_sec']:>12}"
                f"{stats['p50_ms']:>9}{stats['p99_ms']:>9}"
                f"{stats['mean_batch']:>7}")
    report("Concurrent commit throughput (group commit vs per-commit "
           "fsync)", lines)
    return results


class TestGroupCommitThroughput:
    def test_gate_3x_at_8_clients(self, measurements):
        """The acceptance criterion: group commit >= 3x the per-commit-
        fsync baseline's commits/sec at 8 concurrent clients."""
        group = measurements["group"][GATE_CLIENTS]
        baseline = measurements["baseline"][GATE_CLIENTS]
        factor = group["commits_per_sec"] / baseline["commits_per_sec"]
        assert factor >= GATE_FACTOR, (
            f"group commit only {factor:.2f}x the per-commit-fsync "
            f"baseline at {GATE_CLIENTS} clients "
            f"({group['commits_per_sec']}/s vs "
            f"{baseline['commits_per_sec']}/s)")

    def test_batching_actually_happened(self, measurements):
        """The speedup must come from fsync amortization, not noise:
        at 8 clients the mean batch size exceeds 2 commits/fsync and
        the fsync count is well under one per commit."""
        group = measurements["group"][GATE_CLIENTS]
        assert group["mean_batch"] > 2.0
        assert group["fsyncs"] < group["commits"]

    def test_single_client_pays_no_batching_penalty(self, measurements):
        """With one client there is nothing to batch: group commit must
        stay within noise of the per-commit-fsync baseline (>= 0.7x)."""
        group = measurements["group"][1]
        baseline = measurements["baseline"][1]
        assert group["commits_per_sec"] >= 0.7 * baseline["commits_per_sec"]

    def test_throughput_scales_with_clients(self, measurements):
        """More concurrent clients -> more batching -> more commits/sec
        (64 clients beats 1 client by a wide margin)."""
        one = measurements["group"][1]["commits_per_sec"]
        many = measurements["group"][64]["commits_per_sec"]
        assert many > 2.0 * one

    def test_acknowledged_commits_all_durable(self):
        """Throughput never trades away durability: every acknowledged
        commit survives a reopen."""
        fs = SlowSyncFileSystem(latency=0.0005)
        store = CollectionStore.create("db", fs=fs)
        inserted = []

        def client(base):
            for op in range(10):
                inserted.append(store.insert({"c": base, "op": op}))

        threads = [threading.Thread(target=client, args=(base,))
                   for base in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()
        again = CollectionStore.open("db", fs=fs)
        assert set(again.doc_ids()) == set(inserted)
        again.close()
