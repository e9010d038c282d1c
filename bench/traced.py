"""The traced run: per-layer numbers for one workload.

End-to-end numbers come from a run with ``repro.obs`` tracing off
(:func:`bench.lifecycle.end_to_end`).  This second, separate run gives
the per-layer numbers and reports what tracing costs.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Optional

from repro.core import counters as cache_counters
from repro.obs import metrics as obs_metrics
from repro.obs import set_tracing_enabled, take_spans

from bench import layers
from bench.lifecycle import (Reads, Run, Writes, cold_starts,
                             final_compaction, read_window, recover_image,
                             set_up, write_window)
from bench.spans import layer_self_times

#: a commit is a stall when it takes longer than this many medians
STALL_FACTOR = 10

CACHES = ("sqljson.oson_adapter", "sqljson.jsontable_rows")


def _cache_tallies() -> Dict[str, tuple]:
    snapshot = cache_counters.snapshot_all()
    return {cache: (snapshot.get(cache, {}).get("hits", 0),
                    snapshot.get(cache, {}).get("misses", 0))
            for cache in CACHES}


def _accumulate(total: Dict[str, Any], delta: Dict[str, Any]) -> None:
    """Sum ``metric_deltas`` results (counters add; histograms add their
    count and sum; gauges keep the latest value)."""
    for name, value in delta.items():
        if isinstance(value, dict):
            entry = total.setdefault(name, {"count": 0, "sum": 0.0})
            entry["count"] += value["count"]
            entry["sum"] += value["sum"]
        else:
            total[name] = total.get(name, 0) + value


def traced(run: Run, seconds: int) -> Dict[str, tuple]:
    """The traced run.  Two thirds of the window, in four alternating
    slices: untraced, traced, untraced, traced.  The rates of the two
    kinds give the tracing overhead; counter deltas around the traced
    slices give the per-statement counts.  The last third of the time
    goes to the layer microbenchmarks on the same generated inputs."""
    log = run.log
    concurrent = run.workload.concurrent_writer
    commits = len(run.inputs.commit_rows)
    set_up(run, 1)
    plain, reads, writes = Reads(), Reads(), Writes()
    delta: Dict[str, Any] = {}
    lookups = {cache: [0, 0] for cache in CACHES}     # hits, misses
    device_before = run.fs.counts()
    commit_before = obs_metrics.snapshot_metrics()

    def slice_(index: int, parent: Optional[str]) -> Reads:
        if not concurrent:
            return read_window(run, seconds / 6.0, parent)
        part, wrote = write_window(run, commits * index // 4,
                                   commits * (index + 1) // 4, parent)
        writes.latencies.extend(wrote.latencies)
        return part

    with log.span("client:window") as window:
        for index in range(4):
            if index % 2 == 0:
                plain.extend(slice_(index, None))
                continue
            set_tracing_enabled(True)
            take_spans()
            metrics_before = obs_metrics.snapshot_metrics()
            caches_before = _cache_tallies()
            reads.extend(slice_(index, window))
            run.program_roots.extend(take_spans())
            set_tracing_enabled(False)
            _accumulate(delta, obs_metrics.metric_deltas(
                metrics_before, obs_metrics.snapshot_metrics()))
            for cache, after in _cache_tallies().items():
                for slot in (0, 1):
                    lookups[cache][slot] += (after[slot]
                                             - caches_before[cache][slot])
        if not concurrent:
            set_tracing_enabled(True)
            _beside, writes = write_window(run, 0, commits, window)
            run.program_roots.extend(take_spans())
            set_tracing_enabled(False)
    # the metrics registry counts whether or not spans are recorded
    commit_delta = obs_metrics.metric_deltas(commit_before,
                                             obs_metrics.snapshot_metrics())
    device = {kind: value - device_before[kind]
              for kind, value in run.fs.counts().items()}

    set_tracing_enabled(True)
    with log.span("storage:recovery"):
        recovery = recover_image(run, 2)
    final = final_compaction(run)
    with log.span("storage:cold_start"):
        cold_starts(run, 1)
    run.program_roots.extend(take_spans())
    set_tracing_enabled(False)

    run.gate.settle()
    values = layers.measure(run.inputs, log, seconds / 3.0, run.scratch)

    log.merge_program_spans(run.program_roots)
    window_spans = _descendants(log.spans, window)
    client_seconds = sum(s["end"] - s["start"] for s in window_spans
                         if s["name"].startswith("client:"))
    attributed = sum(layer_self_times(window_spans).values())

    def hit_rate(cache: str) -> float:
        hits, misses = lookups[cache]
        return hits / (hits + misses) if hits + misses else 0.0

    statements = max(1, reads.statements)
    commit_median = median(writes.latencies)

    def per_statement(name: str) -> float:
        return delta.get(name, 0) / statements

    def histogram_mean(name: str) -> float:
        entry = commit_delta.get(name)
        return entry["sum"] / entry["count"] if entry else 0.0

    values.update({
        "oson.document.decodes_per_stmt":
            per_statement("oson.document.decodes"),
        "oson.navigate.chain_walks_per_stmt":
            per_statement("oson.navigate.chain_walks"),
        "sqljson.jsontable.docs_expanded_per_row_out":
            delta.get("sqljson.jsontable.docs_expanded", 0)
            / max(1, reads.rows_out),
        "sqljson.path.dom_fallbacks":
            delta.get("sqljson.path.dom_fallbacks", 0),
        "sqljson.oson_adapter.hit_rate": hit_rate("sqljson.oson_adapter"),
        "sqljson.jsontable_rows.hit_rate": hit_rate("sqljson.jsontable_rows"),
        "engine.scatter.shards_scanned_per_stmt":
            per_statement("engine.scatter.shards_scanned"),
        "engine.scatter.shards_pruned_per_stmt":
            per_statement("engine.scatter.shards_pruned"),
        "engine.morsel.batches_per_stmt":
            per_statement("engine.morsel.batches"),
        "imc.columns_read_per_stmt": per_statement("imc.columns_read"),
        "imc.resident_bytes":
            obs_metrics.gauge("imc.resident_bytes").value,
        "imc.segment_quarantines":
            obs_metrics.counter("imc.segment_quarantines").value,
        "storage.commit_p90_ms": writes.latency(0.9) * 1e3,
        "storage.commit.mean_batch_ops":
            histogram_mean("storage.commit.batch_ops"),
        "storage.commit.wait_ms_per_commit":
            histogram_mean("storage.commit.wait_ms"),
        "storage.checkpoint_ms": final["checkpoint_seconds"] * 1e3,
        "storage.compact_ms": final["compact_seconds"] * 1e3,
        "storage.compact_bytes_rewritten": final["compact_bytes"],
        "storage.stall_ms_total":
            sum(s for s in writes.latencies
                if s > STALL_FACTOR * commit_median) * 1e3,
        "storage.recovery_records_per_s":
            recovery["records"] / recovery["samples"][-1],
        "storage.fs.writes": device["writes"],
        "storage.fs.bytes_written": device["bytes_written"],
        "storage.fs.syncs": device["syncs"],
        "serve.statements": delta.get("serve.statements", 0),
        "serve.refused": (delta.get("serve.read.shed", 0)
                          + delta.get("serve.write.shed", 0)),
        "serve.query.timeouts": delta.get("serve.query.timeouts", 0),
        "obs.trace_overhead_pct":
            100.0 * (plain.rate - reads.rate) / plain.rate,
        "obs.attributed_share":
            attributed / client_seconds if client_seconds else 0.0,
    })
    return {name: (value, 1) for name, value in values.items()}


def _descendants(spans: List[dict], root: str) -> List[dict]:
    children: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child["id"])
    return out
