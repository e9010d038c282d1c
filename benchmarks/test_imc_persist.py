"""Persistent IMC — cold-start from column segments vs rebuild-from-OSON.

The tentpole's performance claim: reopening a store whose populated
columns were lifted into durable column segments serves the columnar
form by decoding checksummed frames, skipping the per-document
JSON_VALUE extraction entirely.  On the Figure 5/6 NOBENCH virtual
columns ($.str1, $.num, $.dyn1) the segment load must be at least
``GATE_FACTOR``× faster than the rebuild, and the loaded values must
be identical.

Emits ``BENCH_imc_persist.json`` (override with
``REPRO_BENCH_IMC_PERSIST``) for the CI artifact.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import record, report, scaled
from repro.engine import CLOB, Column, NUMBER, Query, expr
from repro.engine.table import DurableTable
from repro.imc import IMCStore
from repro.jsontext import dumps
from repro.storage import CollectionStore
from repro.workloads.nobench import NobenchGenerator, add_vc_columns

N = scaled(2000)
REPS = 3
GATE_FACTOR = 3.0
RESULTS_PATH = os.environ.get("REPRO_BENCH_IMC_PERSIST",
                              "BENCH_imc_persist.json")


def make_table(store):
    """The NOBENCH text table over ``store`` with the Figure 5/6 virtual
    columns; returns (table, virtual column names)."""
    table = DurableTable("nb", [Column("id", NUMBER),
                                Column("jdoc", CLOB)], store)
    return table, add_vc_columns(table)


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """Two identical stores: one with lifted segments, one without."""
    texts = [dumps(d) for d in NobenchGenerator().documents(N)]
    base = tmp_path_factory.mktemp("imc_persist")
    dirs = {"segments": str(base / "with-segments"),
            "rebuild": str(base / "rebuild-only")}
    for label, directory in dirs.items():
        store = CollectionStore.create(directory)
        table, names = make_table(store)
        for i, text in enumerate(texts):
            table.insert({"id": i, "jdoc": text})
        if label == "segments":
            IMCStore().populate(table, names)  # registers the provider
        store.checkpoint()  # lifts segments only where populated
        store.close()
    return dirs


def cold_populate(directory):
    """One cold start: open, bind, populate the VC columns; returns
    (elapsed seconds of the populate only, loaded values, imc)."""
    store = CollectionStore.open(directory)
    table, names = make_table(store)
    imc = IMCStore()
    imc.bind(table)
    start = time.perf_counter()
    imc.populate(table, names)
    elapsed = time.perf_counter() - start
    values = {name: imc.column("nb", name).to_list() for name in names}
    quarantines = len(imc.segment_quarantines())
    store.close()
    return elapsed, values, quarantines


@pytest.fixture(scope="module")
def timing_table(seeded):
    times = {"segments": [], "rebuild": []}
    reference = None
    for _ in range(REPS):
        for label in times:
            elapsed, values, quarantines = cold_populate(seeded[label])
            assert quarantines == 0
            times[label].append(elapsed)
            if reference is None:
                reference = values
            else:
                assert values == reference, (
                    f"{label}: cold values diverge from first run")
    best = {label: min(samples) for label, samples in times.items()}
    speedup = best["rebuild"] / best["segments"]

    # the projection contract, read back out of EXPLAIN ANALYZE
    store = CollectionStore.open(seeded["segments"])
    table, _names = make_table(store)
    IMCStore().bind(table)
    analyze = (Query(table)
               .where(expr.Col("num") > 500)
               .select("str1", "num")
               .explain(analyze=True))
    store.close()
    assert "metric imc.columns_read: 2" in analyze
    assert "metric imc.populates" not in analyze

    lines = [
        f"{'cold start path':<24}{'best of ' + str(REPS) + ' (ms)':>18}",
        f"{'rebuild-from-OSON':<24}{best['rebuild'] * 1000:>18.1f}",
        f"{'column segments':<24}{best['segments'] * 1000:>18.1f}",
        f"{'speedup':<24}{speedup:>17.1f}x",
    ]
    report(f"Persistent IMC — cold start, {N} NOBENCH documents, "
           f"{len(reference)} virtual columns", lines)

    results = {"n_docs": N, "reps": REPS, "columns": list(reference),
               "rebuild_ms": round(best["rebuild"] * 1000, 3),
               "segments_ms": round(best["segments"] * 1000, 3),
               "speedup": round(speedup, 2),
               "explain_head": analyze.splitlines()[1]}
    record("imc_persist", "cold_start", results)
    payload = {"meta": {"gate": {"factor": GATE_FACTOR}},
               "imc_persist": results}
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nimc persist results written to {RESULTS_PATH}")
    return best


def test_cold_start_speedup(timing_table):
    """Segments must beat rebuild-from-OSON by the gate factor."""
    speedup = timing_table["rebuild"] / timing_table["segments"]
    assert speedup >= GATE_FACTOR, (
        f"cold start from segments only {speedup:.1f}x faster "
        f"(gate {GATE_FACTOR}x)")


def test_segment_cold_start_benchmark(benchmark, seeded, timing_table):
    benchmark(lambda: cold_populate(seeded["segments"]))
