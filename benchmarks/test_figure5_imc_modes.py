"""Figure 5 — NOBENCH Q1-Q11: TEXT-MODE vs OSON-IMC-MODE.

The paper's shape: evaluating the 11 NOBENCH queries over in-memory OSON
is dramatically faster than over cached JSON text, because TEXT mode must
re-tokenize every document per query while OSON jump-navigates.  Both
modes run the same SQL text through the engine: TEXT over a CLOB table
of JSON text, OSON-IMC over a BLOB table of OSON images.
"""

import time

import pytest

from benchmarks.conftest import report, scaled
from repro.engine import Database
from repro.engine.sql import execute_sql
from repro.workloads.nobench import NobenchGenerator, load_nobench, nobench_sql

N = scaled(1200)
SQL = nobench_sql(N)
QUERIES = list(SQL)


@pytest.fixture(scope="module")
def documents():
    return list(NobenchGenerator().documents(N))


@pytest.fixture(scope="module")
def databases(documents):
    databases = {"text": Database(), "oson-imc": Database()}
    for label, db in databases.items():
        load_nobench(db, documents, binary=label == "oson-imc")
    return databases


@pytest.fixture(scope="module")
def timing_table(databases):
    times = {}
    for qid in QUERIES:
        for label, db in databases.items():
            start = time.perf_counter()
            rows = execute_sql(db, SQL[qid])
            times[(qid, label)] = time.perf_counter() - start
            times[(qid, label, "size")] = len(rows)
        assert times[(qid, "text", "size")] == times[(qid, "oson-imc", "size")]
    lines = [f"{'query':<6}{'TEXT ms':>12}{'OSON-IMC ms':>14}{'speedup':>10}"]
    total_text = total_oson = 0.0
    for qid in QUERIES:
        t, o = times[(qid, "text")], times[(qid, "oson-imc")]
        total_text += t
        total_oson += o
        lines.append(f"{qid:<6}{t * 1000:>12.1f}{o * 1000:>14.1f}"
                     f"{t / o:>10.1f}x")
    lines.append(f"{'total':<6}{total_text * 1000:>12.1f}"
                 f"{total_oson * 1000:>14.1f}{total_text / total_oson:>10.1f}x")
    report(f"Figure 5 — NOBENCH TEXT vs OSON-IMC, {N} documents", lines)
    _assert_shape(times)
    return times


def _assert_shape(times):
    """OSON-IMC must beat TEXT overall by a wide margin and on nearly
    every query individually (enforced even under --benchmark-only)."""
    total_text = sum(times[(q, "text")] for q in QUERIES)
    total_oson = sum(times[(q, "oson-imc")] for q in QUERIES)
    assert total_text / total_oson > 2.5
    wins = sum(times[(q, "text")] > times[(q, "oson-imc")] for q in QUERIES)
    assert wins >= 9


@pytest.mark.parametrize("mode", ["text", "oson-imc"])
@pytest.mark.parametrize("qid", QUERIES)
def test_figure5_query(benchmark, databases, timing_table, qid, mode):
    benchmark(execute_sql, databases[mode], SQL[qid])


def test_figure5_shape(timing_table):
    _assert_shape(timing_table)


def test_figure5_populate_cost(benchmark, documents):
    """The one-time OSON() population cost (implicit virtual column of
    section 5.2.2) — priced but excluded from the per-query numbers."""
    table = benchmark(lambda: load_nobench(Database(), documents, binary=True))
    assert len(table) == N
