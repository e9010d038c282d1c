"""Figure 6 — Q6/Q7/Q10/Q11: OSON-IMC-MODE vs VC-IMC-MODE.

The paper's shape: queries whose predicates touch only the three
IMC-loaded virtual columns ($.str1, $.num RETURNING NUMBER, $.dyn1
RETURNING NUMBER) run significantly faster against the columnar vectors
than against per-document OSON navigation.  Both modes run SQL through
the engine over a BLOB table of OSON images; VC-IMC adds the virtual
columns, populates them into an IMCStore and spells Q6/Q7/Q10 over them.
Q6 and Q7 then run as an IMC SCAN.  Q10 and Q11 still read ``jdoc``, so
they take the row path, which also evaluates every virtual column.
"""

import time

import pytest

from benchmarks.conftest import report, scaled
from repro.engine import Database
from repro.engine.sql import compile_sql, execute_sql
from repro.imc import IMCStore
from repro.workloads.nobench import (NobenchGenerator, add_vc_columns,
                                     load_nobench, nobench_sql, vc_sql)

N = scaled(4000)
QUERIES = ["q6", "q7", "q10", "q11"]
SQL = {"oson-imc": nobench_sql(N)}
SQL["vc-imc"] = {**SQL["oson-imc"], **vc_sql(N)}


@pytest.fixture(scope="module")
def databases():
    documents = list(NobenchGenerator().documents(N))
    databases = {"oson-imc": Database(), "vc-imc": Database()}
    load_nobench(databases["oson-imc"], documents, binary=True)
    table = load_nobench(databases["vc-imc"], documents, binary=True)
    IMCStore().populate(table, add_vc_columns(table))
    return databases


@pytest.fixture(scope="module")
def timing_table(databases):
    for qid in ("q6", "q7"):
        plan = compile_sql(databases["vc-imc"], SQL["vc-imc"][qid]).explain()
        assert plan.startswith("IMC SCAN nb"), f"{qid}: {plan}"
    times = {}
    for qid in QUERIES:
        results = {}
        for label, db in databases.items():
            start = time.perf_counter()
            results[label] = execute_sql(db, SQL[label][qid])
            times[(qid, label)] = time.perf_counter() - start
        assert results["oson-imc"] == results["vc-imc"]
    lines = [f"{'query':<6}{'OSON-IMC ms':>14}{'VC-IMC ms':>12}{'speedup':>10}"]
    for qid in QUERIES:
        o, v = times[(qid, "oson-imc")], times[(qid, "vc-imc")]
        lines.append(f"{qid:<6}{o * 1000:>14.1f}{v * 1000:>12.1f}"
                     f"{o / v:>10.1f}x")
    total_oson = sum(times[(q, "oson-imc")] for q in QUERIES)
    total_vc = sum(times[(q, "vc-imc")] for q in QUERIES)
    lines.append(f"{'total':<6}{total_oson * 1000:>14.1f}"
                 f"{total_vc * 1000:>12.1f}{total_oson / total_vc:>10.1f}x")
    report(f"Figure 6 — OSON-IMC vs VC-IMC, {N} documents", lines)
    _assert_shape(times)
    return times


def _assert_shape(times):
    """VC-IMC must significantly beat OSON-IMC on the VC-eligible
    selective queries (enforced even under --benchmark-only)."""
    for qid in ("q6", "q7"):
        ratio = times[(qid, "oson-imc")] / times[(qid, "vc-imc")]
        assert ratio > 5.0, f"{qid}: oson/vc = {ratio:.1f}"


@pytest.mark.parametrize("mode", ["oson-imc", "vc-imc"])
@pytest.mark.parametrize("qid", QUERIES)
def test_figure6_query(benchmark, databases, timing_table, qid, mode):
    benchmark(execute_sql, databases[mode], SQL[mode][qid])


def test_figure6_shape(timing_table):
    _assert_shape(timing_table)
