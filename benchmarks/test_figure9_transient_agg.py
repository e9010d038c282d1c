"""Figure 9 — transient DataGuide aggregation with sampling.

JSON_DATAGUIDEAGG over a NOBENCH collection at 25/50/75/99% samples, plus
persistent-index creation over the same collection.  Paper shape:

* transient aggregation time is linear in the sample percentage;
* creating the persistent DataGuide — ``create_json_search_index`` over
  the loaded CLOB table plus ``compute_statistics()``: the same parse
  and skeleton merge plus $DG persistence and inverted-index
  maintenance — costs more than the 99%-sample transient aggregation
  (paper: +27%).
"""

import time

import pytest

from benchmarks.conftest import record, report, scaled
from repro.core.dataguide import json_dataguide_agg
from repro.engine import CLOB, Column, Database, NUMBER
from repro.jsontext import dumps
from repro.workloads.nobench import NobenchGenerator

N = scaled(3000)
SAMPLES = [25, 50, 75, 99]


@pytest.fixture(scope="module")
def texts():
    return [dumps(d) for d in NobenchGenerator().documents(N)]


def _load(texts):
    """A database holding ``texts`` in table ``t(id, jdoc CLOB)``."""
    db = Database()
    table = db.create_table("t", [Column("id", NUMBER),
                                  Column("jdoc", CLOB)])
    table.insert_many([{"id": i, "jdoc": text}
                       for i, text in enumerate(texts)])
    return db


def _build_persistent(db):
    index = db.create_json_search_index("t_idx", "t", "jdoc")
    index.compute_statistics()
    return index


@pytest.fixture(scope="module")
def timing_table(texts):
    times = {}
    for pct in SAMPLES:
        start = time.perf_counter()
        guide = json_dataguide_agg(texts, sample_percent=pct, seed=42)
        times[pct] = time.perf_counter() - start
        times[(pct, "paths")] = len(guide)
    # persistent dataguide: index creation over the loaded collection
    db = _load(texts)
    start = time.perf_counter()
    _build_persistent(db)
    times["persistent"] = time.perf_counter() - start
    lines = [f"sample {pct:>3}%  {times[pct] * 1000:>10.1f} ms  "
             f"({times[(pct, 'paths')]} paths)" for pct in SAMPLES]
    lines.append(f"persistent  {times['persistent'] * 1000:>10.1f} ms  "
                 f"(+{100 * (times['persistent'] / times[99] - 1):.0f}% vs "
                 "99% transient; paper: +27%)")
    report(f"Figure 9 — transient DataGuide aggregation, {N} documents",
           lines)
    record("figure9", "n_documents", N)
    for pct in SAMPLES:
        record("figure9", f"sample_{pct}_ms", times[pct] * 1000)
    record("figure9", "persistent_ms", times["persistent"] * 1000)
    _assert_shape(times)
    return times


def _assert_shape(times):
    # time grows monotonically and roughly linearly with the sample size
    assert times[25] < times[75]
    assert times[50] < times[99]
    ratio = times[99] / times[25]
    assert 2.0 < ratio < 8.0, f"99%/25% = {ratio:.1f}"
    # the persistent build does strictly more work than a 99% transient
    assert times["persistent"] > times[99]


@pytest.mark.parametrize("pct", SAMPLES)
def test_figure9_sampled_aggregation(benchmark, texts, timing_table, pct):
    guide = benchmark(json_dataguide_agg, texts, sample_percent=pct, seed=42)
    assert len(guide) > 0


def test_figure9_persistent_creation(benchmark, texts, timing_table):
    index = benchmark.pedantic(
        _build_persistent, setup=lambda: ((_load(texts),), {}), rounds=3)
    assert index.get_dataguide().document_count == N


def test_figure9_shape(timing_table):
    _assert_shape(timing_table)
