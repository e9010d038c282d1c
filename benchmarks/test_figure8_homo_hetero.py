"""Figure 8 — homogeneous vs heterogeneous insertion with DataGuide on.

``homo`` inserts documents with identical structures (after the first
document, $DG writes only where a longer ``str1`` widens its row);
``hetero`` gives every document a unique new field, forcing a $DG write
per insert.  Paper shape: the heterogeneous
collection costs about 2x the homogeneous one.

Cost-model caveat (see EXPERIMENTS.md): in Oracle the per-new-path $DG
persistence is a real SQL INSERT with index and redo maintenance, which
dominates the cheap fast-path check — hence 2x.  In pure Python the text
parse dominates both modes, compressing the end-to-end gap; we therefore
measure (a) end-to-end insertion through a DataGuide-enabled JSON search
index, (b) the DataGuide-maintenance-only cost — ``DataGuideBuilder.add``
plus one ``$DG`` upsert per key it returns, exactly the calls the index
makes — where the hetero penalty is directly visible, and (c) the $DG
write counts, which reproduce the mechanism exactly.
"""

import time

import pytest

from benchmarks.conftest import (
    dg_writes_per_insert,
    report,
    scaled,
    string_length_growth,
)
from repro.core.dataguide import DataGuideBuilder
from repro.index import DgTable
from repro.jsontext import dumps
from repro.workloads.nobench import NobenchGenerator

N = scaled(1500)


@pytest.fixture(scope="module")
def corpora():
    generator = NobenchGenerator()
    return {
        "homo": list(generator.homogeneous_documents(N)),
        "hetero": list(generator.heterogeneous_documents(N)),
    }


@pytest.fixture(scope="module")
def texts(corpora):
    return {label: [dumps(d) for d in docs]
            for label, docs in corpora.items()}


def _maintain_only(documents):
    builder = DataGuideBuilder()
    dg_table = DgTable("t_idx")
    for doc in documents:
        for key in builder.add(doc):
            dg_table.upsert(builder.entry(key))
    return dg_table


@pytest.fixture(scope="module")
def timing_table(corpora, texts):
    times = {}
    for label in ("homo", "hetero"):
        start = time.perf_counter()
        dg_writes_per_insert(texts[label])
        times[("insert", label)] = time.perf_counter() - start
        start = time.perf_counter()
        _maintain_only(corpora[label])
        times[("maintain", label)] = time.perf_counter() - start
    insert_ratio = times[("insert", "hetero")] / times[("insert", "homo")]
    maintain_ratio = (times[("maintain", "hetero")]
                      / times[("maintain", "homo")])
    lines = [
        f"{'':<10}{'homo ms':>10}{'hetero ms':>11}{'ratio':>8}",
        f"{'insert':<10}{times[('insert', 'homo')] * 1000:>10.1f}"
        f"{times[('insert', 'hetero')] * 1000:>11.1f}{insert_ratio:>8.2f}",
        f"{'maintain':<10}{times[('maintain', 'homo')] * 1000:>10.1f}"
        f"{times[('maintain', 'hetero')] * 1000:>11.1f}{maintain_ratio:>8.2f}",
        "(paper: ~2x end-to-end; Python parse costs compress the insert "
        "ratio — the maintenance ratio carries the signal)",
    ]
    report(f"Figure 8 — homo vs hetero insertion, {N} documents", lines)
    # hetero maintenance must be measurably dearer than the homo fast path
    assert maintain_ratio > 1.05, f"maintain hetero/homo = {maintain_ratio:.2f}"
    # end-to-end must not invert (hetero can never be cheaper)
    assert insert_ratio > 0.95
    return times


@pytest.mark.parametrize("label", ["homo", "hetero"])
def test_figure8_insert(benchmark, texts, timing_table, label):
    benchmark.pedantic(dg_writes_per_insert, args=(texts[label],),
                       rounds=3, iterations=1)


@pytest.mark.parametrize("label", ["homo", "hetero"])
def test_figure8_maintenance(benchmark, corpora, timing_table, label):
    benchmark.pedantic(_maintain_only, args=(corpora[label],),
                       rounds=3, iterations=1)


def test_figure8_write_counts(corpora, texts):
    """Every hetero insert writes at least one $DG row; after the first
    document a homo insert writes rows exactly when it raises a string
    path's maximum length (``str1`` grows with the document number),
    one per such path — the paper's mechanism."""
    homo_index, homo_deltas = dg_writes_per_insert(texts["homo"])
    assert homo_deltas[0] == len(homo_index.dg_table)
    assert homo_deltas[1:] == string_length_growth(corpora["homo"])[1:]
    _hetero_index, hetero_deltas = dg_writes_per_insert(texts["hetero"])
    assert all(delta >= 1 for delta in hetero_deltas[1:])
