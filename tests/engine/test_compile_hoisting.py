"""Expressions compile once per plan, not once per row.

Every operator takes an expression's closure through
:meth:`~repro.engine.expressions.Expression.compiled` outside its row
loop.  The ``engine.expr_compile.hits`` / ``.misses`` counters tally
those calls, so their sum must not grow with the input: each scenario
below runs at 100 and at 1000 rows and must make the same number of
``compiled()`` calls at both sizes.
"""

import pytest

from repro.engine import Column, Database, NUMBER, VARCHAR2, expr
from repro.engine.sql import execute_sql
from repro.engine.table import DurableTable
from repro.imc import IMCStore
from repro.obs.metrics import metric_deltas, snapshot_metrics
from repro.storage import CollectionStore

SIZES = (100, 1000)


def compile_calls(action):
    """``compiled()`` calls (hits + misses) made while ``action`` runs."""
    before = snapshot_metrics()
    action()
    deltas = metric_deltas(before, snapshot_metrics())
    return (deltas.get("engine.expr_compile.hits", 0)
            + deltas.get("engine.expr_compile.misses", 0))


def rows_of(n):
    return [{"id": i, "name": "n" * (i % 7) or None} for i in range(n)]


def name_len_column():
    return Column("name_len", NUMBER,
                  expression=expr.LENGTH(expr.Col("name")))


def memory_table(n):
    db = Database()
    table = db.create_table("emp", [Column("id", NUMBER),
                                    Column("name", VARCHAR2(8))])
    table.add_column(name_len_column())
    table.insert_many(rows_of(n))
    return db, table


def order_by_lag(n):
    db, _table = memory_table(n)
    return lambda: execute_sql(
        db, "SELECT id, id - LAG(id, 1, 0) OVER (ORDER BY id) AS step "
            "FROM emp ORDER BY id DESC")


def virtual_column_scan(n):
    _db, table = memory_table(n)
    return lambda: list(table.scan())


def imc_populate(n):
    _db, table = memory_table(n)
    return lambda: IMCStore().populate(table, ["id", "name_len"])


def durable_reopen(n, tmp_path):
    directory = str(tmp_path / f"store-{n}")
    store = CollectionStore.create(directory)
    table = DurableTable("emp", [Column("id", NUMBER),
                                 Column("name", VARCHAR2(8))], store)
    table.insert_many(rows_of(n))
    store.close()

    def reopen():
        reopened = CollectionStore.open(directory)
        try:
            durable = DurableTable("emp", [Column("id", NUMBER),
                                           Column("name", VARCHAR2(8))],
                                   reopened)
            durable.add_column(name_len_column())
            assert len(list(durable.snapshot_scan())) == n
            assert len(list(durable.scan())) == n
        finally:
            reopened.close()

    return reopen


@pytest.mark.parametrize("scenario", [order_by_lag, virtual_column_scan,
                                      imc_populate])
def test_compile_calls_do_not_grow_with_rows(scenario):
    small, large = (compile_calls(scenario(n)) for n in SIZES)
    assert small > 0
    assert small == large


def test_durable_reopen_compiles_once(tmp_path):
    small, large = (compile_calls(durable_reopen(n, tmp_path))
                    for n in SIZES)
    assert small > 0
    assert small == large
