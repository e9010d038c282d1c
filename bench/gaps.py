"""Probes for the known gaps the benchmark routes around.

Each probe is the ten-line repro of ``bench/KNOWN_GAPS.md`` and answers
``present`` or ``fixed``; a run prints them in its ``gaps`` section.
They are not metrics: when one turns ``fixed``, the workload that
avoids it is switched over in a benchmark change of its own.
"""

from __future__ import annotations

import gc
import weakref
from typing import Dict

from repro.core import oson
from repro.engine import Column, Database, NUMBER
from repro.engine.types import BLOB
from repro.imc import IMCStore
from repro.serve import Server
from repro.storage.files import MemoryFileSystem
from repro.workloads.purchase_orders import (PoOlapQueries, PoQueryParams,
                                             PurchaseOrderGenerator,
                                             build_po_views)

from bench.oracle import canon


def g1_sharded_oson_pruning() -> str:
    """A sharded durable table whose JSON column is OSON answers
    Figure-3 q3-q6 and q8 with no rows: pruning drops matching rows."""
    documents = list(PurchaseOrderGenerator(seed=5).documents(200))
    params = PoQueryParams(documents)
    answers = []
    for shards in (None, 4):
        db = Database()
        kwargs = {"shards": 4, "routing_field": "did"} if shards else {}
        table = db.create_table("po", [Column("did", NUMBER),
                                       Column("jdoc", BLOB)], durable="/po",
                                fs=MemoryFileSystem(), **kwargs)
        table.insert_many([{"did": i, "jdoc": oson.encode(doc)}
                           for i, doc in enumerate(documents)])
        queries = PoOlapQueries(*build_po_views(db, table, "jdoc", "g1"))
        answers.append([canon(queries.query(qid, params).rows())
                        for qid in ("q3", "q4", "q5", "q6", "q8")])
        table.close()
    return "fixed" if answers[0] == answers[1] else "present"


def g2_sql_on_imc_bound_table() -> str:
    """``Session.execute("SELECT ...")`` on an IMC-bound durable table
    raises AttributeError: '_SnapshotView' object has no attribute 'imc'."""
    db = Database()
    table = db.create_table("nb", [Column("id", NUMBER)], durable="/nb",
                            fs=MemoryFileSystem())
    table.insert_many([{"id": i} for i in range(10)])
    IMCStore().bind(table)
    with Server(db) as server, server.session() as session:
        try:
            rows = session.execute("SELECT id FROM nb WHERE id = 3").fetchall()
        except AttributeError:
            return "present"
        finally:
            table.close()
    return "fixed" if rows == [{"id": 3}] else "present"


def g3_session_retains_cursors() -> str:
    """A session keeps every cursor it issued, with its result rows,
    until the session closes: a long-lived session grows without bound
    and its statements slow down as the collector walks the backlog."""
    db = Database()
    db.create_table("t", [Column("id", NUMBER)]).insert({"id": 1})
    with Server(db) as server, server.session() as session:
        cursor = session.execute("SELECT id FROM t")
        cursor.fetchall()
        cursor.close()
        alive = weakref.ref(cursor)
        del cursor
        gc.collect()
        return "present" if alive() is not None else "fixed"


def probe_all() -> Dict[str, str]:
    return {"G1": g1_sharded_oson_pruning(),
            "G2": g2_sql_on_imc_bound_table(),
            "G3": g3_session_retains_cursors()}
