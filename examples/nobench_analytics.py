#!/usr/bin/env python3
"""NOBENCH analytics across the three in-memory modes (paper section 6.4).

Generates a NOBENCH collection, loads it three ways and runs the same SQL
statements through the engine in each, reporting the speedups:

* TEXT-MODE     — ``jdoc`` is a CLOB of JSON text, re-parsed by every query;
* OSON-IMC-MODE — ``jdoc`` is a BLOB of OSON images (the implicit OSON()
  virtual column of section 5.2.2); queries jump-navigate;
* VC-IMC-MODE   — the OSON table plus three JSON_VALUE virtual columns
  populated into the IMC as numpy vectors; Q6/Q7 are spelled over them
  and run as an IMC SCAN.

Run:  python examples/nobench_analytics.py [doc_count]
"""

import sys
import time

from repro.core import oson
from repro.engine import Database
from repro.engine.sql import execute_sql
from repro.imc import IMCStore
from repro.jsontext import loads
from repro.workloads.nobench import (NobenchGenerator, add_vc_columns,
                                     load_nobench, nobench_sql, vc_sql)


def build(documents, binary, vc):
    """One mode's database, its populate time and its in-memory bytes."""
    db = Database()
    start = time.perf_counter()
    table = load_nobench(db, documents, binary=binary)
    memory = table.storage_bytes()
    if vc:
        imc = IMCStore()
        imc.populate(table, add_vc_columns(table))
        memory += imc.memory_bytes()
    return db, time.perf_counter() - start, memory


def decoded(rows):
    """Rows with ``jdoc`` as a JSON value, so modes compare by answer."""
    def value(jdoc):
        return oson.decode(jdoc) if isinstance(jdoc, bytes) else loads(jdoc)
    return [{**row, "jdoc": value(row["jdoc"])} if "jdoc" in row else row
            for row in rows]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    print(f"Generating {n} NOBENCH documents "
          f"(~11 common fields + 10 sparse fields each)...")
    documents = list(NobenchGenerator().documents(n))
    sql = nobench_sql(n)
    statements = {"TEXT": sql, "OSON-IMC": sql, "VC-IMC": {**sql, **vc_sql(n)}}

    modes = {}
    for label, binary, vc in (("TEXT", False, False),
                              ("OSON-IMC", True, False),
                              ("VC-IMC", True, True)):
        modes[label], seconds, memory = build(documents, binary, vc)
        print(f"  {label:<9} loaded in {seconds * 1000:8.1f} ms, "
              f"{memory / 1024:9.1f} KiB in memory")

    print(f"\n{'query':<6}{'TEXT ms':>10}{'OSON-IMC ms':>13}"
          f"{'VC-IMC ms':>11}{'best speedup':>14}")
    totals = dict.fromkeys(modes, 0.0)
    for qid in sql:
        row = {}
        answers = []
        for label, db in modes.items():
            start = time.perf_counter()
            result = execute_sql(db, statements[label][qid])
            row[label] = time.perf_counter() - start
            totals[label] += row[label]
            answers.append(decoded(result))
        assert all(a == answers[0] for a in answers), f"{qid}: modes disagree!"
        speedup = row["TEXT"] / min(row["OSON-IMC"], row["VC-IMC"])
        print(f"{qid:<6}{row['TEXT'] * 1000:>10.1f}"
              f"{row['OSON-IMC'] * 1000:>13.1f}"
              f"{row['VC-IMC'] * 1000:>11.1f}{speedup:>13.1f}x")
    print(f"{'total':<6}{totals['TEXT'] * 1000:>10.1f}"
          f"{totals['OSON-IMC'] * 1000:>13.1f}"
          f"{totals['VC-IMC'] * 1000:>11.1f}"
          f"{totals['TEXT'] / totals['OSON-IMC']:>13.1f}x")
    print("\n(Figure 5 is the TEXT vs OSON-IMC comparison; Figure 6 is "
          "OSON-IMC vs VC-IMC on Q6/Q7/Q10/Q11.  Q10/Q11 read jdoc, so on the "
          "VC-IMC table they take the row path.)")


if __name__ == "__main__":
    main()
