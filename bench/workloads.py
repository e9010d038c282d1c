"""The five workloads: what each generates from the seed, how it is
built on a durable store through the public surfaces, and which
statements its clients run.

Why each exists is recorded in ``BENCHMARK.json`` (``why``) and at
length in ``bench/README.md``.  Sizes are relative to the program's own
caches: the ``oson.document`` and ``sqljson.oson_adapter`` identity
caches hold 1024 entries, ``sqljson.jsontable_rows`` holds 4096.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import oson
from repro.engine import CLOB, Column, Database, NUMBER, Query, Table, expr
from repro.engine.constraints import IsJsonConstraint
from repro.engine.types import BLOB
from repro.imc import IMCStore
from repro.jsontext import dumps
from repro.serve import Server
from repro.workloads.nobench import VC_PATHS, NobenchGenerator
from repro.workloads.purchase_orders import (PO_QUERY_IDS, PoOlapQueries,
                                             PoQueryParams,
                                             PurchaseOrderGenerator,
                                             build_po_views, build_rel_views)
from repro.workloads.relational import create_rel_tables, shred_documents

from bench.oracle import canon

#: single-document commits a workload's writer makes after its read
#: window; fixed work, so device counts and amplification repeat exactly
#: (and few enough that ``olap_hot`` stays under the 1024-entry caches)
BURST_COMMITS = 200
#: ``ingest_mixed``'s writer is its main window, beside the reader: this
#: many commits per second of ``--seconds`` (also fixed work — about
#: what one writer manages while a reader holds the interpreter lock)
INGEST_COMMITS_PER_SECOND = 100

#: the NOBENCH virtual columns of section 6.4: (column, path, returning)
VC_COLUMNS = [(path.split(".")[-1], path, returning)
              for path, returning in VC_PATHS]
VC_NAMES = [name for name, _path, _returning in VC_COLUMNS]


@dataclass
class Statement:
    """One client statement with its oracle answer."""

    key: str
    run: Callable[[Any], List[dict]]     # session -> rows
    expected: List[str]                  # canon() of the oracle's rows
    _accepted: Optional[List[dict]] = None

    def check(self, rows: List[dict]) -> bool:
        """True when ``rows`` is the oracle's answer.  An answer equal
        to one already accepted skips re-canonicalising it, which keeps
        the client's own CPU out of the closed loop."""
        if self._accepted is not None and rows == self._accepted:
            return True
        if canon(rows) == self.expected:
            self._accepted = list(rows)
            return True
        return False


@dataclass
class Inputs:
    """Everything generated from the seed, before the program runs."""

    seed: int
    rows: List[dict]                     # loaded at set-up
    row_bytes: List[int]                 # user bytes of each loaded row
    commit_rows: List[dict]              # inserted one per commit
    commit_bytes: List[int]
    documents: List[dict]                # the generated JSON values
    oracle: Dict[str, List[str]] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Served:
    """A built store behind a running server."""

    db: Database
    table: Any
    server: Server
    attached: Any = None                 # what Workload.attach returned
    cycles: Dict[int, List[Statement]] = field(default_factory=dict)

    def close(self) -> None:
        self.server.close()
        self.table.close()


def _user_bytes(value: Any) -> int:
    return len(value.encode("utf-8")) if isinstance(value, str) else len(value)


def client_order(client: int, count: int) -> Sequence[int]:
    """The order in which one client cycles through the statements: the
    second client starts half a cycle in, so the two do not run the same
    statement in lockstep.  The order does not depend on the seed: which
    statements overlap decides how much the two scans share the caches,
    and a seeded order made throughput swing by a quarter from seed to
    seed on ``olap_cold``."""
    offset = client * count // 2
    return [(offset + i) % count for i in range(count)]


class Workload:
    """Base: one table ``table_name`` with a key and a JSON column."""

    name = ""
    table_name = ""
    key_column = ""
    shards: Optional[int] = None
    documents = 0                        # rows loaded at set-up
    commits = BURST_COMMITS              # single-row commits of the writer
    #: True when the writer runs beside the reader (``ingest_mixed``)
    concurrent_writer = False
    #: constraints and indexes must see every insert; views and the
    #: columnar cache are cheaper to build over a filled table
    attach_before_load = False

    def generate(self, seed: int, seconds: int) -> Inputs:
        raise NotImplementedError

    def columns(self) -> List[Column]:
        raise NotImplementedError

    def attach(self, db: Database, table: Any) -> Any:
        """Layer views / virtual columns / indexes / the columnar cache
        on the table; the return value lands on ``Served.attached``."""
        return None

    def statement_keys(self, inputs: Inputs) -> List[str]:
        """One cycle's statements with their bound values — a pure
        function of the seed."""
        raise NotImplementedError

    def statements(self, inputs: Inputs, served: Served) -> List[Statement]:
        """One cycle's statements, in :meth:`statement_keys` order."""
        raise NotImplementedError

    def cycle(self, inputs: Inputs, served: Served, client: int,
              number: int, acked: Callable[[], int],
              beside_writer: bool = False) -> List[Statement]:
        """What client ``client`` runs in its cycle ``number``: the same
        rotation of :meth:`statements` every cycle — or, while the
        writer inserts, the probe, whose answer inserts do not change."""
        key = -1 if beside_writer else client
        cached = served.cycles.get(key)
        if cached is None:
            if beside_writer:
                cached = [self.probe(inputs, served)] * 4
            else:
                statements = self.statements(inputs, served)
                cached = [statements[i]
                          for i in client_order(client, len(statements))]
            served.cycles[key] = cached
        return cached

    def probe(self, inputs: Inputs, served: Served) -> Statement:
        """A point statement whose answer later inserts do not change —
        the first answer a cold start has to get right."""
        return self.statements(inputs, served)[0]

    def open(self, inputs: Inputs, directory: str, fs: Any,
             load: bool) -> Served:
        """Create (``load=True``: and fill) or reopen the durable table
        in ``directory`` and put a server in front of it."""
        db = Database()
        kwargs: Dict[str, Any] = {}
        if self.shards:
            kwargs = {"shards": self.shards,
                      "routing_field": self.key_column}
        table = db.create_table(self.table_name, self.columns(),
                                durable=directory, fs=fs, **kwargs)
        attached = None
        if self.attach_before_load:
            attached = self.attach(db, table)
        if load:
            table.insert_many(inputs.rows)
        if not self.attach_before_load:
            attached = self.attach(db, table)
        server = Server(db, read_workers=2, write_workers=1)
        return Served(db, table, server, attached)


# -- the three Figure-3 OLAP workloads --------------------------------------


class OlapWorkload(Workload):
    """Figure-3 q1-q9 through ``Session.execute_query``."""

    table_name = "po"
    key_column = "did"

    def __init__(self, name: str, documents: int, encoding: str,
                 shards: Optional[int] = None) -> None:
        self.name = name
        self.documents = documents
        self.encoding = encoding
        self.shards = shards

    def columns(self) -> List[Column]:
        return [Column("did", NUMBER),
                Column("jdoc", BLOB if self.encoding == "oson" else CLOB)]

    def generate(self, seed: int, seconds: int) -> Inputs:
        n = self.documents
        documents = list(PurchaseOrderGenerator(seed=seed)
                         .documents(n + self.commits))
        encode = oson.encode if self.encoding == "oson" else dumps
        encoded = [encode(doc) for doc in documents]
        rows = [{"did": i, "jdoc": value} for i, value in enumerate(encoded)]
        sizes = [_user_bytes(value) for value in encoded]
        inputs = Inputs(seed, rows[:n], sizes[:n], rows[n:], sizes[n:],
                        documents[:n])
        params = inputs.extra["params"] = PoQueryParams(documents[:n])
        # oracle: the REL storage of Figure 3 — the same documents
        # shredded into plain in-memory master/detail tables, row mode
        db = Database()
        master, detail = create_rel_tables(db)
        shred_documents(master, detail, documents[:n])
        queries = PoOlapQueries(*build_rel_views(db, master, detail, "rel"))
        for qid in PO_QUERY_IDS:
            inputs.oracle[qid] = canon(
                queries.query(qid, params).mode("row").rows())
        return inputs

    def attach(self, db: Database, table: Any) -> PoOlapQueries:
        return PoOlapQueries(*build_po_views(db, table, "jdoc", "bench"))

    def statement_keys(self, inputs: Inputs) -> List[str]:
        p = inputs.extra["params"]
        bound = {"q1": p.reference, "q3": p.partno, "q4": p.requestor,
                 "q5": ",".join(p.partnos), "q6": p.partno}
        return [f"{qid}({bound.get(qid, '')})" for qid in PO_QUERY_IDS]

    def statements(self, inputs: Inputs, served: Served) -> List[Statement]:
        queries, params = served.attached, inputs.extra["params"]
        return [Statement(key,
                          lambda session, qid=qid: session.execute_query(
                              queries.query(qid, params)).fetchall(),
                          inputs.oracle[qid])
                for key, qid in zip(self.statement_keys(inputs),
                                    PO_QUERY_IDS)]
    # probe: q1 counts one unique reference, which appended orders
    # never match


# -- imc_analytics ------------------------------------------------------------


#: NOBENCH document numbers a seed may draw: their base-32 words (alphabet
#: A-Z2-7) have four characters, so document size does not depend on the
#: seed, and start with a letter.  A word that starts with a digit can
#: read as a number ("2737", "3E45"), and ``JSON_VALUE ... RETURNING
#: NUMBER`` casts such a string where the oracle holds NULL.
NOBENCH_NUMBERS = range(32 ** 3, 26 * 32 ** 3)


def _nobench_rows(seed: int, count: int) -> tuple:
    """``count`` NOBENCH documents as table rows, numbered from a seeded
    base inside ``NOBENCH_NUMBERS``."""
    base = NOBENCH_NUMBERS.start + random.Random(seed).randrange(
        len(NOBENCH_NUMBERS) - count)
    documents = list(NobenchGenerator(seed=seed).documents(count, start=base))
    texts = [dumps(doc) for doc in documents]
    rows = [{"id": base + i, "jdoc": text} for i, text in enumerate(texts)]
    return base, documents, rows, [_user_bytes(text) for text in texts]


class ImcAnalyticsWorkload(Workload):
    """Filter / group-by / project templates over populated, persisted
    virtual columns."""

    name = "imc_analytics"
    table_name = "nb"
    key_column = "id"
    documents = 4000

    def columns(self) -> List[Column]:
        return [Column("id", NUMBER), Column("jdoc", CLOB)]

    def generate(self, seed: int, seconds: int) -> Inputs:
        n = self.documents
        base, documents, rows, sizes = _nobench_rows(seed, n + self.commits)
        inputs = Inputs(seed, rows[:n], sizes[:n], rows[n:], sizes[n:],
                        documents[:n])
        rng = random.Random(seed * 7919 + 1)
        inputs.extra.update(
            base=base,
            point_num=base + rng.randrange(n),
            point_str=documents[rng.randrange(n)]["str1"],
            # the scanning templates select the same share of the
            # documents whatever the seed
            low=base + 3 * n // 8,
            cut=base + n // 2)
        # oracle: the virtual columns' values computed here in Python
        # (JSON_VALUE ... RETURNING NUMBER nulls non-numbers) and stored
        # as ordinary columns of a plain in-memory table, row mode
        plain = Table("nb", [Column("id", NUMBER), Column("str1", CLOB),
                             Column("num", NUMBER), Column("dyn1", NUMBER)])
        plain.insert_many([
            {"id": base + i, "str1": doc["str1"], "num": doc["num"],
             "dyn1": doc["dyn1"] if isinstance(doc["dyn1"], (int, float))
             else None}
            for i, doc in enumerate(documents[:n])])
        for key, build in self._templates(inputs).items():
            inputs.oracle[key] = canon(build(plain).mode("row").rows())
        return inputs

    @staticmethod
    def _templates(inputs: Inputs) -> Dict[str, Callable[[Any], Query]]:
        """Six seeded templates: two highly selective, four scanning."""
        x = inputs.extra
        col = expr.Col
        return {
            f"point_num({x['point_num']})": lambda t: Query(t).where(
                col("num") == x["point_num"]).select("str1", "num"),
            f"point_str({x['point_str']})": lambda t: Query(t).where(
                col("str1") == x["point_str"]).select("num"),
            f"range({x['low']})": lambda t: Query(t).where(
                expr.And(col("num") >= x["low"],
                         col("dyn1") > x["base"])).select("num", "dyn1"),
            f"half({x['cut']})": lambda t: Query(t).where(
                col("num") > x["cut"]).select("str1", "num"),
            "group()": lambda t: Query(t).group_by(
                ["dyn1"], total=expr.SUM(col("num")), n=expr.COUNT()),
            "project()": lambda t: Query(t).select("str1", "num", "dyn1"),
        }

    def attach(self, db: Database, table: Any) -> IMCStore:
        for name, path, returning in VC_COLUMNS:
            table.add_column(Column(
                name, NUMBER if returning else CLOB,
                expression=expr.JsonValueExpr("jdoc", path,
                                              returning=returning)))
        imc = IMCStore()
        imc.bind(table)
        # loads pinned column segments when the store has them, else
        # pays the JSON_VALUE extraction scan
        imc.populate(table, VC_NAMES)
        return imc

    def open(self, inputs: Inputs, directory: str, fs: Any,
             load: bool) -> Served:
        served = super().open(inputs, directory, fs, load)
        if load:
            served.table.checkpoint()  # lifts the columns into segments
        return served

    def statement_keys(self, inputs: Inputs) -> List[str]:
        return list(self._templates(inputs))

    def statements(self, inputs: Inputs, served: Served) -> List[Statement]:
        # through execute_query: Session.execute("SELECT ...") on an
        # IMC-bound table raises (known gap G2)
        table = served.table
        return [Statement(key,
                          lambda session, build=build: session.execute_query(
                              build(table)).fetchall(),
                          inputs.oracle[key])
                for key, build in self._templates(inputs).items()]
    # probe: point_num matches one document number; appended documents
    # carry higher numbers


# -- ingest_mixed -------------------------------------------------------------


class IngestMixedWorkload(Workload):
    """Acked single-document inserts with DataGuide + search-index
    maintenance, beside a reader of routing-pruned point lookups."""

    name = "ingest_mixed"
    table_name = "nb"
    key_column = "id"
    shards = 4
    documents = 1000
    concurrent_writer = True
    attach_before_load = True
    point_sql = "SELECT id FROM nb WHERE id = ?"
    cycle_length = 10

    def columns(self) -> List[Column]:
        return [Column("id", NUMBER), Column("jdoc", CLOB)]

    def generate(self, seed: int, seconds: int) -> Inputs:
        n = self.documents
        # the writer's work shrinks with the data in a smoke run
        commits = max(5, INGEST_COMMITS_PER_SECOND * seconds * n // 1000)
        base, documents, rows, sizes = _nobench_rows(seed, n + commits)
        inputs = Inputs(seed, rows[:n], sizes[:n], rows[n:], sizes[n:],
                        documents[:n])
        inputs.extra["base"] = base
        # the reader's lookups: a seeded stream of offsets, each taken
        # modulo the number of ids acknowledged when it is issued
        rng = random.Random(seed * 7919 + 2)
        inputs.extra["offsets"] = [rng.randrange(1 << 30)
                                   for _ in range(4096)]
        return inputs

    def attach(self, db: Database, table: Any) -> Any:
        table.add_constraint(IsJsonConstraint("jdoc"))
        return db.create_json_search_index("nb_idx", "nb", "jdoc",
                                           dataguide=True)

    def _point(self, key: int) -> Statement:
        """``session.refresh()`` then the pruned lookup of one id; the
        oracle is the id itself (it was acknowledged, so it is there)."""
        def run(session: Any) -> List[dict]:
            session.refresh()
            return session.execute(self.point_sql, [key]).fetchall()
        return Statement(f"id={key}", run, canon([{"id": key}]))

    def statement_keys(self, inputs: Inputs) -> List[str]:
        return [f"id=base+{offset}%acked"
                for offset in inputs.extra["offsets"][:self.cycle_length]]

    def statements(self, inputs: Inputs, served: Served) -> List[Statement]:
        return self.cycle(inputs, served, 0, 0, lambda: 0)

    def cycle(self, inputs: Inputs, served: Served, client: int,
              number: int, acked: Callable[[], int],
              beside_writer: bool = False) -> List[Statement]:
        offsets = inputs.extra["offsets"]
        start = number * self.cycle_length
        live = self.documents + acked()
        return [self._point(inputs.extra["base"]
                            + offsets[(start + i) % len(offsets)] % live)
                for i in range(self.cycle_length)]


def build_workloads(scale: float = 1.0) -> Dict[str, Workload]:
    """The five workloads.  ``scale`` shrinks document and commit counts
    for the smoke run; measurements are only comparable at scale 1."""
    workloads = (OlapWorkload("olap_hot", 800, "oson"),
                 OlapWorkload("olap_cold", 1300, "oson"),
                 OlapWorkload("olap_sharded", 500, "text", shards=4),
                 ImcAnalyticsWorkload(),
                 IngestMixedWorkload())
    for workload in workloads:
        workload.documents = max(20, int(workload.documents * scale))
        workload.commits = max(5, int(workload.commits * scale))
    return {workload.name: workload for workload in workloads}
