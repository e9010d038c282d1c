"""NOBENCH: the micro-benchmark of Chasseur, Li and Patel (WebDB 2013).

The paper uses NOBENCH throughout section 6.4-6.6 because it is a
"genuine semi-structured document collection with several common fields
and many sparse fields": every document has ~11 common fields (two
strings, a number, a boolean, two dynamically-typed fields, a nested
object, a nested array, a thousandth bucket) plus 10 sparse fields drawn
from a 1 000-field space, so a large collection exercises all 1 000+
distinct paths — beyond Oracle's 1 000-column relational limit, which is
the paper's argument for not shredding.

:class:`NobenchGenerator` reproduces that schema deterministically, and
:func:`nobench_sql` spells the 11 queries as SQL text over the table
``nb(id NUMBER, jdoc CLOB|BLOB)`` that :func:`load_nobench` builds.  The
paper's three execution modes (section 6.4) are three setups of it:

* TEXT — ``jdoc`` is a CLOB of JSON text, re-parsed by every query;
* OSON-IMC — ``jdoc`` is a BLOB of OSON images (``binary=True``), which
  every query jump-navigates;
* VC-IMC — the BLOB table plus :func:`add_vc_columns`' three JSON_VALUE
  virtual columns populated into an :class:`~repro.imc.IMCStore`;
  :func:`vc_sql` spells Q6, Q7 and Q10 over them.
"""

from __future__ import annotations


from repro.workloads._seeds import rng_for
from typing import Any, Iterable, Iterator

from repro.core import oson
from repro.engine import CLOB, Column, Database, NUMBER, Query, Table
from repro.engine.expressions import JsonValueExpr
from repro.engine.types import BLOB
from repro.engine.view import QueryView
from repro.jsontext import dumps

SPARSE_FIELD_COUNT = 1000
SPARSE_PER_DOCUMENT = 10
SPARSE_CLUSTER_SIZE = 100

#: the three virtual columns the paper loads into IMC (section 6.4):
#: JSON_VALUE(jobj,'$.str1'), JSON_VALUE(jobj,'$.num' RETURNING NUMBER),
#: JSON_VALUE(jobj,'$.dyn1' RETURNING NUMBER) — the NUMBER returning on
#: dyn1 NULLs out its string-typed instances
VC_PATHS = (("$.str1", None), ("$.num", "number"), ("$.dyn1", "number"))


def _base32ish(value: int) -> str:
    """A deterministic pseudo-word for string fields (NOBENCH uses a
    base-32 rendering of the counter)."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
    if value == 0:
        return "A"
    out = []
    while value:
        out.append(alphabet[value % 32])
        value //= 32
    return "".join(reversed(out))


class NobenchGenerator:
    """Deterministic NOBENCH document generator."""

    def __init__(self, seed: int = 11) -> None:
        self.seed = seed

    def document(self, i: int) -> dict[str, Any]:
        rng = rng_for(self.seed, i)
        doc: dict[str, Any] = {
            "str1": _base32ish(i),
            "str2": _base32ish(i // 2),
            "num": i,
            "bool": i % 2 == 0,
            # dynamically typed fields: number in even docs, string in odd
            "dyn1": i if i % 2 == 0 else _base32ish(i),
            "dyn2": float(i) if i % 3 == 0 else _base32ish(i * 3),
            "nested_obj": {"str": _base32ish(i), "num": i},
            "nested_arr": [_base32ish(rng.randrange(i + 1) if i else 0)
                           for _ in range(rng.randrange(1, 6))],
            "thousandth": i % 1000,
        }
        # ten sparse fields per document from a clustered 1000-field space
        cluster = (i * SPARSE_PER_DOCUMENT) % SPARSE_FIELD_COUNT
        for k in range(SPARSE_PER_DOCUMENT):
            field_id = (cluster + k) % SPARSE_FIELD_COUNT
            doc[f"sparse_{field_id:03d}"] = _base32ish(i + k)
        return doc

    def documents(self, count: int, start: int = 0) -> Iterator[dict[str, Any]]:
        for i in range(start, start + count):
            yield self.document(i)

    def homogeneous_documents(self, count: int, template_index: int = 0
                              ) -> Iterator[dict[str, Any]]:
        """Identical-structure documents (Figure 7/8's *homo* runs): the
        same field set with per-document values."""
        template = self.document(template_index)
        for i in range(count):
            doc = dict(template)
            doc["num"] = i
            doc["str1"] = _base32ish(i)
            yield doc

    def heterogeneous_documents(self, count: int) -> Iterator[dict[str, Any]]:
        """Each document adds a unique brand-new field (Figure 8's *hetero*
        run): every insert discovers a new path."""
        template = self.document(0)
        for i in range(count):
            doc = dict(template)
            doc[f"unique_field_{i:07d}"] = i
            yield doc


def load_nobench(db: Database, documents: Iterable[dict[str, Any]],
                 binary: bool = False) -> Table:
    """Create ``nb`` holding ``documents`` (ids from 0): ``jdoc`` is a
    CLOB of JSON text, or with ``binary`` a BLOB of OSON images.  Also
    registers Q11's two join sides, ``nb_l(probe)`` and ``nb_r(str1)``."""
    table = db.create_table("nb", [Column("id", NUMBER),
                                   Column("jdoc", BLOB if binary else CLOB)])
    encode = oson.encode if binary else dumps
    table.insert_many([{"id": i, "jdoc": encode(doc)}
                       for i, doc in enumerate(documents)])
    for name, path, output in (("nb_l", "$.nested_obj.str", "probe"),
                               ("nb_r", "$.str1", "str1")):
        db.register_view(QueryView(name, Query(table).select(
            JsonValueExpr("jdoc", path).as_(output))))
    return table


def add_vc_columns(table: Table) -> list[str]:
    """Add the :data:`VC_PATHS` virtual columns over ``jdoc`` (``str1``,
    ``num``, ``dyn1``) to ``table``; returns their names, ready for
    ``IMCStore().populate(table, names)``."""
    names = []
    for path, returning in VC_PATHS:
        name = path.split(".")[-1]
        table.add_column(Column(name, NUMBER if returning else CLOB,
                                expression=JsonValueExpr(
                                    "jdoc", path, returning=returning)))
        names.append(name)
    return names


#: the VC_PATHS definitions of ``num`` and ``dyn1`` — RETURNING NUMBER
#: makes Q7 read only dyn1's numeric instances
_NUM = "JSON_VALUE(jdoc, '$.num' RETURNING NUMBER)"
_DYN1 = "JSON_VALUE(jdoc, '$.dyn1' RETURNING NUMBER)"


def nobench_sql(n: int) -> dict[str, str]:
    """NOBENCH Q1-Q11 over ``nb`` as SQL text, keyed ``q1``..``q11``.

    Selective literals follow NOBENCH's published selectivities for
    ``n`` documents (single-document point lookups, 0.1 % ranges) and
    are inlined, because Q8's needle lives inside its path.  Q10 groups
    by ``thousandth`` itself; Q11 joins :func:`load_nobench`'s two views.
    """
    def value(path: str) -> str:
        return f"JSON_VALUE(jdoc, '$.{path}')"

    def sparse_pair(a: str, b: str) -> str:
        return (f"SELECT {value(a)} {a}, {value(b)} {b} FROM nb "
                f"WHERE JSON_EXISTS(jdoc, '$.{a}') "
                f"OR JSON_EXISTS(jdoc, '$.{b}')")

    needle = _base32ish(n // 5)
    return {
        "q1": f"SELECT {value('str1')} str1, {value('num')} num FROM nb",
        "q2": (f"SELECT {value('nested_obj.str')} str, "
               f"{value('nested_obj.num')} num FROM nb"),
        "q3": sparse_pair("sparse_110", "sparse_119"),
        "q4": sparse_pair("sparse_110", "sparse_220"),
        "q5": (f"SELECT id, jdoc FROM nb "
               f"WHERE {value('str1')} = '{_base32ish(n // 2)}'"),
        "q6": _range_sql(_NUM, n // 3, n),
        "q7": _range_sql(_DYN1, n // 4, n),
        "q8": (f"SELECT id, jdoc FROM nb WHERE JSON_EXISTS(jdoc, "
               f"'$.nested_arr[*]?(@ == \"{needle}\")')"),
        "q9": (f"SELECT id, jdoc FROM nb "
               f"WHERE {value('sparse_550')} IS NOT NULL"),
        "q10": _group_sum_sql(_NUM),
        "q11": "SELECT COUNT(*) matches FROM nb_l JOIN nb_r ON probe = str1",
    }


def vc_sql(n: int) -> dict[str, str]:
    """Q6, Q7 and Q10 of :func:`nobench_sql` spelled over the virtual
    columns ``num`` / ``dyn1`` (Figure 6): the same expressions by name,
    so a populated IMC can serve them."""
    return {"q6": _range_sql("num", n // 3, n),
            "q7": _range_sql("dyn1", n // 4, n),
            "q10": _group_sum_sql("num")}


def _range_sql(value: str, low: int, n: int) -> str:
    """``value`` in NOBENCH's 0.1 % range ``[low, low + n/1000)``."""
    high = low + max(n // 1000, 1)
    return (f"SELECT {value} v FROM nb "
            f"WHERE {value} >= {low} AND {value} < {high}")


def _group_sum_sql(value: str) -> str:
    key = "JSON_VALUE(jdoc, '$.thousandth')"
    return (f"SELECT {key} thousandth, SUM({value}) total FROM nb "
            f"GROUP BY {key}")
