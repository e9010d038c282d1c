"""Views: named relational windows over tables or queries.

Two flavours are used in the reproduction:

* :class:`QueryView` — a stored :class:`~repro.engine.query.Query`
  (the REL storage's ``po_item_dmdv`` join view in Figure 3);
* :class:`JsonTableView` — a JSON_TABLE() expansion over a table's JSON
  column, the physical form of the DataGuide-generated DMDV views of
  section 3.3.2.  Its ``scan()`` computes rows from the base documents —
  this is where the per-format decode cost is paid — except that
  expansions of immutable OSON images are memoized in the bounded DMDV
  row cache (``sqljson.jsontable_rows``), the reproduction's stand-in
  for the paper's in-memory materialized DMDVs; a TEXT document is
  parsed once on every execution, which is the TEXT-mode cost model.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.engine.query import Query
from repro.engine.table import Table
from repro.errors import PathEvaluationError
from repro.sqljson.adapters import adapter_for
from repro.sqljson.json_table import JsonTable
from repro.sqljson.path.evaluator import evaluator_for
from repro.sqljson.path.parser import compile_path

#: comparison-operator spellings accepted in pushdown conjuncts
_PUSHDOWN_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=",
                 ">": ">", ">=": ">="}


def _render_json_literal(value: Any) -> Optional[str]:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return None


def render_pushdown_path(absolute_path: str, op: str,
                         values: Sequence[Any]) -> Optional[str]:
    """Render ``column op value`` as a JSON_EXISTS path predicate, e.g.
    ``$.purchaseOrder.items[*].partno?(@ == "97361551647")``.

    Returns None when the operator or literal cannot be expressed (the
    engine then falls back to plain row filtering).
    """
    path_op = _PUSHDOWN_OPS.get(op)
    if path_op is None or not values:
        return None
    clauses = []
    for value in values:
        literal = _render_json_literal(value)
        if literal is None:
            return None
        clauses.append(f"@ {path_op} {literal}")
    return f"{absolute_path}?({' || '.join(clauses)})"


def _exists_quiet(evaluator: Any, adapter: Any) -> bool:
    """JSON_EXISTS semantics over a prebuilt adapter: evaluation errors
    mean "does not exist", matching :func:`json_exists`."""
    try:
        return evaluator.exists(adapter)
    except PathEvaluationError:
        return False


class View:
    """Base class so Query sources can treat views like tables."""

    name: str

    def scan(self) -> Iterator[dict[str, Any]]:
        raise NotImplementedError

    def query(self) -> Query:
        return Query(self)


class QueryView(View):
    """A view defined by a stored query."""

    def __init__(self, name: str, query: Query) -> None:
        self.name = name
        self._query = query

    def scan(self) -> Iterator[dict[str, Any]]:
        return iter(self._query.rows())


class JsonTableView(View):
    """A view computed by expanding a JSON column through JSON_TABLE.

    ``include_columns`` lists base-table columns carried alongside the
    JSON_TABLE outputs (e.g. the DID primary key in the paper's PO_RV
    view of Table 8).
    """

    def __init__(self, name: str, table: Table, json_column: str,
                 json_table: JsonTable,
                 include_columns: Optional[list[str]] = None) -> None:
        self.name = name
        self.table = table
        self.json_column = json_column
        self.json_table = json_table
        self.include_columns = list(include_columns or [])

    @property
    def column_names(self) -> list[str]:
        return self.include_columns + list(self.json_table.column_names)

    def scan(self) -> Iterator[dict[str, Any]]:
        return self.scan_pushdown(None)

    def pushdown_path(self, column: str, op: str,
                      values: Sequence[Any]) -> Optional[str]:
        """Translate one WHERE conjunct (column, op, literal values) into
        a JSON_EXISTS path predicate, or None if it cannot be pushed
        (unknown column, unsupported operator or literal)."""
        absolute = self.json_table.absolute_paths.get(column)
        if absolute is None:
            return None
        return render_pushdown_path(absolute, op, values)

    def scan_pushdown(self, exists_paths: Optional[Sequence[str]]
                      ) -> Iterator[dict[str, Any]]:
        """Scan with document-level JSON_EXISTS pre-filtering.

        This is the paper's pushdown (section 6.3): predicates run as
        path filters against the raw document *before* the JSON_TABLE
        expansion, so non-matching documents never pay the row-generation
        cost.  Document-level filtering is a superset of the row-level
        predicate (a document passes if *any* nested row matches), so the
        engine still applies the original WHERE afterwards.

        The pushdown paths compile once per scan.  A binary document
        whose expansion is memoized skips all of it (one row-cache
        lookup on the column value).  Otherwise the document's adapter
        is built once and shared by every predicate probe plus the
        JSON_TABLE expansion, so a textual document is parsed once per
        scan: the TEXT mode re-parses per query, not per operator.
        """
        return self._expand_rows(self.table.scan(), exists_paths)

    def _expand_rows(self, base_rows: Iterator[dict[str, Any]],
                     exists_paths: Optional[Sequence[str]] = None
                     ) -> Iterator[dict[str, Any]]:
        """JSON_TABLE-expand a stream of base-table rows (the body of
        :meth:`scan_pushdown`, shared with per-shard scatter streams)."""
        evaluators = None
        if exists_paths is not None:
            evaluators = [evaluator_for(compile_path(p))
                          for p in exists_paths]
        include_columns = self.include_columns
        json_table = self.json_table
        for base_row in base_rows:
            data = base_row.get(self.json_column)
            if data is None:
                continue
            # a memoized DMDV expansion is one lookup on the raw column
            # value: no adapter, no pushdown probe, no decode (never for
            # text, which has no image to key it by)
            json_rows = json_table.probe(data)
            if json_rows is None:
                adapter = adapter_for(data)
                if evaluators is not None and not all(
                        _exists_quiet(e, adapter) for e in evaluators):
                    continue
                json_rows = json_table.expand(adapter, data)
            for json_row in json_rows:
                out = {name: base_row[name] for name in include_columns}
                out.update(json_row)
                yield out

    # -- scatter-gather (sharded base tables) -------------------------------

    def shard_plan(self) -> Optional[Any]:
        """Scatter plan over the base table's shards: each shard's
        stream is that shard's base rows pushed through the same
        JSON_TABLE expansion as :meth:`scan`, so the fused per-shard
        pipeline computes exactly what the single-stream scan would.

        Pruning paths nest the JSON_TABLE column mapping under the JSON
        column (``$.jdoc.purchaseOrder.items.partno``) with ``[*]``
        steps dropped — DataGuide paths do not spell array traversal.
        That only works when the shard guides can actually see inside
        the documents: a column stored as TEXT (a string to the guide)
        or as binary — OSON bytes persist as a ``{"$raw": <hex>}``
        wrapper, which the guide sees as an object with that one
        member — is opaque to the base store's guide, and pruning on
        "path absent" there would wrongly skip every shard.  So pruning
        is offered only when every non-empty shard indexes the column
        as a JSON object that is not such a wrapper.  Routing-equality
        pruning is not offered: a view column's values are nested
        projections, not the base routing field.
        """
        base_fn = getattr(self.table, "shard_plan", None)
        if base_fn is None:
            return None
        base = base_fn()
        if base is None:
            return None
        from repro.core.dataguide.model import child_path
        from repro.engine.scatter import ShardInput, ShardPlanInfo
        shards = [ShardInput(shard.index,
                             lambda shard=shard: self._expand_rows(
                                 shard.rows()),
                             shard.guide)
                  for shard in base.shards]
        column_root = child_path("$", self.json_column)
        raw_wrapper = child_path(column_root, "$raw")
        opaque = any(
            entry.path == raw_wrapper
            or entry.path == column_root and entry.kind != "object"
            for shard in base.shards for entry in shard.guide.entries())
        if opaque:
            return ShardPlanInfo(self.name, shards, lambda column: None,
                                 health=base.health)
        return ShardPlanInfo(
            self.name, shards,
            lambda column: self._prune_path(column_root, column),
            health=base.health)

    def _prune_path(self, column_root: str,
                    column: str) -> Optional[str]:
        absolute = self.json_table.absolute_paths.get(column)
        if absolute is None or not absolute.startswith("$"):
            return None
        return column_root + absolute[1:].replace("[*]", "")
