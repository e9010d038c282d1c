"""JSON_TABLE: project relational rows out of JSON documents (section 3.3.2).

A :class:`JsonTable` is built from a row path, scalar :class:`ColumnDef`
entries and :class:`NestedPath` children, mirroring the SQL construct of
the paper's Table 8::

    JsonTable("$", [
        ColumnDef("id", "number", "$.purchaseOrder.id"),
        ColumnDef("podate", "varchar2(16)", "$.purchaseOrder.podate"),
        NestedPath("$.purchaseOrder.items[*]", [
            ColumnDef("name", "varchar2(32)", "$.name"),
            ColumnDef("price", "number", "$.price"),
            NestedPath("$.parts[*]", [
                ColumnDef("partName", "varchar2(32)", "$.partName"),
            ]),
        ]),
    ])

Join semantics follow the paper exactly:

* a NESTED PATH is a **left outer join** to its parent — parents with no
  matching detail rows still emit one row with NULL detail columns;
* **sibling** NESTED PATHs are combined with a **union join** (a full
  outer join under an impossible condition): each sibling's rows appear
  with the other siblings' columns NULLed.

The row source implements the volcano-style iterator API of section 5.1:
``start()`` / ``fetch_next_batch()`` / ``close()``.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.core.counters import BoundedCache
from repro.core.oson import constants as oson_constants
from repro.core.oson.decoder import OsonDocument
from repro.core.oson.navigate import navigation_enabled
from repro.errors import QueryError, ReproError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sqljson.adapters import SCALAR, OsonAdapter, adapter_for
from repro.sqljson.operators import make_coercer
from repro.sqljson.path import ast as path_ast
from repro.sqljson.path.evaluator import PathEvaluator, _Computed
from repro.sqljson.path.parser import compile_path


@dataclass(frozen=True)
class ColumnDef:
    """One scalar output column: ``name type PATH path``."""

    name: str
    sql_type: str = "varchar2(4000)"
    path: Optional[str] = None  # defaults to '$.<name>'

    def resolved_path(self) -> str:
        return self.path if self.path is not None else f"$.{self.name}"


@dataclass(frozen=True)
class NestedPath:
    """A NESTED PATH clause: un-nests an array into child rows."""

    path: str
    columns: Sequence[Union["ColumnDef", "NestedPath"]] = field(default_factory=tuple)


def _join_paths(prefix: str, relative: str) -> str:
    """Join an absolute context path with a '$'-rooted relative path."""
    suffix = relative[1:] if relative.startswith("$") else relative
    return prefix + suffix


def _common_member_prefix(paths: Sequence[path_ast.JsonPath]) -> int:
    """Length of the longest run of identical leading member steps shared
    by every path (0 unless at least two lax paths share one)."""
    if len(paths) < 2:
        return 0
    if any(p.mode != path_ast.LAX for p in paths):
        return 0  # strict evaluation order is observable through errors
    limit = min(len(p.steps) for p in paths)
    depth = 0
    while depth < limit:
        lead = paths[0].steps[depth]
        if not isinstance(lead, path_ast.MemberStep):
            break
        if any(not isinstance(p.steps[depth], path_ast.MemberStep)
               or p.steps[depth].name != lead.name for p in paths[1:]):
            break
        depth += 1
    return depth


class _RowProgram:
    """One row node compiled for the OSON scan kernel.

    The node's lax member-chain column paths and NESTED PATH row paths
    (a member chain, optionally ending in ``[*]``) merge into a trie of
    member names.  Each trie node is one object level: its names resolve
    to field ids once per dictionary ``generation``, so expanding a row
    reads every context object's id/child arrays once
    (:meth:`OsonDocument.object_children`) and picks all wanted children
    from that read, where the per-column route walks each path from the
    row context again.  Whatever the trie cannot hold — strict mode,
    subscripts, filters, item methods — stays in ``loose_*`` and is
    evaluated per column by the node's :class:`PathEvaluator`.
    """

    __slots__ = ("columns", "nested", "fields", "loose_columns",
                 "loose_nested", "_resolved")

    def __init__(self, columns: Iterable[tuple[path_ast.JsonPath, tuple]] = (),
                 nested_paths: Iterable[path_ast.JsonPath] = ()) -> None:
        #: the ``_CompiledNode.columns`` entries whose path ends here
        self.columns: list[tuple] = []
        #: (child index, trailing ``[*]``) of row paths ending here
        self.nested: list[tuple[int, bool]] = []
        #: member name -> (compiled name, sub-trie)
        self.fields: dict[str, tuple[Any, _RowProgram]] = {}
        self.loose_columns: list[tuple] = []
        self.loose_nested: list[int] = []
        #: dictionary generation -> :meth:`resolved` entries; one dict
        #: store per new generation, so concurrent scans at worst
        #: resolve the same generation twice
        self._resolved: dict[int, list[tuple]] = {}
        for path, column in columns:
            end = self._descend(path, path.steps)
            if end is None or end is self:
                # ('$' names the row node itself: no member step to ride)
                self.loose_columns.append(column)
            else:
                end.columns.append(column)
        for index, path in enumerate(nested_paths):
            steps = path.steps
            wildcard = bool(steps) and isinstance(
                steps[-1], path_ast.ArrayStep) and steps[-1].is_wildcard
            end = self._descend(path, steps[:-1] if wildcard else steps)
            if end is None:
                self.loose_nested.append(index)
            else:
                end.nested.append((index, wildcard))

    def _descend(self, path: path_ast.JsonPath,
                 steps: Sequence[Any]) -> Optional["_RowProgram"]:
        """The trie node ``steps`` lead to, created on the way; None when
        the path is not a lax member chain."""
        if path.mode != path_ast.LAX or not all(
                isinstance(step, path_ast.MemberStep) for step in steps):
            return None
        trie = self
        for step in steps:
            if step.name not in trie.fields:
                trie.fields[step.name] = (step.compiled, _RowProgram())
            trie = trie.fields[step.name][1]
        return trie

    def resolved(self, doc: OsonDocument) -> list[tuple]:
        """``(field id, columns ending there, sub-trie to walk on or
        None)`` for this level's names in ``doc``'s dictionary."""
        dictionary = doc.dictionary
        found = self._resolved.get(dictionary.generation)
        if found is None:
            found = []
            for compiled, sub in self.fields.values():
                field_id = dictionary.field_id(compiled.name, compiled.hash)
                if field_id is not None:
                    found.append((field_id, sub.columns,
                                  sub if sub.nested or sub.fields else None))
            if len(self._resolved) >= 256:  # as many as are ever interned
                self._resolved.clear()
            self._resolved[dictionary.generation] = found
        return found

    def below(self) -> Iterator["_RowProgram"]:
        """Every trie node under this one."""
        for _compiled, sub in self.fields.values():
            yield sub
            yield from sub.below()


class _CompiledNode:
    """A row-generation node: its path evaluator, scalar columns and
    compiled nested children.

    Scalar column paths that share a leading member chain (e.g. the five
    ``$.purchaseOrder.*`` master columns of the PO views) are factored:
    the shared prefix navigates **once per row** into ``prefix_evaluator``
    and each column keeps only its suffix — previously every column
    re-walked the common prefix from the row context.

    ``program`` is the same node compiled for the OSON scan kernel (see
    :class:`_RowProgram`).
    """

    __slots__ = ("evaluator", "columns", "children", "absolute_paths",
                 "prefix_evaluator", "program")

    def __init__(self, row_path: str,
                 columns: Sequence[Union[ColumnDef, NestedPath]],
                 absolute_prefix: Optional[str] = None) -> None:
        self.evaluator = PathEvaluator(compile_path(row_path))
        if absolute_prefix is None:
            absolute_prefix = row_path
        #: column name -> absolute document path (for predicate pushdown)
        self.absolute_paths: dict[str, str] = {}
        # (column name, path evaluator, compiled type coercer) triples —
        # both the path and the RETURNING type compile once per view
        self.columns: list[tuple[str, PathEvaluator, Any]] = []
        self.children: list[_CompiledNode] = []
        scalar_defs: list[ColumnDef] = []
        for item in columns:
            if isinstance(item, ColumnDef):
                scalar_defs.append(item)
                self.absolute_paths[item.name] = _join_paths(
                    absolute_prefix, item.resolved_path())
            elif isinstance(item, NestedPath):
                child = _CompiledNode(
                    item.path, item.columns,
                    _join_paths(absolute_prefix, item.path))
                self.children.append(child)
                self.absolute_paths.update(child.absolute_paths)
            else:
                raise QueryError(f"bad JSON_TABLE column spec: {item!r}")
        compiled_paths = [compile_path(d.resolved_path()) for d in scalar_defs]
        shared = _common_member_prefix(compiled_paths)
        self.prefix_evaluator: Optional[PathEvaluator] = None
        if shared:
            lead = compiled_paths[0]
            self.prefix_evaluator = PathEvaluator(
                path_ast.JsonPath(lead.steps[:shared], lead.mode))
        for definition, compiled in zip(scalar_defs, compiled_paths):
            if shared:
                compiled = path_ast.JsonPath(compiled.steps[shared:],
                                             compiled.mode)
            self.columns.append((
                definition.name,
                PathEvaluator(compiled),
                make_coercer(definition.sql_type),
            ))
        self.program = _RowProgram(
            zip(compiled_paths, self.columns),
            (child.evaluator.path for child in self.children))

    def column_names(self) -> list[str]:
        names = [name for name, _evaluator, _coercer in self.columns]
        for child in self.children:
            names.extend(child.column_names())
        return names


#: in-memory DMDV materialization (sections 3.3.2 / 6.2): the JSON_TABLE
#: expansion of an immutable OSON image is a pure function of
#: (table definition, image), so expansions are memoized under
#: ``(JsonTable serial, image)`` — the table by identity, the image an
#: exact ``bytes`` compared by value.  An updated document is a different
#: image, so staleness is impossible, and any equal copy of a resident
#: image (a pinned snapshot's, a shard's) finds the same rows.  An entry
#: holds the rows and nothing else; a table's entries go when it dies.
#: Everything that is not an exact ``bytes`` OSON image bypasses the
#: cache without inserting: TEXT by design (the paper's TEXT cost model
#: re-parses per operator), mutable buffers and pre-built documents
#: because there is no immutable value to key them by.
_ROW_CACHE = BoundedCache("sqljson.jsontable_rows", maxsize=4096)

_SERIALS = itertools.count(1)

#: documents actually expanded (cache misses) and rows they produced;
#: together with the ``sqljson.jsontable_rows`` cache counters these
#: give EXPLAIN ANALYZE the DMDV effectiveness picture per operator
_DOCS_EXPANDED = _metrics.counter("sqljson.jsontable.docs_expanded")
_ROWS_PRODUCED = _metrics.counter("sqljson.jsontable.rows_produced")


def _discard_rows_of(serial: int) -> None:
    _ROW_CACHE.discard(lambda key: key[0] == serial)


class JsonTable:
    """The JSON_TABLE virtual table over one JSON column."""

    def __init__(self, row_path: str,
                 columns: Sequence[Union[ColumnDef, NestedPath]]) -> None:
        self._root = _CompiledNode(row_path, columns)
        names = self._root.column_names()
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise QueryError(f"duplicate JSON_TABLE column names: {sorted(duplicates)}")
        self.column_names: tuple[str, ...] = tuple(names)
        #: column name -> absolute document path, used by the engine to
        #: push WHERE predicates down as JSON_EXISTS path filters
        self.absolute_paths: dict[str, str] = dict(self._root.absolute_paths)
        #: this table's half of its row-cache keys (never reused, unlike
        #: ``id()``); the cache does not pin the table, and the finalizer
        #: set with the first memoized expansion drops its entries
        self._serial = next(_SERIALS)
        self._purge: Optional[weakref.finalize] = None

    # -- bulk API ------------------------------------------------------------

    def rows(self, data: Any) -> list[dict[str, Any]]:
        """All output rows for one document, as name -> value dicts the
        caller owns."""
        shared = self.probe(data)
        if shared is None:
            shared = self.expand(adapter_for(data), data)
        return [dict(row) for row in shared]

    def probe(self, data: Any) -> Optional[list[dict[str, Any]]]:
        """The memoized expansion of ``data``, or None — one cache
        lookup, nothing decoded.  The rows are the cache's own: read,
        never mutate.  Scans probe before anything else, the JSON_EXISTS
        pushdown included (the engine's residual WHERE keeps results
        exact)."""
        if type(data) is not bytes:
            return None
        return _ROW_CACHE.get((self._serial, data))

    def expand(self, adapter: Any, image: Any = None) -> list[dict[str, Any]]:
        """Expand one document through a pre-built adapter — scans that
        apply several operators per document (JSON_EXISTS pushdown, then
        expansion) build it once.  With ``image`` the exact ``bytes`` the
        adapter was built from, the rows are memoized under it and are
        shared like :meth:`probe`'s."""
        # the scan kernel reads binary images directly; it is on exactly
        # when partial-decode navigation is (ablation 6, DOM-route oracle)
        kernel = type(adapter) is OsonAdapter and navigation_enabled()
        out: list[dict[str, Any]] = []
        for context in self._root.evaluator.select(adapter):
            if isinstance(context, _Computed):
                continue
            # the root row starts from every column NULL, so whatever a
            # row leaves unset (an absent field, a sibling NESTED PATH's
            # columns under the union join) is already there
            out.extend(self._expand(adapter, context, self._root, kernel,
                                    dict.fromkeys(self.column_names)))
        _DOCS_EXPANDED.inc()
        _ROWS_PRODUCED.inc(len(out))
        _trace.current_span().record("jsontable_rows", len(out))
        if type(image) is bytes and type(adapter) is OsonAdapter:
            if self._purge is None:
                self._purge = weakref.finalize(self, _discard_rows_of,
                                               self._serial)
            _ROW_CACHE.put((self._serial, image), out)
        return out

    def iter_rows(self, documents: Any) -> Iterator[dict[str, Any]]:
        """Rows across an iterable of documents."""
        for data in documents:
            yield from self.rows(data)

    def open(self, documents: Any) -> "JsonTableRowSource":
        """Open a volcano-style row source over an iterable of documents."""
        return JsonTableRowSource(self, documents)

    # -- row expansion -----------------------------------------------------------

    def _expand(self, adapter: Any, context: Any, node: _CompiledNode,
                kernel: bool, base: dict[str, Any]) -> list[dict[str, Any]]:
        """Rows of ``node`` at ``context``; ``base`` receives the node's
        own column values and is the row when no detail joins it."""
        if kernel:
            child_contexts = _scan_row(adapter, context, node, base)
        else:
            contexts = [context]
            if node.prefix_evaluator is not None:
                # shared-prefix factoring: navigate the common member
                # chain once, then each column only walks its suffix
                contexts = node.prefix_evaluator.select_from(adapter, context)
            for name, evaluator, coercer in node.columns:
                base[name] = _column_value(adapter, contexts, evaluator,
                                           coercer)
            child_contexts = [child.evaluator.select_from(adapter, context)
                              for child in node.children]
        rows: list[dict[str, Any]] = []
        for child, contexts in zip(node.children, child_contexts):
            # left outer join of this child's rows against the parent;
            # siblings union-join: each one's rows keep the others' NULLs
            for child_context in contexts:
                if isinstance(child_context, _Computed):
                    continue
                for child_row in self._expand(adapter, child_context, child,
                                              kernel, {}):
                    merged = dict(base)
                    merged.update(child_row)
                    rows.append(merged)
        # outer-join semantics: keep the parent even with no details
        return rows or [base]


#: what the kernel asks ``scalar_value`` to answer for non-scalar nodes
_CONTAINER = object()


def _scan_row(adapter: OsonAdapter, context: int, node: _CompiledNode,
              base: dict[str, Any]) -> list[Sequence[Any]]:
    """The scan kernel: fills one row's column values into ``base`` and
    returns, per NESTED PATH child, its row contexts — each object on
    the way read once."""
    program = node.program
    child_contexts: list[Sequence[Any]] = [()] * len(node.children)
    columns = program.loose_columns
    nested = program.loose_nested
    unnest: list[_RowProgram] = []
    _scan(adapter.doc, program, context, base, child_contexts, unnest)
    for trie in unnest:
        # a member step met an array: lax unnesting selects through its
        # elements, which only the path engine spells out
        for sub in trie.below():
            columns = columns + sub.columns
            nested = nested + [index for index, _wildcard in sub.nested]
    if columns:
        contexts = [context]
        if node.prefix_evaluator is not None:
            contexts = node.prefix_evaluator.select_from(adapter, context)
        for name, evaluator, coercer in columns:
            base[name] = _column_value(adapter, contexts, evaluator, coercer)
    for index in nested:
        child_contexts[index] = node.children[index].evaluator.select_from(
            adapter, context)
    return child_contexts


def _scan(doc: OsonDocument, trie: _RowProgram, node: int,
          base: dict[str, Any], child_contexts: list[Sequence[Any]],
          unnest: list[_RowProgram]) -> None:
    """One trie level at one node: hand out the row contexts that end
    here, then read the object once and follow every wanted member."""
    for index, wildcard in trie.nested:
        elements = doc.array_children(node) if wildcard else None
        # lax: a non-array behaves as a singleton array under [*]
        child_contexts[index] = [node] if elements is None else elements
    if not trie.fields:
        return
    pair = doc.object_children(node)
    if pair is None:
        if doc.node_type(node) == oson_constants.NODE_ARRAY:
            unnest.append(trie)
        return
    ids, children = pair
    count = len(ids)
    for field_id, columns, deeper in trie.resolved(doc):
        position = bisect_left(ids, field_id)
        if position == count or ids[position] != field_id:
            continue
        child = children[position]
        if columns:
            value = doc.scalar_value(child, _CONTAINER)
            if value is not _CONTAINER:  # a container column is NULL
                for name, _evaluator, coercer in columns:
                    base[name] = _coerced(value, coercer)
        if deeper is not None:
            _scan(doc, deeper, child, base, child_contexts, unnest)


def _column_value(adapter: Any, contexts: Sequence[Any],
                  evaluator: PathEvaluator, coercer: Any) -> Any:
    """Column value over the factored prefix nodes: the suffix path runs
    from each prefix node and the results concatenate (sequential step
    application distributes over the node list), which is exactly what
    the unfactored full path would have selected."""
    if len(contexts) == 1:
        nodes = evaluator.select_from(adapter, contexts[0])
    else:
        nodes = [node for context in contexts
                 for node in evaluator.select_from(adapter, context)]
    if len(nodes) != 1:
        return None
    selected = nodes[0]
    if isinstance(selected, _Computed):
        return _coerced(selected.value, coercer)
    if adapter.kind(selected) == SCALAR:
        return _coerced(adapter.scalar(selected), coercer)
    return None


def _coerced(value: Any, coercer: Any) -> Any:
    try:
        return coercer(value)
    except (ReproError, ValueError, TypeError):
        # SQL NULL-on-error semantics: a RETURNING coercion failure
        # yields NULL for the column, not a failed row
        return None


class JsonTableRowSource:
    """start() / fetch_next_batch() / close() iterator (section 5.1)."""

    def __init__(self, table: JsonTable, documents: Any) -> None:
        self._table = table
        self._documents = documents
        self._iterator: Optional[Iterator[dict[str, Any]]] = None
        self._closed = False

    def start(self) -> None:
        if self._closed:
            raise QueryError("row source already closed")
        self._iterator = self._table.iter_rows(iter(self._documents))

    def fetch_next_batch(self, batch_size: int = 64) -> list[dict[str, Any]]:
        """Fetch up to ``batch_size`` rows; an empty list signals end."""
        if self._iterator is None:
            raise QueryError("row source not started")
        batch: list[dict[str, Any]] = []
        for row in self._iterator:
            batch.append(row)
            if len(batch) >= batch_size:
                break
        return batch

    def close(self) -> None:
        self._iterator = None
        self._closed = True
