"""Partial-decode path navigation over raw OSON images (section 5.1/6).

:func:`navigate` executes a compiled navigation program directly against
an :class:`~repro.core.oson.decoder.OsonDocument`: field steps resolve
names through the dictionary segment (one
:class:`~repro.core.oson.cache.FieldIdResolver` resolution per step per
document) and binary-search the sorted field-id arrays; array steps jump
by element offset.  Only the nodes actually on the path are touched and
only the terminal scalar/subtree is ever decoded — a simple
``$.a.b[n].c`` path never builds a DOM.

The program is a flat tuple of opcode tuples produced by
:mod:`repro.sqljson.path.compiler` (this module is deliberately free of
any path-AST dependency so the core package stays below the SQL/JSON
layer):

========================== ==================================================
``(OP_FIELD, compiled)``   lax member step (``CompiledFieldName``), with
                           the standard's array auto-unnesting
``(OP_INDEX, subscripts)`` subscript list; each subscript is a
                           ``(start, end, last_rel, end_last_rel)`` tuple
                           with inclusive ``end`` (``None`` = single index)
``(OP_WILD,)``             ``[*]`` — all elements, lax singleton semantics
``(OP_FILTER, predicate)`` ``?(...)`` — opaque callable
                           ``predicate(doc, node, resolver) -> bool``
========================== ==================================================

Semantics are *lax* mode, mirroring
:class:`repro.sqljson.path.evaluator.PathEvaluator` exactly (the
differential suite in ``tests/sqljson`` asserts byte-identical results);
strict-mode paths are never compiled to programs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from repro.core.oson import constants as c
from repro.core.oson.cache import FieldIdResolver
from repro.core.oson.decoder import OsonDocument
from repro.errors import OsonError
from repro.obs import metrics as _metrics

OP_FIELD = "field"
OP_INDEX = "index"
OP_WILD = "wild"
OP_FILTER = "filter"

#: EXPLAIN ANALYZE signal: how often the single-live-node chain walk
#: handled a program vs. falling back to the general list interpreter
#: (lax unnesting forces the fallback even on chain-shaped programs)
_CHAIN_WALKS = _metrics.counter("oson.navigate.chain_walks")
_GENERAL_RUNS = _metrics.counter("oson.navigate.general_runs")

#: module-level kill switch for the before/after ablation benchmarks:
#: with navigation disabled every path evaluation takes the DOM-adapter
#: route, which is exactly the pre-optimization engine
_enabled = True


def set_navigation_enabled(enabled: bool) -> bool:
    """Toggle the partial-decode fast path; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def navigation_enabled() -> bool:
    return _enabled


class NavProgram:
    """A compiled navigation program plus its precomputed fast-walk form.

    ``chain`` is the single-node walk specialization: when every opcode
    is a member step or a single non-negative absolute index, at most
    one node is live at a time (unless lax unnesting kicks in) and the
    interpreter can walk without building per-step lists.
    """

    __slots__ = ("ops", "chain")

    def __init__(self, ops: Sequence[tuple]) -> None:
        self.ops = tuple(ops)
        self.chain = self._build_chain()

    def _build_chain(self) -> Optional[tuple]:
        chain = []
        for op in self.ops:
            tag = op[0]
            if tag == OP_FIELD:
                chain.append(op)
            elif tag == OP_INDEX:
                subscripts = op[1]
                if len(subscripts) != 1:
                    return None
                start, end, last_rel, _ = subscripts[0]
                if end is not None or last_rel or start < 0:
                    return None
                chain.append((OP_INDEX, start))
            else:
                return None
        return tuple(chain)

    def __repr__(self) -> str:
        return f"NavProgram({self.ops!r})"


#: sentinel: the single-node walk met an array on a member step and the
#: general (list-building) interpreter must take over for lax unnesting
_UNNEST = object()


def navigate(doc: OsonDocument, program: NavProgram,
             context: Optional[int] = None,
             resolver: Optional[FieldIdResolver] = None) -> list[int]:
    """Node addresses selected by ``program`` from ``context`` (default
    the document root).  Results are tree offsets in ``doc``'s domain —
    the same node handles :class:`repro.sqljson.adapters.OsonAdapter`
    hands out, so callers decode terminals with ``doc.scalar_value`` /
    ``doc.materialize`` exactly as on the DOM route.
    """
    node = doc.root if context is None else context
    chain = program.chain
    if chain is not None:
        result = _walk_chain(doc, chain, node, resolver)
        if result is not _UNNEST:
            _CHAIN_WALKS.inc()
            return result
    _GENERAL_RUNS.inc()
    return _run(doc, program.ops, [node], resolver)


def _walk_chain(doc: OsonDocument, chain: tuple, node: int,
                resolver: Optional[FieldIdResolver]) -> Any:
    """Single-live-node walk for pure member/single-index chains."""
    for op in chain:
        if op[0] == OP_FIELD:
            compiled = op[1]
            if resolver is not None:
                field_id = resolver.resolve(doc, compiled)
            else:
                field_id = doc.field_id(compiled.name, compiled.hash)
            child = None
            if field_id is not None:
                child = doc.get_field_value(node, field_id)
            if child is None:
                if doc.node_type(node) == c.NODE_ARRAY:
                    return _UNNEST  # lax auto-unnesting: needs node lists
                return []
            node = child
        else:  # single absolute index
            index = op[1]
            if doc.node_type(node) == c.NODE_ARRAY:
                child = doc.get_array_element(node, index)
                if child is None:
                    return []
                node = child
            elif index != 0:
                return []  # lax: non-array is a singleton array
    return [node]


def _run(doc: OsonDocument, ops: tuple, nodes: list[int],
         resolver: Optional[FieldIdResolver]) -> list[int]:
    """General interpreter: one node list per step, lax semantics."""
    for op in ops:
        tag = op[0]
        if tag == OP_FIELD:
            nodes = _step_field(doc, nodes, op[1], resolver)
        elif tag == OP_INDEX:
            nodes = _step_index(doc, nodes, op[1])
        elif tag == OP_WILD:
            nodes = _step_wildcard(doc, nodes)
        elif tag == OP_FILTER:
            predicate = op[1]
            nodes = [n for n in nodes if predicate(doc, n, resolver)]
        else:
            raise OsonError(f"unknown navigation opcode {tag!r}")
        if not nodes:
            return nodes
    return nodes


def _step_field(doc: OsonDocument, nodes: list[int],
                compiled: Any,
                resolver: Optional[FieldIdResolver]) -> list[int]:
    if resolver is not None:
        field_id = resolver.resolve(doc, compiled)
    else:
        field_id = doc.field_id(compiled.name, compiled.hash)
    if field_id is None:
        return []  # absent from the dictionary => absent from every object
    out: list[int] = []
    for node in nodes:
        child = doc.get_field_value(node, field_id)
        if child is not None:
            out.append(child)
            continue
        # lax auto-unnesting: on an array the member step applies to
        # each object element (nested arrays are not recursed into)
        for element in doc.array_children(node) or ():
            child = doc.get_field_value(element, field_id)
            if child is not None:
                out.append(child)
    return out


def _step_wildcard(doc: OsonDocument, nodes: list[int]) -> list[int]:
    out: list[int] = []
    for node in nodes:
        elements = doc.array_children(node)
        if elements is None:
            out.append(node)  # lax: non-array behaves as singleton array
        else:
            out.extend(elements)
    return out


def _step_index(doc: OsonDocument, nodes: list[int],
                subscripts: tuple) -> list[int]:
    out: list[int] = []
    for node in nodes:
        if doc.node_type(node) != c.NODE_ARRAY:
            # lax: the item is a singleton array — it survives iff some
            # subscript expands to index 0
            for index in _expand_subscripts(subscripts, 1):
                if index == 0:
                    out.append(node)
        else:
            length = doc.child_count(node)
            for index in _expand_subscripts(subscripts, length):
                child = doc.get_array_element(node, index)
                if child is not None:
                    out.append(child)
    return out


def _expand_subscripts(subscripts: tuple, length: int) -> Iterator[int]:
    """Expand ``(start, end, last_rel, end_last_rel)`` subscripts to
    element indexes, mirroring ``PathEvaluator._expand_indexes`` in lax
    mode (negative single indexes drop; descending ranges drop)."""
    for start, end, last_rel, end_last_rel in subscripts:
        first = (length - 1 - start) if last_rel else start
        if end is None:
            if first >= 0:
                yield first
            continue
        last = (length - 1 - end) if end_last_rel else end
        if last < first:
            continue
        yield from range(first, last + 1)


#: callable signature for compiled filter predicates (documented here so
#: the compiler and the VM agree on the contract)
Predicate = Callable[[OsonDocument, int, Optional[FieldIdResolver]], bool]
