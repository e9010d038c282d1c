"""SQL/JSON path AST -> OSON navigation-program compiler.

:func:`compile_nav` lowers a lax :class:`~repro.sqljson.path.ast.JsonPath`
to the flat opcode form :func:`repro.core.oson.navigate.navigate`
executes straight over the binary image.  Member steps carry their
:class:`~repro.core.oson.cache.CompiledFieldName` (hash precomputed at
parse time), array subscripts are lowered to plain index tuples, and
filter predicates become Python closures over the document's partial-
decode primitives, sharing the comparison kernel of
:mod:`repro.sqljson.path.comparisons` with the DOM evaluator.

Not every path is navigable: strict mode, wildcard member steps (``.*``),
descendant steps (``..name``) and item methods fall back to the DOM
route (``compile_nav`` returns ``None``).  What remains covers the hot
paths of the Figure 3/9 workloads — member chains, subscripts, ``[*]``
un-nesting and comparison/exists filters, including every predicate the
JSON_EXISTS pushdown of section 6.3 renders.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.oson import constants as c
from repro.core.oson.decoder import OsonDocument
from repro.core.oson.navigate import (
    NavProgram,
    OP_FIELD,
    OP_FILTER,
    OP_INDEX,
    OP_WILD,
    navigate,
)
from repro.sqljson.path import ast
from repro.sqljson.path.comparisons import compare

_Pred = Callable[[OsonDocument, int, Any], bool]
_Operand = Callable[[OsonDocument, int, Any], list]


def compile_nav(path: ast.JsonPath) -> Optional[NavProgram]:
    """Compile ``path`` to a navigation program, or ``None`` when the
    path uses a construct the program form does not cover."""
    if path.mode != ast.LAX:
        return None
    ops = _compile_steps(path.steps)
    if ops is None:
        return None
    return NavProgram(ops)


def _compile_steps(steps: tuple) -> Optional[list[tuple]]:
    ops: list[tuple] = []
    for step in steps:
        if isinstance(step, ast.MemberStep):
            ops.append((OP_FIELD, step.compiled))
        elif isinstance(step, ast.ArrayStep):
            if step.is_wildcard:
                ops.append((OP_WILD,))
            else:
                subscripts = tuple(
                    (index.start, index.end,
                     index.last_relative, index.end_last_relative)
                    for index in step.indexes)
                ops.append((OP_INDEX, subscripts))
        elif isinstance(step, ast.FilterStep):
            predicate = _compile_predicate(step.predicate)
            if predicate is None:
                return None
            ops.append((OP_FILTER, predicate))
        else:
            # WildcardMemberStep / DescendantStep / ItemMethodStep:
            # DOM-route only
            return None
    return ops


# ------------------------------------------------------------- predicates


def _compile_predicate(expr: ast.BoolExpr) -> Optional[_Pred]:
    """Compile a filter predicate to ``f(doc, node, resolver) -> bool``,
    mirroring ``evaluator._predicate`` in lax mode exactly."""
    if isinstance(expr, ast.And):
        parts = [_compile_predicate(p) for p in expr.parts]
        if any(p is None for p in parts):
            return None
        return lambda doc, node, resolver: all(
            p(doc, node, resolver) for p in parts)
    if isinstance(expr, ast.Or):
        parts = [_compile_predicate(p) for p in expr.parts]
        if any(p is None for p in parts):
            return None
        return lambda doc, node, resolver: any(
            p(doc, node, resolver) for p in parts)
    if isinstance(expr, ast.Not):
        inner = _compile_predicate(expr.expr)
        if inner is None:
            return None
        return lambda doc, node, resolver: not inner(doc, node, resolver)
    if isinstance(expr, ast.Exists):
        ops = _compile_steps(expr.path.steps)
        if ops is None:
            return None
        program = NavProgram(ops)
        return lambda doc, node, resolver: bool(
            navigate(doc, program, node, resolver))
    if isinstance(expr, ast.Comparison):
        left = _compile_operand(expr.left)
        right = _compile_operand(expr.right)
        if left is None or right is None:
            return None
        op = expr.op

        def comparison(doc: OsonDocument, node: int, resolver: Any) -> bool:
            # existential: true if any (left, right) value pair satisfies
            rights = right(doc, node, resolver)
            if not rights:
                return False
            return any(compare(op, lv, rv)
                       for lv in left(doc, node, resolver)
                       for rv in rights)

        return comparison
    if isinstance(expr, ast.StringPredicate):
        operand = _compile_operand(expr.operand)
        if operand is None:
            return None
        needle = expr.needle
        if expr.kind == "has_substring":
            return lambda doc, node, resolver: any(
                isinstance(v, str) and needle in v
                for v in operand(doc, node, resolver))
        return lambda doc, node, resolver: any(
            isinstance(v, str) and v.startswith(needle)
            for v in operand(doc, node, resolver))
    return None


def _compile_operand(operand: ast.Operand) -> Optional[_Operand]:
    """Compile a comparison operand to ``f(doc, node, resolver) -> values``,
    mirroring ``evaluator._operand_values`` in lax mode: scalars decode,
    arrays unwrap one level of scalar elements, objects contribute
    nothing."""
    if isinstance(operand, ast.Literal):
        values = [operand.value]
        return lambda doc, node, resolver: values
    if not isinstance(operand, ast.RelativePath):
        return None
    ops = _compile_steps(operand.steps)
    if ops is None:
        return None
    program = NavProgram(ops)

    def operand_values(doc: OsonDocument, node: int, resolver: Any) -> list:
        values = []
        # a bare ``@`` selects the context item itself: nothing to walk
        selection = navigate(doc, program, node, resolver) if ops else (node,)
        for selected in selection:
            node_type = doc.node_type(selected)
            if node_type == c.NODE_SCALAR:
                values.append(doc.scalar_value(selected))
            elif node_type == c.NODE_ARRAY:
                for element in doc.array_elements(selected):
                    if doc.node_type(element) == c.NODE_SCALAR:
                        values.append(doc.scalar_value(element))
        return values

    return operand_values
