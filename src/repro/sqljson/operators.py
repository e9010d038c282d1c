"""SQL/JSON operators: JSON_VALUE, JSON_QUERY, JSON_EXISTS, JSON_TEXTCONTAINS.

Each operator accepts the JSON input in any physical form — JSON text
(``str``), OSON or BSON bytes, an :class:`~repro.core.oson.OsonDocument`,
or already-parsed Python values — and evaluates the path through one
adapter from :func:`~repro.sqljson.adapters.adapter_for`.  JSON text is
parsed once per call, which is the re-parse the paper's TEXT mode pays.
Malformed text is an evaluation error like any other: NULL (or a raise
under ``on_error="error"``) for JSON_VALUE / JSON_QUERY, false for
JSON_EXISTS / JSON_TEXTCONTAINS.

``returning`` on JSON_VALUE accepts a SQL type spec (``"number"``,
``"varchar2(30)"``, ``"boolean"``) and coerces the selected scalar, as the
virtual-column definitions of section 3.3.1 do.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from typing import Any, Optional

from repro.errors import JsonParseError, PathEvaluationError
from repro.jsontext import dumps
from repro.obs import metrics as _metrics
from repro.sqljson.adapters import SCALAR, adapter_for
from repro.sqljson.path.evaluator import _Computed, evaluator_for
from repro.sqljson.path.parser import compile_path

#: what an operator treats as "the path could not be evaluated"
_EVAL_ERRORS = (PathEvaluationError, JsonParseError)

#: ``on_error`` behaviours
NULL_ON_ERROR = "null"
ERROR_ON_ERROR = "error"

#: per-operator invocation counts for the unified metrics export
_JSON_VALUE_CALLS = _metrics.counter("sqljson.operators.json_value")
_JSON_QUERY_CALLS = _metrics.counter("sqljson.operators.json_query")
_JSON_EXISTS_CALLS = _metrics.counter("sqljson.operators.json_exists")
_TEXTCONTAINS_CALLS = _metrics.counter("sqljson.operators.json_textcontains")

_RETURNING_RE = re.compile(r"^\s*(\w+)\s*(?:\(\s*(\d+)\s*\))?\s*$", re.IGNORECASE)


def json_value(data: Any, path: str, returning: Optional[str] = None,
               on_error: str = NULL_ON_ERROR) -> Any:
    """Extract one scalar value (section 3.3.1's virtual-column operator).

    Returns ``None`` when the path selects nothing, selects a non-scalar,
    or selects more than one item — unless ``on_error="error"``, in which
    case those conditions raise :class:`~repro.errors.PathEvaluationError`.
    """
    _JSON_VALUE_CALLS.inc()
    compiled = compile_path(path)
    try:
        adapter = adapter_for(data)
        nodes = evaluator_for(compiled).select(adapter)
        if len(nodes) != 1:
            return _singleton_error(nodes, on_error)
        node = nodes[0]
        if isinstance(node, _Computed):
            return _coerce_return(node.value, returning)
        if adapter.kind(node) != SCALAR:
            return _singleton_error(nodes, on_error)
        return _coerce_return(adapter.scalar(node), returning)
    except _EVAL_ERRORS:
        if on_error == ERROR_ON_ERROR:
            raise
        return None


def _singleton_error(items: list, on_error: str) -> None:
    if on_error == ERROR_ON_ERROR:
        if not items:
            raise PathEvaluationError("JSON_VALUE: path selected no item")
        if len(items) > 1:
            raise PathEvaluationError("JSON_VALUE: path selected multiple items")
        raise PathEvaluationError("JSON_VALUE: path selected a non-scalar")
    return None


def json_query(data: Any, path: str, wrapper: bool = False,
               as_text: bool = False, on_error: str = NULL_ON_ERROR) -> Any:
    """Extract a JSON fragment (object/array/scalar sequence).

    With ``wrapper=True`` multiple matches are wrapped in an array; with
    ``wrapper=False`` exactly one match must be a container.  ``as_text``
    serializes the result back to compact JSON text.
    """
    _JSON_QUERY_CALLS.inc()
    compiled = compile_path(path)
    try:
        values = evaluator_for(compiled).values(adapter_for(data))
        if wrapper:
            result = values
        else:
            if len(values) != 1:
                if on_error == ERROR_ON_ERROR:
                    raise PathEvaluationError(
                        "JSON_QUERY: path did not select exactly one item")
                return None
            result = values[0]
            if not isinstance(result, (dict, list, tuple)):
                if on_error == ERROR_ON_ERROR:
                    raise PathEvaluationError(
                        "JSON_QUERY without wrapper selected a scalar")
                return None
        return dumps(result) if as_text else result
    except _EVAL_ERRORS:
        if on_error == ERROR_ON_ERROR:
            raise
        return None


def json_exists(data: Any, path: str) -> bool:
    """True if the path selects at least one item in the document."""
    _JSON_EXISTS_CALLS.inc()
    compiled = compile_path(path)
    try:
        return evaluator_for(compiled).exists(adapter_for(data))
    except _EVAL_ERRORS:
        return False


_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def json_textcontains(data: Any, path: str, keywords: str) -> bool:
    """Full-text style containment: true if every keyword appears among
    the tokens of the string values selected by ``path``.

    Strings are tokenized into lower-cased word tokens, the same
    tokenization the JSON search index applies (section 3.2.1).
    """
    _TEXTCONTAINS_CALLS.inc()
    compiled = compile_path(path)
    wanted = {t.lower() for t in _TOKEN_RE.findall(keywords)}
    if not wanted:
        return False
    try:
        values = evaluator_for(compiled).values(adapter_for(data))
    except _EVAL_ERRORS:
        return False
    tokens: set[str] = set()
    stack = list(values)
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            tokens.update(t.lower() for t in _TOKEN_RE.findall(value))
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return wanted <= tokens


# ------------------------------------------------------------ returning


def make_coercer(returning: Optional[str]):
    """Compile a RETURNING type spec into a reusable coercion callable.

    JSON_TABLE parses each column's type once at view-compile time and
    applies the compiled coercer per row — the spec-parsing regex must not
    run on the per-row hot path.
    """
    if returning is None:
        return lambda value: value
    match = _RETURNING_RE.match(returning)
    if not match:
        raise PathEvaluationError(f"bad RETURNING type {returning!r}")
    type_name = match.group(1).lower()
    size = int(match.group(2)) if match.group(2) else None
    if type_name == "number":
        def coerce_number(value: Any) -> Any:
            if value is None or isinstance(value, (int, float, Decimal)) \
                    and not isinstance(value, bool):
                return value
            return _coerce_return(value, "number")
        return coerce_number
    if type_name in ("varchar2", "varchar", "string", "clob"):
        def coerce_text(value: Any) -> Any:
            if value is None:
                return None
            text = value if isinstance(value, str) else _scalar_to_text(value)
            if size is not None and len(text) > size:
                return text[:size]
            return text
        return coerce_text
    if type_name == "boolean":
        return lambda value: _coerce_return(value, "boolean")
    raise PathEvaluationError(f"unsupported RETURNING type {returning!r}")


def _coerce_return(value: Any, returning: Optional[str]) -> Any:
    """Coerce a selected scalar to the requested SQL type."""
    if returning is None or value is None:
        return value
    match = _RETURNING_RE.match(returning)
    if not match:
        raise PathEvaluationError(f"bad RETURNING type {returning!r}")
    type_name = match.group(1).lower()
    size = int(match.group(2)) if match.group(2) else None
    if type_name == "number":
        if isinstance(value, bool):
            return 1 if value else 0
        if isinstance(value, (int, float, Decimal)):
            return value
        try:
            text = str(value).strip()
            return int(text) if re.fullmatch(r"-?\d+", text) else float(text)
        except (ValueError, InvalidOperation):
            raise PathEvaluationError(
                f"cannot convert {value!r} to NUMBER") from None
    if type_name in ("varchar2", "varchar", "string", "clob"):
        text = value if isinstance(value, str) else _scalar_to_text(value)
        if size is not None and len(text) > size:
            return text[:size]
        return text
    if type_name == "boolean":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
        raise PathEvaluationError(f"cannot convert {value!r} to BOOLEAN")
    raise PathEvaluationError(f"unsupported RETURNING type {returning!r}")


def _scalar_to_text(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)
