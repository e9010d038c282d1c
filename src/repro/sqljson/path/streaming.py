"""Streaming path engine over JSON text events (section 5.1).

For SQL/JSON operators evaluated against *textual* JSON, Oracle's engine
consumes parser events and avoids DOM construction when the path is simple
enough.  We reproduce that: :func:`stream_select` evaluates paths composed
of member steps, array index steps and array wildcards directly over the
event stream from :mod:`repro.jsontext.lexer`, materializing only the
matched subtrees.  Paths with filters, descendants or item methods fall
back to a full parse + DOM evaluation — the "memorize events" cost the
paper describes for complex operators.

Either way the full text is tokenized, which is precisely why the TEXT
mode of Figures 3 and 5 loses to OSON.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PathEvaluationError
from repro.jsontext.lexer import JsonEvent, JsonEventType, tokenize
from repro.jsontext.parser import loads
from repro.sqljson.adapters import DictAdapter
from repro.sqljson.path import ast
from repro.sqljson.path.evaluator import PathEvaluator

_SIMPLE_STEPS = (ast.MemberStep, ast.ArrayStep)


def is_streamable(path: ast.JsonPath) -> bool:
    """True if the path can run directly over the event stream."""
    for step in path.steps:
        if isinstance(step, ast.MemberStep):
            continue
        if isinstance(step, ast.ArrayStep):
            if step.is_wildcard:
                continue
            if (len(step.indexes) == 1 and step.indexes[0].end is None
                    and not step.indexes[0].last_relative):
                continue
            return False
        return False
    return True


def stream_select(text: str, path: ast.JsonPath) -> list[Any]:
    """Evaluate ``path`` over JSON ``text``, returning matched values.

    Streams when possible; otherwise parses to a DOM and delegates to the
    generic evaluator.
    """
    if is_streamable(path):
        return list(_stream_match(tokenize(text), path.steps, 0))
    return PathEvaluator(path).values(DictAdapter(loads(text)))


def stream_exists(text: str, path: ast.JsonPath) -> bool:
    """JSON_EXISTS over text: stops at the first match when streaming."""
    if is_streamable(path):
        for _ in _stream_match(tokenize(text), path.steps, 0):
            return True
        return False
    return PathEvaluator(path).exists(DictAdapter(loads(text)))


# ----------------------------------------------------------- streaming core


def _stream_match(events: Iterator[JsonEvent], steps: tuple,
                  depth: int) -> Iterator[Any]:
    """Match ``steps`` against the event stream from the next value.

    Unmatched subtrees are *skipped* (consumed without building
    anything), matched leaves are materialized.
    """
    try:
        event = next(events)
    except StopIteration:
        return
    yield from _continue(event, events, steps, depth)


def _match_in_object(events: Iterator[JsonEvent], steps: tuple, depth: int,
                     name: str) -> Iterator[Any]:
    """Scan one object's fields, descending into the one named ``name``."""
    while True:
        probe = next(events)
        if probe.type is JsonEventType.OBJECT_END:
            return
        if probe.type is not JsonEventType.FIELD_NAME:
            raise PathEvaluationError(
                f"malformed event stream: expected field name, got "
                f"{probe.type.name}")
        if probe.value == name:
            value_event = next(events)
            yield from _continue(value_event, events, steps, depth + 1)
        else:
            _skip(next(events), events)


def _continue(event: JsonEvent, events: Iterator[JsonEvent], steps: tuple,
              depth: int) -> Iterator[Any]:
    """Resume matching at ``depth`` with ``event`` already consumed."""
    if depth >= len(steps):
        yield _materialize(event, events)
        return
    step = steps[depth]
    if isinstance(step, ast.MemberStep):
        if event.type is JsonEventType.OBJECT_START:
            yield from _match_in_object(events, steps, depth, step.name)
        elif event.type is JsonEventType.ARRAY_START:
            while True:
                probe = next(events)
                if probe.type is JsonEventType.ARRAY_END:
                    return
                if probe.type is JsonEventType.OBJECT_START:
                    yield from _match_in_object(events, steps, depth, step.name)
                else:
                    _skip(probe, events)
        else:
            _skip(event, events)
    elif isinstance(step, ast.ArrayStep):
        if event.type is JsonEventType.ARRAY_START:
            target = None if step.is_wildcard else step.indexes[0].start
            index = 0
            while True:
                probe = next(events)
                if probe.type is JsonEventType.ARRAY_END:
                    return
                if target is None or index == target:
                    yield from _continue(probe, events, steps, depth + 1)
                else:
                    _skip(probe, events)
                index += 1
        else:
            if step.is_wildcard or step.indexes[0].start == 0:
                yield from _continue(event, events, steps, depth + 1)
            else:
                _skip(event, events)


_OPEN = (JsonEventType.OBJECT_START, JsonEventType.ARRAY_START)
_CLOSE = (JsonEventType.OBJECT_END, JsonEventType.ARRAY_END)


def _skip(event: JsonEvent, events: Iterator[JsonEvent]) -> None:
    """Consume (without building) the value that starts with ``event``."""
    if event.type not in _OPEN:
        return
    depth = 1
    for ev in events:
        if ev.type in _OPEN:
            depth += 1
        elif ev.type in _CLOSE:
            depth -= 1
            if depth == 0:
                return


def _materialize(event: JsonEvent, events: Iterator[JsonEvent]) -> Any:
    """Build the value that starts with ``event`` from the rest of the
    event stream (a matched subtree).  The lexer has validated the
    grammar, so every object's field name is followed by its value and
    every container is closed."""
    etype = event.type
    if etype is JsonEventType.OBJECT_START:
        obj: dict[str, Any] = {}
        for ev in events:
            if ev.type is JsonEventType.OBJECT_END:
                return obj
            obj[ev.value] = _materialize(next(events), events)
    if etype is JsonEventType.ARRAY_START:
        arr: list[Any] = []
        for ev in events:
            if ev.type is JsonEventType.ARRAY_END:
                return arr
            arr.append(_materialize(ev, events))
    return event.value
