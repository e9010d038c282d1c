"""Direct DOM parser for JSON text.

``loads`` turns JSON text into plain Python values (dict / list / str /
int / float / bool / None) by recursive descent over the text itself: no
event objects, no generators, no second pass.  Strings and numbers are
decoded by :func:`~repro.jsontext.lexer.scan_string` and
:func:`~repro.jsontext.lexer.scan_number`, the scanners the event lexer
uses too.

What the TEXT baseline is charged: every call scans every byte of the
text and validates the full grammar, trailing characters included, and
each token costs Python-level work.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import JsonParseError
from repro.jsontext.lexer import _PLAIN_STRING, scan_number, scan_string

_SKIP_WS = re.compile(r"[ \t\n\r]*").match
_WS = " \t\n\r"
_NUMBER_START = "-0123456789"
_LITERALS = {"t": ("true", True), "f": ("false", False), "n": ("null", None)}


def loads(text: str) -> Any:
    """Parse JSON ``text`` into Python values.

    The whole text must be one JSON value, optionally surrounded by
    whitespace.  Duplicate object keys keep the last value, matching
    the common lax JSON parser behaviour (and Oracle's default).
    Malformed text — including nesting deeper than the interpreter's
    recursion limit — raises :class:`~repro.errors.JsonParseError`.
    """
    pos = _SKIP_WS(text, 0).end()
    n = len(text)
    if pos == n:
        raise JsonParseError("empty JSON input", pos)
    try:
        value, pos = _value(text, pos)
    except IndexError:
        # every read past the end of the text is an index past the end
        raise JsonParseError("unexpected end of input", n) from None
    except RecursionError:
        raise JsonParseError("nesting too deep", pos) from None
    if pos != n:
        pos = _SKIP_WS(text, pos).end()
        if pos != n:
            raise JsonParseError("trailing characters after JSON value", pos)
    return value


def _value(text: str, pos: int) -> tuple[Any, int]:
    """The value starting at ``text[pos]`` (not whitespace) and the
    position just past it."""
    ch = text[pos]
    if ch == '"':
        return scan_string(text, pos)
    if ch == "{":
        return _object(text, pos + 1)
    if ch == "[":
        return _array(text, pos + 1)
    if ch in _NUMBER_START:
        return scan_number(text, pos)
    literal = _LITERALS.get(ch)
    if literal is None:
        raise JsonParseError(f"unexpected character {ch!r}", pos)
    word, value = literal
    if not text.startswith(word, pos):
        raise JsonParseError(f"invalid literal, expected {word!r}", pos)
    return value, pos + len(word)


def _object(text: str, pos: int) -> tuple[dict[str, Any], int]:
    """The object whose ``{`` ends just before ``pos``."""
    obj: dict[str, Any] = {}
    ch = text[pos]
    if ch in _WS:
        pos = _SKIP_WS(text, pos).end()
        ch = text[pos]
    if ch == "}":
        return obj, pos + 1
    while True:
        # keys are the commonest token: match an escape-free one here
        match = _PLAIN_STRING(text, pos)
        if match is not None:
            key = match.group(1)
            pos = match.end()
        elif ch == '"':
            key, pos = scan_string(text, pos)
        else:
            raise JsonParseError("expected string key in object", pos)
        if text[pos] != ":":
            pos = _SKIP_WS(text, pos).end()
            if text[pos] != ":":
                raise JsonParseError("expected ':' after object key", pos)
        pos += 1
        if text[pos] in _WS:
            pos = _SKIP_WS(text, pos).end()
        obj[key], pos = _value(text, pos)
        ch = text[pos]
        if ch in _WS:
            pos = _SKIP_WS(text, pos).end()
            ch = text[pos]
        if ch == ",":
            pos += 1
            ch = text[pos]
            if ch in _WS:
                pos = _SKIP_WS(text, pos).end()
                ch = text[pos]
            continue
        if ch == "}":
            return obj, pos + 1
        raise JsonParseError("expected ',' or '}' in object", pos)


def _array(text: str, pos: int) -> tuple[list[Any], int]:
    """The array whose ``[`` ends just before ``pos``."""
    arr: list[Any] = []
    append = arr.append
    ch = text[pos]
    if ch in _WS:
        pos = _SKIP_WS(text, pos).end()
        ch = text[pos]
    if ch == "]":
        return arr, pos + 1
    while True:
        value, pos = _value(text, pos)
        append(value)
        ch = text[pos]
        if ch in _WS:
            pos = _SKIP_WS(text, pos).end()
            ch = text[pos]
        if ch == ",":
            pos += 1
            if text[pos] in _WS:
                pos = _SKIP_WS(text, pos).end()
            continue
        if ch == "]":
            return arr, pos + 1
        raise JsonParseError("expected ',' or ']' in array", pos)

