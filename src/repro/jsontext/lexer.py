"""Streaming JSON tokenizer and the shared scalar scanners.

:class:`JsonLexer` produces a flat stream of :class:`JsonEvent` records
from JSON text.  The event stream feeds the streaming SQL/JSON path
engine (:mod:`repro.sqljson.path.streaming`), mirroring the paper's
event-based text path engine (section 5.1).  DOM construction does not
go through events: :func:`repro.jsontext.parser.loads` parses text
straight to Python values.  Both call :func:`scan_string` and
:func:`scan_number` here, so the string and number grammar and their
error messages exist once.

What the TEXT baseline is charged: every byte of a document is scanned
again on every access, and each token costs Python-level work (a
regular-expression match or a branch, plus the value it builds).  The
scanners are hand written instead of delegating to the C implementation
inside the standard-library ``json`` module, so that cost is ours to pay
and to measure; like CPython's own pure-Python JSON scanner they let
``re`` consume runs of plain string characters and digits.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import JsonParseError

JsonScalar = Union[str, int, float, bool, None]

_WHITESPACE = " \t\n\r"
_DIGITS = "0123456789"

_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}

#: a whole string without escapes, quotes included
_PLAIN_STRING = re.compile(r'"([^"\\\x00-\x1f]*)"').match
#: a run of characters that need no decoding inside a string
_PLAIN_RUN = re.compile(r'[^"\\\x00-\x1f]*').match
_HEX4 = re.compile(r"[0-9a-fA-F]{4}").fullmatch
#: group 1 is the integer part; a match with ``lastindex == 1`` is an int
_NUMBER = re.compile(r"(-?(?:0|[1-9][0-9]*))(\.[0-9]+)?([eE][-+]?[0-9]+)?").match


def scan_string(text: str, pos: int) -> tuple[str, int]:
    """Decode the JSON string whose opening quote is at ``text[pos]``.

    Returns ``(value, end)`` with ``end`` just past the closing quote.
    """
    match = _PLAIN_STRING(text, pos)
    if match is not None:
        return match.group(1), match.end()
    chunks: list[str] = []
    n = len(text)
    pos += 1
    while True:
        end = _PLAIN_RUN(text, pos).end()
        if end >= n:
            raise JsonParseError("unterminated string", end)
        chunks.append(text[pos:end])
        ch = text[end]
        if ch == '"':
            return "".join(chunks), end + 1
        if ch != "\\":
            raise JsonParseError("unescaped control character in string", end)
        pos = end + 1
        if pos >= n:
            raise JsonParseError("unterminated string", pos)
        esc = text[pos]
        if esc == "u":
            code = _hex4(text, pos)
            pos += 5
            if 0xD800 <= code <= 0xDBFF and text[pos:pos + 2] == "\\u":
                # a UTF-16 surrogate pair decodes to one code point; a
                # high surrogate without a low one is kept as it is
                low = text[pos + 2:pos + 6]
                if _HEX4(low) is not None and 0xDC00 <= int(low, 16) <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (int(low, 16) - 0xDC00)
                    pos += 6
            chunks.append(chr(code))
        elif esc in _ESCAPES:
            chunks.append(_ESCAPES[esc])
            pos += 1
        else:
            raise JsonParseError(f"invalid escape character {esc!r}", pos)


def _hex4(text: str, pos: int) -> int:
    """The code unit of the ``\\uXXXX`` escape whose ``u`` is at ``pos``:
    exactly four hex digits, no sign, space or underscore."""
    digits = text[pos + 1:pos + 5]
    if len(digits) != 4:
        raise JsonParseError("truncated \\u escape", pos)
    if _HEX4(digits) is None:
        raise JsonParseError("invalid \\u escape", pos)
    return int(digits, 16)


def scan_number(text: str, pos: int) -> tuple[Union[int, float], int]:
    """Decode the JSON number starting at ``text[pos]``.

    Returns ``(value, end)``: an ``int`` without fraction or exponent,
    else a ``float``.
    """
    match = _NUMBER(text, pos)
    if match is None:
        if text[pos:pos + 1] == "-":
            pos += 1
        raise JsonParseError("invalid number", pos)
    end = match.end()
    follow = text[end:end + 1]
    if follow and follow in ".eE":
        # the pattern stopped short of a fraction or exponent
        if follow == ".":
            raise JsonParseError("invalid number: expected digit after '.'", end + 1)
        raise JsonParseError("invalid number: bad exponent", end + 1)
    if match.lastindex == 1:
        return int(match.group()), end
    return float(match.group()), end


class JsonEventType(enum.Enum):
    """Kinds of events produced while scanning a JSON document."""

    OBJECT_START = "object_start"
    OBJECT_END = "object_end"
    ARRAY_START = "array_start"
    ARRAY_END = "array_end"
    FIELD_NAME = "field_name"
    SCALAR = "scalar"


@dataclass(frozen=True, slots=True)
class JsonEvent:
    """One lexical event.

    ``value`` holds the field name for FIELD_NAME events and the decoded
    Python scalar for SCALAR events; it is ``None`` for the structural
    events.  ``position`` is the character offset of the event start,
    useful for error reporting.
    """

    type: JsonEventType
    value: JsonScalar = None
    position: int = -1


class JsonLexer:
    """Incremental tokenizer over a JSON text string.

    Usage::

        for event in JsonLexer(text):
            ...

    The lexer validates full JSON syntax: it tracks a container stack so
    that mismatched brackets, stray commas and trailing garbage all raise
    :class:`~repro.errors.JsonParseError`.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._len = len(text)

    def __iter__(self) -> Iterator[JsonEvent]:
        return self._scan()

    # -- internal -------------------------------------------------------

    def _error(self, message: str) -> JsonParseError:
        return JsonParseError(message, self._pos)

    def _skip_whitespace(self) -> None:
        text, n = self._text, self._len
        pos = self._pos
        while pos < n and text[pos] in _WHITESPACE:
            pos += 1
        self._pos = pos

    def _peek(self) -> str:
        if self._pos >= self._len:
            raise self._error("unexpected end of input")
        return self._text[self._pos]

    def _scan(self) -> Iterator[JsonEvent]:
        self._skip_whitespace()
        if self._pos >= self._len:
            raise self._error("empty JSON input")
        try:
            yield from self._scan_value()
        except RecursionError:
            raise self._error("nesting too deep") from None
        self._skip_whitespace()
        if self._pos != self._len:
            raise self._error("trailing characters after JSON value")

    def _scan_value(self) -> Iterator[JsonEvent]:
        ch = self._peek()
        if ch == "{":
            yield from self._scan_object()
        elif ch == "[":
            yield from self._scan_array()
        elif ch == '"':
            start = self._pos
            yield JsonEvent(JsonEventType.SCALAR, self._scan_string(), start)
        elif ch == "-" or ch in _DIGITS:
            start = self._pos
            yield JsonEvent(JsonEventType.SCALAR, self._scan_number(), start)
        elif ch == "t":
            yield JsonEvent(JsonEventType.SCALAR, self._scan_literal("true", True), self._pos - 4)
        elif ch == "f":
            yield JsonEvent(JsonEventType.SCALAR, self._scan_literal("false", False), self._pos - 5)
        elif ch == "n":
            yield JsonEvent(JsonEventType.SCALAR, self._scan_literal("null", None), self._pos - 4)
        else:
            raise self._error(f"unexpected character {ch!r}")

    def _scan_literal(self, word: str, value: JsonScalar) -> JsonScalar:
        end = self._pos + len(word)
        if self._text[self._pos:end] != word:
            raise self._error(f"invalid literal, expected {word!r}")
        self._pos = end
        return value

    def _scan_object(self) -> Iterator[JsonEvent]:
        yield JsonEvent(JsonEventType.OBJECT_START, None, self._pos)
        self._pos += 1  # consume '{'
        self._skip_whitespace()
        if self._peek() == "}":
            self._pos += 1
            yield JsonEvent(JsonEventType.OBJECT_END, None, self._pos - 1)
            return
        while True:
            self._skip_whitespace()
            if self._peek() != '"':
                raise self._error("expected string key in object")
            key_pos = self._pos
            key = self._scan_string()
            yield JsonEvent(JsonEventType.FIELD_NAME, key, key_pos)
            self._skip_whitespace()
            if self._peek() != ":":
                raise self._error("expected ':' after object key")
            self._pos += 1
            self._skip_whitespace()
            yield from self._scan_value()
            self._skip_whitespace()
            ch = self._peek()
            if ch == ",":
                self._pos += 1
                continue
            if ch == "}":
                self._pos += 1
                yield JsonEvent(JsonEventType.OBJECT_END, None, self._pos - 1)
                return
            raise self._error("expected ',' or '}' in object")

    def _scan_array(self) -> Iterator[JsonEvent]:
        yield JsonEvent(JsonEventType.ARRAY_START, None, self._pos)
        self._pos += 1  # consume '['
        self._skip_whitespace()
        if self._peek() == "]":
            self._pos += 1
            yield JsonEvent(JsonEventType.ARRAY_END, None, self._pos - 1)
            return
        while True:
            self._skip_whitespace()
            yield from self._scan_value()
            self._skip_whitespace()
            ch = self._peek()
            if ch == ",":
                self._pos += 1
                continue
            if ch == "]":
                self._pos += 1
                yield JsonEvent(JsonEventType.ARRAY_END, None, self._pos - 1)
                return
            raise self._error("expected ',' or ']' in array")

    def _scan_string(self) -> str:
        value, self._pos = scan_string(self._text, self._pos)
        return value

    def _scan_number(self) -> Union[int, float]:
        value, self._pos = scan_number(self._text, self._pos)
        return value


def tokenize(text: str) -> Iterator[JsonEvent]:
    """Tokenize JSON ``text`` into a stream of :class:`JsonEvent`."""
    return iter(JsonLexer(text))
