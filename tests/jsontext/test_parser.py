"""Tests for the direct DOM parser."""

import sys

import pytest
from hypothesis import given

from repro.errors import JsonParseError
from repro.jsontext import dumps, loads
from tests.strategies import json_values


class TestLoads:
    def test_scalars(self):
        assert loads("1") == 1
        assert loads('"x"') == "x"
        assert loads("true") is True
        assert loads("false") is False
        assert loads("null") is None

    def test_object(self):
        assert loads('{"a": 1, "b": [2, 3]}') == {"a": 1, "b": [2, 3]}

    def test_key_order_preserved(self):
        assert list(loads('{"z": 1, "a": 2, "m": 3}')) == ["z", "a", "m"]

    def test_duplicate_keys_keep_last(self):
        assert loads('{"a": 1, "a": 2}') == {"a": 2}

    def test_deep_nesting(self):
        depth = 200
        text = "[" * depth + "1" + "]" * depth
        value = loads(text)
        for _ in range(depth):
            assert isinstance(value, list) and len(value) == 1
            value = value[0]
        assert value == 1

    def test_empty_containers(self):
        assert loads('{"a": {}, "b": []}') == {"a": {}, "b": []}

    def test_malformed_raises(self):
        with pytest.raises(JsonParseError):
            loads('{"a": ')

    def test_nested_heterogeneous(self):
        doc = loads('{"a": [1, "x", null, true, {"b": 2.5}]}')
        assert doc == {"a": [1, "x", None, True, {"b": 2.5}]}


#: text the grammar refuses but a parser that stops after the first
#: value, or reads ``\u`` escapes with ``int(..., 16)``, accepts
TRAILING = ['{"a":1} x', "[1]]", "1 2", '{"a":1}}', '"a" "b"']
BAD_UNICODE_ESCAPES = [r'"\u 1a2"', r'"\u1_23"', r'"\u+fff"', r'"\u-001"',
                       r'"\u12"', r'"\ud800\u 1a2"']
#: nesting deeper than the interpreter's recursion limit
DEEP = "[" * (sys.getrecursionlimit() + 1) + "]" * (sys.getrecursionlimit() + 1)


class TestStrict:
    @pytest.mark.parametrize("text", TRAILING)
    def test_trailing_characters_rejected(self, text):
        with pytest.raises(JsonParseError, match="trailing characters"):
            loads(text)

    def test_trailing_whitespace_accepted(self):
        assert loads(' {"a": 1} \n\t') == {"a": 1}

    @pytest.mark.parametrize("text", BAD_UNICODE_ESCAPES)
    def test_unicode_escape_needs_four_hex_digits(self, text):
        with pytest.raises(JsonParseError, match=r"\\u escape"):
            loads(text)

    def test_unicode_escapes_decode(self):
        assert loads(r'"\u00e9\u00C9\ud83d\ude00"') == "\u00e9\u00c9\U0001F600"

    def test_too_deep_is_a_parse_error(self):
        with pytest.raises(JsonParseError, match="nesting too deep"):
            loads(DEEP)

    @pytest.mark.parametrize("text,position", [
        ("[1, x]", 4), ('{"a" 1}', 5), ("", 0), ("[1,", 3), ('{"a":1} x', 8),
    ])
    def test_error_position(self, text, position):
        with pytest.raises(JsonParseError) as exc_info:
            loads(text)
        assert exc_info.value.position == position


class TestRoundTrip:
    @given(json_values())
    def test_dumps_loads_roundtrip(self, value):
        assert loads(dumps(value)) == value

    @given(json_values())
    def test_double_roundtrip_stable(self, value):
        once = dumps(value)
        assert dumps(loads(once)) == once
