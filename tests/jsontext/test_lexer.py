"""Tests for the streaming JSON tokenizer."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import JsonParseError
from repro.jsontext.lexer import JsonEventType, tokenize

E = JsonEventType


def types(text):
    return [e.type for e in tokenize(text)]


def scalars(text):
    return [e.value for e in tokenize(text) if e.type is E.SCALAR]


class TestScalars:
    def test_string(self):
        assert scalars('"hello"') == ["hello"]

    def test_empty_string(self):
        assert scalars('""') == [""]

    def test_integer(self):
        assert scalars("42") == [42]

    def test_negative_integer(self):
        assert scalars("-17") == [-17]

    def test_zero(self):
        assert scalars("0") == [0]

    def test_float(self):
        assert scalars("3.25") == [3.25]

    def test_float_exponent(self):
        assert scalars("1e3") == [1000.0]
        assert scalars("2.5E-2") == [0.025]
        assert scalars("1e+2") == [100.0]

    def test_int_vs_float_type(self):
        assert isinstance(scalars("5")[0], int)
        assert isinstance(scalars("5.0")[0], float)
        assert isinstance(scalars("5e0")[0], float)

    def test_true_false_null(self):
        assert scalars("true") == [True]
        assert scalars("false") == [False]
        assert scalars("null") == [None]

    def test_unicode_passthrough(self):
        assert scalars('"héllo ☃"') == ["héllo ☃"]


class TestEscapes:
    @pytest.mark.parametrize("literal,expected", [
        (r'"\n"', "\n"), (r'"\t"', "\t"), (r'"\r"', "\r"),
        (r'"\b"', "\b"), (r'"\f"', "\f"), (r'"\\"', "\\"),
        (r'"\/"', "/"), (r'"\""', '"'),
    ])
    def test_simple_escapes(self, literal, expected):
        assert scalars(literal) == [expected]

    def test_unicode_escape(self):
        assert scalars(r'"\u0041"') == ["A"]

    def test_surrogate_pair(self):
        assert scalars(r'"\ud83d\ude00"') == ["\U0001F600"]

    def test_lone_high_surrogate_kept(self):
        # a high surrogate not followed by a low one decodes as-is
        assert scalars(r'"\ud800x"') == ["\ud800x"]

    def test_invalid_escape(self):
        with pytest.raises(JsonParseError):
            list(tokenize(r'"\q"'))

    def test_truncated_unicode_escape(self):
        with pytest.raises(JsonParseError):
            list(tokenize(r'"\u00"'))

    @pytest.mark.parametrize("literal", [
        r'"\u 1a2"', r'"\u1_23"', r'"\u+fff"', r'"\u-001"',
        r'"\ud800\u 1a2"',
    ])
    def test_unicode_escape_needs_four_hex_digits(self, literal):
        with pytest.raises(JsonParseError, match=r"invalid \\u escape"):
            list(tokenize(literal))


class TestStructure:
    def test_empty_object(self):
        assert types("{}") == [E.OBJECT_START, E.OBJECT_END]

    def test_empty_array(self):
        assert types("[]") == [E.ARRAY_START, E.ARRAY_END]

    def test_simple_object(self):
        events = list(tokenize('{"a": 1}'))
        assert [e.type for e in events] == [
            E.OBJECT_START, E.FIELD_NAME, E.SCALAR, E.OBJECT_END]
        assert events[1].value == "a"
        assert events[2].value == 1

    def test_nested(self):
        assert types('{"a": [1, {"b": null}]}') == [
            E.OBJECT_START, E.FIELD_NAME, E.ARRAY_START, E.SCALAR,
            E.OBJECT_START, E.FIELD_NAME, E.SCALAR, E.OBJECT_END,
            E.ARRAY_END, E.OBJECT_END]

    def test_whitespace_tolerated(self):
        assert types('  { "a" :\n\t[ 1 , 2 ]\r}  ') == [
            E.OBJECT_START, E.FIELD_NAME, E.ARRAY_START, E.SCALAR,
            E.SCALAR, E.ARRAY_END, E.OBJECT_END]

    def test_positions_recorded(self):
        events = list(tokenize('{"a": 1}'))
        assert events[0].position == 0
        assert events[1].position == 1


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "   ", "{", "[", '{"a"}', '{"a": }', '{"a": 1,}', "[1,]",
        "[1 2]", '{"a" 1}', "{1: 2}", "tru", "nul", "truex",
        '"unterminated', "01", "1.", "1e", "-", "--1", "{}}", "[]]",
        "1 2", '"a" "b"', "'single'", "[1, 2,]", "+1", ".5", "NaN",
        "Infinity", '{"a": 1} extra', '"\x01"',
    ])
    def test_malformed_input_raises(self, bad):
        with pytest.raises(JsonParseError):
            list(tokenize(bad))

    def test_too_deep_is_a_parse_error(self):
        depth = sys.getrecursionlimit() + 1
        with pytest.raises(JsonParseError, match="nesting too deep"):
            list(tokenize("[" * depth + "]" * depth))

    def test_error_carries_position(self):
        try:
            list(tokenize("[1, x]"))
        except JsonParseError as exc:
            assert exc.position == 4
        else:
            pytest.fail("expected JsonParseError")


class TestProperties:
    @given(st.integers(min_value=-(10**18), max_value=10**18))
    def test_integer_roundtrip(self, value):
        assert scalars(str(value)) == [value]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_roundtrip(self, value):
        assert scalars(repr(value)) == [value]

    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=50))
    def test_string_roundtrip_via_serializer(self, value):
        from repro.jsontext import dumps
        assert scalars(dumps(value)) == [value]
