"""Tests for JSON_VALUE / JSON_QUERY / JSON_EXISTS / JSON_TEXTCONTAINS."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import bson
from repro.core.oson import encode as oson_encode, OsonDocument
from repro.errors import JsonParseError, PathEvaluationError
from repro.jsontext import dumps
from repro.sqljson import (
    json_exists,
    json_query,
    json_textcontains,
    json_value,
)
from repro.sqljson.adapters import DictAdapter
from repro.sqljson.path import PathEvaluator, parse_path
from tests.strategies import bson_safe, json_documents

DOC = {
    "purchaseOrder": {
        "id": 1,
        "podate": "2014-09-08",
        "total": 450.86,
        "express": True,
        "items": [
            {"name": "phone", "price": 100},
            {"name": "ipad", "price": 350.86},
        ],
        "memo": "deliver to front desk",
    }
}

FORMS = {
    "dict": lambda d: d,
    "text": dumps,
    "oson": oson_encode,
    "bson": bson.encode,
    "oson_doc": lambda d: OsonDocument(oson_encode(d)),
}


@pytest.fixture(params=list(FORMS))
def form(request):
    return FORMS[request.param]


@pytest.fixture
def doc(form):
    return form(DOC)


class TestJsonValue:
    def test_scalar(self, doc):
        assert json_value(doc, "$.purchaseOrder.id") == 1
        assert json_value(doc, "$.purchaseOrder.podate") == "2014-09-08"
        assert json_value(doc, "$.purchaseOrder.express") is True

    def test_nested_array(self, doc):
        assert json_value(doc, "$.purchaseOrder.items[1].price") == 350.86

    def test_missing_returns_none(self, doc):
        assert json_value(doc, "$.purchaseOrder.nothing") is None

    def test_non_scalar_returns_none(self, doc):
        assert json_value(doc, "$.purchaseOrder.items") is None

    def test_multiple_matches_return_none(self, doc):
        assert json_value(doc, "$.purchaseOrder.items[*].price") is None

    def test_error_mode_raises(self, doc):
        with pytest.raises(PathEvaluationError):
            json_value(doc, "$.purchaseOrder.nothing", on_error="error")
        with pytest.raises(PathEvaluationError):
            json_value(doc, "$.purchaseOrder.items", on_error="error")

    def test_returning_number(self, doc):
        assert json_value(doc, "$.purchaseOrder.podate",
                          returning="varchar2(4)") == "2014"
        assert json_value(doc, "$.purchaseOrder.id",
                          returning="varchar2(10)") == "1"

    def test_returning_number_from_string(self):
        assert json_value({"v": "42"}, "$.v", returning="number") == 42
        assert json_value({"v": "4.5"}, "$.v", returning="number") == 4.5

    def test_returning_number_bad_string(self):
        assert json_value({"v": "abc"}, "$.v", returning="number") is None
        with pytest.raises(PathEvaluationError):
            json_value({"v": "abc"}, "$.v", returning="number",
                       on_error="error")

    def test_returning_boolean(self):
        assert json_value({"v": "true"}, "$.v", returning="boolean") is True
        assert json_value({"v": True}, "$.v", returning="boolean") is True

    def test_item_method(self, doc):
        assert json_value(doc, "$.purchaseOrder.items.size()") == 2


class TestJsonQuery:
    def test_object_fragment(self, doc):
        assert json_query(doc, "$.purchaseOrder.items[0]") == {
            "name": "phone", "price": 100}

    def test_array_fragment(self, doc):
        result = json_query(doc, "$.purchaseOrder.items")
        assert [r["name"] for r in result] == ["phone", "ipad"]

    def test_scalar_without_wrapper_is_none(self, doc):
        assert json_query(doc, "$.purchaseOrder.id") is None

    def test_wrapper_collects_matches(self, doc):
        assert json_query(doc, "$.purchaseOrder.items[*].price",
                          wrapper=True) == [100, 350.86]

    def test_wrapper_empty(self, doc):
        assert json_query(doc, "$.purchaseOrder.none", wrapper=True) == []

    def test_as_text(self, doc):
        text = json_query(doc, "$.purchaseOrder.items[0]", as_text=True)
        from repro.jsontext import loads
        assert loads(text) == {"name": "phone", "price": 100}

    def test_error_mode(self, doc):
        with pytest.raises(PathEvaluationError):
            json_query(doc, "$.purchaseOrder.id", on_error="error")


class TestJsonExists:
    def test_present(self, doc):
        assert json_exists(doc, "$.purchaseOrder.items")
        assert json_exists(doc, "$.purchaseOrder.items[1]")

    def test_absent(self, doc):
        assert not json_exists(doc, "$.purchaseOrder.discounts")
        assert not json_exists(doc, "$.purchaseOrder.items[5]")

    def test_with_predicate(self, doc):
        assert json_exists(doc, "$.purchaseOrder.items[*]?(@.price > 300)")
        assert not json_exists(doc, "$.purchaseOrder.items[*]?(@.price > 999)")

    def test_string_predicate(self, doc):
        assert json_exists(
            doc, '$.purchaseOrder.items[*]?(@.name == "ipad")')


class TestJsonTextContains:
    def test_all_keywords_must_match(self, doc):
        assert json_textcontains(doc, "$.purchaseOrder", "front desk")
        assert json_textcontains(doc, "$.purchaseOrder", "DELIVER")
        assert not json_textcontains(doc, "$.purchaseOrder", "front missing")

    def test_scoped_to_path(self, doc):
        assert json_textcontains(doc, "$.purchaseOrder.memo", "desk")
        assert not json_textcontains(doc, "$.purchaseOrder.items", "desk")

    def test_tokenization_in_nested_values(self, doc):
        assert json_textcontains(doc, "$.purchaseOrder.items", "ipad phone")

    def test_empty_keywords(self, doc):
        assert not json_textcontains(doc, "$.purchaseOrder", "")
        assert not json_textcontains(doc, "$.purchaseOrder", "  ,,  ")


class TestMalformedText:
    """Text that is not one JSON value is an evaluation error, however
    early the path's match comes: trailing characters and truncation
    alike."""

    TRAILING = ['{"a":1} x', '{"b":2, "a":1} ]']
    TRUNCATED = ['{"a":']

    @pytest.mark.parametrize("text", TRAILING + TRUNCATED)
    def test_json_value_is_null_or_raises(self, text):
        assert json_value(text, "$.a") is None
        with pytest.raises(JsonParseError):
            json_value(text, "$.a", on_error="error")

    @pytest.mark.parametrize("text", TRAILING + TRUNCATED)
    def test_json_query_is_null(self, text):
        assert json_query(text, "$", wrapper=True) is None

    @pytest.mark.parametrize("text", TRAILING + TRUNCATED)
    def test_json_exists_is_false(self, text):
        assert json_exists(text, "$.a") is False

    @pytest.mark.parametrize("text", ['{"a":"red"} x', '{"a":"red"'])
    def test_json_textcontains_is_false(self, text):
        assert json_textcontains(text, "$.a", "red") is False


#: one document, every form, a path table of member chains, indexes,
#: wildcards, lax unnesting, descendants, filters and misses
PARITY_DOC = {
    "a": {"b": [{"c": 1}, {"c": 2}, {"d": 3}]},
    "x": [10, 20, 30],
    "y": "scalar",
}
PARITY_PATHS = [
    "$", "$.a", "$.a.b", "$.a.b[*]", "$.a.b[*].c", "$.a.b[0].c",
    "$.a.b[1]", "$.a.b[1].c", "$.a.b[2]", "$.a.b[9]", "$.a.b.c", "$.x[0]",
    "$.x[1]", "$.x[2]", "$.x[*]", "$.x[last]", "$.x[0 to 1]", "$.x[0, 2]",
    "$.y", "$.missing", "$.nope.deep", "$..c", "$.a.b[*]?(@.c == 1)",
    "$.a.b[*]?(@.c == 2).c", "$.a.b[*]?(@.d == 3)", "$.a.b.size()",
]


class TestPathParity:
    """Every form answers a path with what the DOM evaluator finds over
    the parsed value: text, OSON and BSON take one route through
    ``adapter_for``."""

    @pytest.mark.parametrize("path", PARITY_PATHS)
    def test_query_matches_dom(self, form, path):
        expected = PathEvaluator(parse_path(path)).values(
            DictAdapter(PARITY_DOC))
        data = form(PARITY_DOC)
        assert json_query(data, path, wrapper=True) == expected
        assert json_exists(data, path) is bool(expected)

    # ``form`` is a pure encoder, so sharing it across examples is sound
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(json_documents(max_leaves=12))
    def test_query_matches_dom_property(self, form, value):
        value = bson_safe(value)
        data = form(value)
        for path in ("$", "$.a", "$.a.b", "$.a[0]", "$.a[*]", "$.a.b[*]"):
            expected = PathEvaluator(parse_path(path)).values(
                DictAdapter(value))
            assert json_query(data, path, wrapper=True) == expected, path
