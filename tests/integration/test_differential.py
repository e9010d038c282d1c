"""Differential tests: every encoding and engine path must agree.

These property tests pin the core soundness claims of the reproduction:

* the SQL/JSON operators return identical results over dict / text /
  OSON / BSON inputs for arbitrary documents and a panel of paths;
* JSON_TABLE produces identical rows across encodings;
* the OSON round trip is exact for arbitrary JSON values (including
  through partial updates);
* engine queries agree with naive reference computations.
"""

from hypothesis import given, settings, strategies as st

from repro import bson
from repro.core.oson import encode as oson_encode, OsonUpdater, decode
from repro.jsontext import dumps
from repro.sqljson import ColumnDef, JsonTable, NestedPath
from repro.sqljson.operators import json_exists, json_query, json_value
from tests.strategies import bson_safe, json_documents, json_values

#: paths exercising member chains, indexes, wildcards, filters, methods
PATH_PANEL = [
    "$", "$.a", "$.a.b", "$.a[0]", "$.a[*]", "$.a.b[*]", "$.a[last]",
    "$.a[0 to 1]", "$..b", "$.*", "$.a.size()", "$.a.type()",
    "$.a[*]?(@ > 1)", "$.a?(@.b == 1).b", '$.a?(@.b == "x")',
]


def _forms(doc):
    return {
        "dict": doc,
        "text": dumps(doc),
        "oson": oson_encode(doc),
        "bson": bson.encode(doc),
    }


def _canonical(value):
    """Order-insensitive sort key for heterogeneous JSON values (object
    key order differs between document order and OSON's hash order)."""
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, dict):
        return dumps({k: None for k in sorted(value)}) + dumps(
            [_canonical(value[k]) for k in sorted(value)])
    if isinstance(value, list):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return dumps(value)


class TestOperatorParity:
    @settings(max_examples=60, deadline=None)
    @given(json_documents(max_leaves=12))
    def test_json_value_parity(self, doc):
        doc = bson_safe(doc)
        forms = _forms(doc)
        for path in PATH_PANEL:
            results = {name: json_value(data, path)
                       for name, data in forms.items()}
            values = list(results.values())
            assert all(v == values[0] for v in values), (path, results)

    @settings(max_examples=60, deadline=None)
    @given(json_documents(max_leaves=12))
    def test_json_exists_parity(self, doc):
        doc = bson_safe(doc)
        forms = _forms(doc)
        for path in PATH_PANEL:
            results = {name: json_exists(data, path)
                       for name, data in forms.items()}
            values = list(results.values())
            assert all(v == values[0] for v in values), (path, results)

    @settings(max_examples=40, deadline=None)
    @given(json_documents(max_leaves=12))
    def test_json_query_wrapper_parity(self, doc):
        doc = bson_safe(doc)
        forms = _forms(doc)
        for path in PATH_PANEL:
            results = {name: json_query(data, path, wrapper=True)
                       for name, data in forms.items()}
            # OSON iterates object fields in field-id (hash) order, so
            # wildcard/descendant matches may arrive in a different order
            # than document order — compare as multisets there
            if "*" in path or ".." in path:
                results = {name: sorted(value, key=_canonical)
                           for name, value in results.items()}
            values = list(results.values())
            assert all(v == values[0] for v in values), (path, results)


class TestJsonTableParity:
    TABLE = JsonTable("$", [
        ColumnDef("a", "varchar2(100)", "$.a"),
        ColumnDef("b_num", "number", "$.b"),
        NestedPath("$.items[*]", [
            ColumnDef("x", "varchar2(100)", "$.x"),
            ColumnDef("y", "number", "$.y"),
        ]),
    ])

    @settings(max_examples=60, deadline=None)
    @given(json_documents(max_leaves=12))
    def test_rows_parity(self, doc):
        doc = bson_safe(doc)
        forms = _forms(doc)
        results = {name: self.TABLE.rows(data)
                   for name, data in forms.items()}
        values = list(results.values())
        assert all(v == values[0] for v in values)


class TestOsonInvariants:
    @settings(max_examples=100, deadline=None)
    @given(json_values(max_leaves=20))
    def test_roundtrip_exact(self, value):
        assert decode(oson_encode(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1, max_size=10,
                alphabet=st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\x00")),
        st.integers(min_value=-(2**40), max_value=2**40),
        min_size=1, max_size=8))
    def test_update_then_decode(self, doc):
        """Updating every numeric leaf in place keeps the document exact."""
        data = oson_encode(doc)
        updater = OsonUpdater(data)
        expected = dict(doc)
        for key in doc:
            updater.set_scalar_by_path([key], doc[key] + 1)
            expected[key] = doc[key] + 1
        assert updater.document.materialize() == expected

    @settings(max_examples=60, deadline=None)
    @given(json_documents(max_leaves=15))
    def test_field_dictionary_complete(self, doc):
        """Every field name anywhere in the document resolves to an id,
        and every id resolves back to its name."""
        from repro.core.oson import OsonDocument
        from repro.core.oson.encoder import iter_field_names
        oson = OsonDocument(oson_encode(doc))
        for name in set(iter_field_names(doc)):
            field_id = oson.field_id(name)
            assert field_id is not None
            assert oson.field_name(field_id) == name


class TestQueryVsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries({
            "g": st.sampled_from(["a", "b", "c"]),
            "v": st.one_of(st.none(),
                           st.integers(min_value=-100, max_value=100)),
        }), max_size=30))
    def test_group_by_sum_matches_reference(self, rows):
        from repro.engine import Query, expr
        result = (Query(rows)
                  .group_by(["g"], total=expr.SUM(expr.Col("v")),
                            n=expr.COUNT())
                  .rows())
        reference: dict = {}
        for row in rows:
            entry = reference.setdefault(row["g"], {"total": None, "n": 0})
            entry["n"] += 1
            if row["v"] is not None:
                entry["total"] = (row["v"] if entry["total"] is None
                                  else entry["total"] + row["v"])
        assert {r["g"]: {"total": r["total"], "n": r["n"]}
                for r in result} == reference

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries({
            "k": st.integers(min_value=0, max_value=5),
            "v": st.integers(min_value=0, max_value=100),
        }), max_size=20),
        st.lists(
        st.fixed_dictionaries({
            "k": st.integers(min_value=0, max_value=5),
            "w": st.integers(min_value=0, max_value=100),
        }), max_size=20))
    def test_hash_join_matches_nested_loop(self, left, right):
        from repro.engine import Query
        result = Query(left).join(right, "k", "k").rows()
        reference = []
        for l_row in left:
            for r_row in right:
                if l_row["k"] == r_row["k"]:
                    merged = dict(l_row)
                    merged.update(r_row)
                    reference.append(merged)
        key = lambda r: (r["k"], r["v"], r["w"])  # noqa: E731
        assert sorted(result, key=key) == sorted(reference, key=key)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.none(),
                              st.integers(min_value=-50, max_value=50)),
                    max_size=25))
    def test_order_by_matches_reference(self, values):
        from repro.engine import Query, expr
        rows = [{"v": v} for v in values]
        result = [r["v"] for r in Query(rows).order_by("v").rows()]
        non_null = sorted(v for v in values if v is not None)
        assert result == non_null + [None] * (len(values) - len(non_null))
