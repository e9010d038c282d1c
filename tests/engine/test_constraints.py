"""Tests for the IS JSON check constraint and its hook mechanism."""

import sys

import pytest

from repro import bson
from repro.core.oson import encode as oson_encode
from repro.engine import Column, NUMBER, CLOB, Table
from repro.engine.constraints import IsJsonConstraint
from repro.errors import ConstraintViolation


def json_table():
    t = Table("docs", [Column("id", NUMBER), Column("jdoc", CLOB)])
    constraint = IsJsonConstraint("jdoc")
    t.add_constraint(constraint)
    return t, constraint


class TestValidation:
    def test_valid_json_accepted(self):
        t, _ = json_table()
        t.insert({"id": 1, "jdoc": '{"a": 1}'})
        assert len(t) == 1

    def test_malformed_json_rejected(self):
        t, _ = json_table()
        with pytest.raises(ConstraintViolation):
            t.insert({"id": 1, "jdoc": '{"a": '})

    def test_null_satisfies_is_json(self):
        t, _ = json_table()
        t.insert({"id": 1, "jdoc": None})
        assert len(t) == 1

    def test_scalar_json_accepted(self):
        t, _ = json_table()
        t.insert({"id": 1, "jdoc": "42"})
        t.insert({"id": 2, "jdoc": "[1,2]"})

    def test_binary_json_accepted(self):
        from repro.engine.types import BLOB
        t = Table("bin", [Column("jdoc", BLOB)])
        constraint = IsJsonConstraint("jdoc")
        t.add_constraint(constraint)
        t.insert({"jdoc": oson_encode({"a": 1})})
        t.insert({"jdoc": bson.encode({"a": 1})})
        assert len(t) == 2

    def test_corrupt_binary_rejected(self):
        from repro.engine.types import BLOB
        t = Table("bin", [Column("jdoc", BLOB)])
        t.add_constraint(IsJsonConstraint("jdoc"))
        with pytest.raises(ConstraintViolation):
            t.insert({"jdoc": b"garbage-bytes"})


    @pytest.mark.parametrize("text", [
        '{"a":1} x', '{"a":1} trailing', "[1]]", "1 2",
        r'"\u 1a2"', r'"\u1_23"', r'"\u+fff"', r'"\u-001"',
        "[" * (sys.getrecursionlimit() + 1) + "]" * (sys.getrecursionlimit() + 1),
        "[" * 950 + "]" * 950,
    ], ids=["trailing-word", "trailing-text", "extra-bracket", "two-values",
            "u-space", "u-underscore", "u-plus", "u-minus", "too-deep",
            "950-deep"])
    def test_invalid_text_rejected(self, text):
        t, _ = json_table()
        with pytest.raises(ConstraintViolation, match="malformed JSON"):
            t.insert({"id": 1, "jdoc": text})
        assert len(t) == 0


class TestHooks:
    def test_hook_receives_parsed_value(self):
        t, constraint = json_table()
        seen = []
        constraint.add_hook(lambda row, parsed: seen.append(parsed))
        t.insert({"id": 1, "jdoc": '{"a": [1, 2]}'})
        assert seen == [{"a": [1, 2]}]

    def test_hook_not_called_for_null(self):
        t, constraint = json_table()
        seen = []
        constraint.add_hook(lambda row, parsed: seen.append(parsed))
        t.insert({"id": 1, "jdoc": None})
        assert seen == []

    def test_hook_not_called_on_rejection(self):
        t, constraint = json_table()
        seen = []
        constraint.add_hook(lambda row, parsed: seen.append(parsed))
        with pytest.raises(ConstraintViolation):
            t.insert({"id": 1, "jdoc": "{bad"})
        assert seen == []

    def test_remove_hook(self):
        t, constraint = json_table()
        seen = []
        hook = lambda row, parsed: seen.append(parsed)  # noqa: E731
        constraint.add_hook(hook)
        constraint.remove_hook(hook)
        t.insert({"id": 1, "jdoc": "{}"})
        assert seen == []
        assert constraint.hook_count == 0

    def test_table_exposes_is_json_constraint(self):
        t, constraint = json_table()
        assert t.is_json_constraint("jdoc") is constraint
        assert t.is_json_constraint("id") is None
