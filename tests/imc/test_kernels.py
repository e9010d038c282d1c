"""Tests for the vectorized predicate/aggregate kernels."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.imc import kernels
from repro.imc.columns import ColumnVector

NUMS = ColumnVector.from_values("n", [10, 25, None, 40, 25])
STRS = ColumnVector.from_values("s", ["apple", "banana", None, "apricot"])
BOOLS = ColumnVector.from_values("b", [True, False, None, True])


class TestCompare:
    def test_numeric_ops(self):
        assert list(kernels.compare(NUMS, "=", 25)) == [False, True, False,
                                                        False, True]
        assert list(kernels.compare(NUMS, ">", 20)) == [False, True, False,
                                                        True, True]
        assert list(kernels.compare(NUMS, "<=", 10)) == [True, False, False,
                                                         False, False]
        assert list(kernels.compare(NUMS, "<>", 25)) == [True, False, False,
                                                         True, False]

    def test_nulls_never_match(self):
        for op in ("=", "<>", "<", ">", "<=", ">="):
            assert not kernels.compare(NUMS, op, 25)[2]

    def test_null_literal_matches_nothing(self):
        assert not kernels.compare(NUMS, "=", None).any()

    def test_string_compare(self):
        assert list(kernels.compare(STRS, "=", "banana")) == [False, True,
                                                              False, False]

    def test_cross_type_matches_nothing(self):
        assert not kernels.compare(NUMS, "=", "10").any()
        assert not kernels.compare(STRS, ">", 5).any()
        assert not kernels.compare(NUMS, "=", True).any()

    def test_bool_compare(self):
        assert list(kernels.compare(BOOLS, "=", True)) == [True, False,
                                                           False, True]

    def test_unknown_op(self):
        with pytest.raises(QueryError):
            kernels.compare(NUMS, "LIKE", 1)

    def test_isin(self):
        assert list(kernels.isin(NUMS, [10, 40])) == [True, False, False,
                                                      True, False]

    def test_starts_with(self):
        assert list(kernels.starts_with(STRS, "ap")) == [True, False, False,
                                                         True]
        assert not kernels.starts_with(NUMS, "x").any()

    def test_not_null(self):
        assert list(kernels.not_null(NUMS)) == [True, True, False, True, True]


class TestAggregates:
    def test_count_skips_nulls(self):
        assert kernels.agg_count(NUMS) == 4

    def test_count_with_selection(self):
        selection = kernels.compare(NUMS, ">", 20)
        assert kernels.agg_count(NUMS, selection) == 3

    def test_sum(self):
        assert kernels.agg_sum(NUMS) == 100

    def test_aggregates_over_empty_selection(self):
        empty = np.zeros(len(NUMS), dtype=np.bool_)
        assert kernels.agg_sum(NUMS, empty) is None
        assert kernels.agg_count(NUMS, empty) == 0

    def test_sum_requires_numeric(self):
        with pytest.raises(QueryError):
            kernels.agg_sum(STRS)


class TestGroupBy:
    KEYS = ColumnVector.from_values("k", ["a", "b", "a", None, "b"])
    VALS = ColumnVector.from_values("v", [1, 2, 3, 4, None])

    def test_group_by_sum(self):
        assert kernels.group_by_sum(self.KEYS, self.VALS) == {"a": 4, "b": 2}

    def test_group_by_count(self):
        assert kernels.group_by_count(self.KEYS) == {"a": 2, "b": 2}

    def test_group_by_with_selection(self):
        selection = kernels.compare(self.VALS, ">", 1)
        assert kernels.group_by_sum(self.KEYS, self.VALS,
                                    selection) == {"a": 3, "b": 2}

    def test_group_by_sum_requires_numeric(self):
        with pytest.raises(QueryError):
            kernels.group_by_sum(self.KEYS, STRS)

    def test_results_match_row_at_a_time(self):
        import random
        rng = random.Random(5)
        keys = [rng.choice("abcd") for _ in range(200)]
        vals = [rng.randint(0, 100) for _ in range(200)]
        kv = ColumnVector.from_values("k", keys)
        vv = ColumnVector.from_values("v", vals)
        expected: dict = {}
        for k, v in zip(keys, vals):
            expected[k] = expected.get(k, 0) + v
        assert kernels.group_by_sum(kv, vv) == expected
