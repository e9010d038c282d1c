import pytest

from repro.sqljson.operators import json_value
from repro.workloads.nobench import NobenchGenerator

from bench.workloads import NOBENCH_NUMBERS, build_workloads, client_order

NAMES = ["olap_hot", "olap_cold", "olap_sharded", "imc_analytics",
         "ingest_mixed"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_the_same_inputs_and_statement_stream(name):
    first = build_workloads(0.05)[name]
    second = build_workloads(0.05)[name]
    a, b = first.generate(7, 2), second.generate(7, 2)
    assert a.rows == b.rows and a.commit_rows == b.commit_rows
    assert a.oracle == b.oracle
    assert first.statement_keys(a) == second.statement_keys(b)
    other = first.generate(8, 2)
    assert other.rows != a.rows
    assert first.statement_keys(other) != first.statement_keys(a)


def test_clients_cycle_half_a_cycle_apart():
    assert list(client_order(0, 9)) == list(range(9))
    assert sorted(client_order(1, 9)) == list(range(9))
    assert client_order(1, 9)[0] == 4


def test_oracle_answers_are_not_empty_everywhere():
    inputs = build_workloads(0.05)["olap_hot"].generate(7, 2)
    assert set(inputs.oracle) == {f"q{i}" for i in range(1, 10)}
    assert len(inputs.oracle["q9"]) > len(inputs.rows)
    assert all(inputs.oracle[q] for q in ("q1", "q2", "q3", "q7", "q9"))


def test_no_nobench_string_can_be_cast_to_a_number():
    # the oracle holds NULL for every string dyn1; JSON_VALUE ...
    # RETURNING NUMBER agrees only while no such string reads as a number
    def dyn1(number):
        return json_value(NobenchGenerator().document(number), "$.dyn1",
                          returning="number")
    assert dyn1(879451) == 2223     # base-32 word "2223": outside the range
    assert 879451 not in NOBENCH_NUMBERS
    for number in (NOBENCH_NUMBERS[0] + 1, NOBENCH_NUMBERS[-1]):
        word = NobenchGenerator().document(number)["dyn1"]
        assert len(word) == 4 and word[0].isalpha()
        assert dyn1(number) is None
    for seed in (265, 543):         # drew numeric-looking words before
        inputs = build_workloads(0.05)["imc_analytics"].generate(seed, 2)
        assert inputs.extra["base"] + 4200 in NOBENCH_NUMBERS
