from bench.oracle import canon
from bench.workloads import Statement


def test_canon_ignores_row_order_and_float_ulps():
    a = [{"k": "x", "v": 0.1 + 0.2}, {"k": "y", "v": 1}]
    b = [{"v": 1, "k": "y"}, {"v": 0.3, "k": "x"}]
    assert canon(a) == canon(b)


def test_canon_tells_different_answers_apart():
    assert canon([{"k": 1}]) != canon([{"k": 2}])
    assert canon([{"k": 1}]) != canon([{"k": 1}, {"k": 1}])
    assert canon([{"k": None}]) != canon([{"k": 0}])


def test_statement_check_is_the_oracle_even_after_an_accepted_answer():
    statement = Statement("s", lambda session: [], canon([{"k": 1}]))
    assert statement.check([{"k": 1}])
    assert statement.check([{"k": 1}])      # the fast path
    assert not statement.check([{"k": 2}])  # a later wrong answer
    assert not statement.check([])
