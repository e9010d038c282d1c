import json

from bench.quiet import BUDGET_S, ENOUGH, KEEP, QuietGate


def gate(tmp_path, readings, history=None):
    path = tmp_path / "out" / "quiet.json"
    if history is not None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(history))
    pauses = []
    stream = iter(readings)
    return QuietGate(path=str(path), probe=lambda: next(stream),
                     sleep=pauses.append), pauses, path


def test_waits_while_the_loop_is_slower_than_usual(tmp_path):
    quiet, pauses, path = gate(tmp_path, [0.030, 0.029, 0.021],
                               history=[0.020] * ENOUGH)
    quiet.settle()
    assert len(pauses) == 2 and quiet.waited == sum(pauses)
    quiet.save()
    assert json.loads(path.read_text()) == [0.020] * ENOUGH + [0.021]


def test_does_not_wait_without_a_history_or_when_faster(tmp_path):
    quiet, pauses, _ = gate(tmp_path, [0.030] * (ENOUGH - 1) + [0.060, 0.010])
    for _ in range(ENOUGH + 1):
        quiet.settle()      # the 0.060 comes before "usual" means anything
    assert pauses == []


def test_a_lasting_slowdown_becomes_usual_and_the_budget_holds(tmp_path):
    quiet, pauses, _ = gate(tmp_path, iter(lambda: 0.030, None),
                            history=[0.020] * KEEP)
    quiet.settle()
    assert quiet.waited == BUDGET_S         # gave up, then took the reading
    quiet.settle()
    assert quiet.waited == BUDGET_S         # the run's budget is spent
    for _ in range(KEEP // 2):              # later runs: each waits, until
        later, _p, _ = gate(tmp_path, iter(lambda: 0.030, None),
                            history=quiet.history)
        later.settle()
        quiet = later
    assert later.waited == 0.0              # ... 0.030 is the median
