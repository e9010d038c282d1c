"""Scatter-gather under shard failure: retry, abort, degraded reads.

Three contracts (DESIGN §11): transient faults retry on the seeded
backoff schedule and exhausted budgets surface typed; under
``on_failure="fail"`` the first failure ends the statement before any
later shard is opened; under ``"partial"`` the result is explicitly
degraded — rows plus a marker — and semantic errors are never
degradable under either policy.
"""

import pytest

from repro.core.dataguide.builder import DataGuideBuilder
from repro.engine import executor, expr
from repro.engine.scatter import (DegradedRows, ScatterPolicy, ShardInput,
                                  ShardPlanInfo, execute_scatter)
from repro.errors import DegradedResult, ShardUnavailable, TransientFault
from repro.obs import clock as clockmod
from repro.obs import metrics
from repro.storage.health import FAILED, ShardHealthBoard


@pytest.fixture
def virtual_clock():
    clock = clockmod.VirtualClock()
    previous = clockmod.install_clock(clock)
    yield clock
    clockmod.install_clock(previous)


def guide_of(*documents):
    builder = DataGuideBuilder()
    builder.add_many(list(documents))
    return builder.guide()


SHARDS = [
    [{"k": "a", "v": 5}, {"k": "a", "v": 8}],
    [{"k": "b", "v": 12}, {"k": "b", "v": 18}],
    [{"k": "c", "v": 25}, {"k": "c", "v": 30}],
]

ALL_ROWS = [row for shard in SHARDS for row in shard]


def make_info(sources, health=None):
    inputs = [ShardInput(i, source, guide_of(*SHARDS[i % len(SHARDS)]))
              for i, source in enumerate(sources)]
    return ShardPlanInfo("t", inputs, lambda c: None, health=health)


def steady(rows):
    return lambda: iter(rows)


def flaky(rows, failures):
    """A shard source that raises TransientFault on its first
    ``failures`` scans, then serves normally (each retry re-invokes
    the source factory)."""
    state = {"left": failures}

    def source():
        if state["left"] > 0:
            state["left"] -= 1
            raise TransientFault("flaky scan")
        return iter(rows)
    return source


def run(info, policy=None, **kwargs):
    return execute_scatter(info, [True] * len(info.shards), None, None,
                           None, morsel=True, policy=policy, **kwargs)


class TestRetry:
    def test_transient_fault_retried_to_full_result(self, virtual_clock):
        info = make_info([steady(SHARDS[0]), flaky(SHARDS[1], failures=1),
                          steady(SHARDS[2])])
        retries = metrics.counter("engine.scatter.retries").value
        policy = ScatterPolicy()
        rows = run(info, policy)
        assert rows == ALL_ROWS
        assert not isinstance(rows, DegradedRows)
        assert metrics.counter(
            "engine.scatter.retries").value == retries + 1
        assert virtual_clock.sleeps == [
            policy.backoff.delay_ms("t:1", 0) / 1000.0]

    def test_backoff_schedule_is_seeded_and_per_shard(self, virtual_clock):
        policy = ScatterPolicy()
        attempts = policy.backoff.max_attempts
        info = make_info([flaky(SHARDS[0], failures=attempts - 1),
                          flaky(SHARDS[1], failures=attempts - 1)])
        rows = run(info, policy)
        assert rows == SHARDS[0] + SHARDS[1]
        expected = sorted(
            policy.backoff.delay_ms(f"t:{shard}", attempt) / 1000.0
            for shard in (0, 1) for attempt in range(attempts - 1))
        assert sorted(virtual_clock.sleeps) == expected
        # distinct keys decorrelate the shards' jitter
        assert (policy.backoff.delays_ms("t:0")
                != policy.backoff.delays_ms("t:1"))

    def test_exhausted_retries_surface_shard_unavailable(
            self, virtual_clock):
        policy = ScatterPolicy()
        info = make_info([steady(SHARDS[0]),
                          flaky(SHARDS[1], failures=99)])
        failed = metrics.counter("engine.scatter.shards_failed").value
        with pytest.raises(ShardUnavailable) as exc_info:
            run(info, policy)
        assert exc_info.value.shard_index == 1
        assert isinstance(exc_info.value.__cause__, TransientFault)
        assert metrics.counter(
            "engine.scatter.shards_failed").value == failed + 1

    def test_health_board_feedback(self, virtual_clock):
        board = ShardHealthBoard(2, fail_threshold=2)
        info = make_info([steady(SHARDS[0]), flaky(SHARDS[1], 99)],
                         health=board)
        with pytest.raises(ShardUnavailable):
            run(info, ScatterPolicy())
        assert board.state(1) == FAILED
        assert board.state(0) == "healthy"

    def test_failed_shard_refused_without_burning_retries(
            self, virtual_clock):
        board = ShardHealthBoard(2, fail_threshold=1)
        board.record_failure(1)
        board.record_failure(1)
        assert board.state(1) == FAILED
        info = make_info([steady(SHARDS[0]), steady(SHARDS[1])],
                         health=board)
        with pytest.raises(ShardUnavailable) as exc_info:
            run(info, ScatterPolicy())
        assert "refused" in str(exc_info.value)
        assert virtual_clock.sleeps == []


class TestPartialPolicy:
    def test_degraded_rows_carry_the_marker(self, virtual_clock):
        info = make_info([steady(SHARDS[0]), flaky(SHARDS[1], 99),
                          steady(SHARDS[2])])
        degraded = metrics.counter(
            "engine.scatter.degraded_results").value
        rows = run(info, ScatterPolicy(on_failure="partial"))
        assert isinstance(rows, DegradedRows)
        assert list(rows) == SHARDS[0] + SHARDS[2]
        marker = rows.degraded
        assert isinstance(marker, DegradedResult)
        assert marker.shards_failed == (1,)
        assert marker.retries >= 1
        assert "missing" in str(marker)
        assert metrics.counter(
            "engine.scatter.degraded_results").value == degraded + 1

    def test_full_success_under_partial_is_not_degraded(self):
        info = make_info([steady(s) for s in SHARDS])
        rows = run(info, ScatterPolicy(on_failure="partial"))
        assert rows == ALL_ROWS
        assert not isinstance(rows, DegradedRows)

    def test_group_by_degrades_to_surviving_shards(self, virtual_clock):
        keys = [executor.normalize_output("k")]
        aggregates = [("total", expr.SUM(expr.Col("v")))]
        info = make_info([steady(SHARDS[0]), flaky(SHARDS[1], 99),
                          steady(SHARDS[2])])
        rows = execute_scatter(
            info, [True] * 3, None, None, (keys, aggregates),
            morsel=True, policy=ScatterPolicy(on_failure="partial"))
        assert isinstance(rows, DegradedRows)
        survivors = SHARDS[0] + SHARDS[2]
        assert list(rows) == list(executor.group_by(
            iter(survivors), keys, aggregates))

    def test_semantic_errors_never_degrade(self, virtual_clock):
        def semantic():
            raise ZeroDivisionError("division by zero in predicate")
        info = make_info([steady(SHARDS[0]), semantic])
        with pytest.raises(ZeroDivisionError):
            run(info, ScatterPolicy(on_failure="partial"))
        assert virtual_clock.sleeps == []  # and never retried

    def test_all_shards_failing_degrades_to_empty(self, virtual_clock):
        info = make_info([flaky(SHARDS[0], 99), flaky(SHARDS[1], 99)])
        rows = run(info, ScatterPolicy(on_failure="partial"))
        assert isinstance(rows, DegradedRows)
        assert list(rows) == []
        assert rows.degraded.shards_failed == (0, 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ScatterPolicy(on_failure="shrug")


class TestPromptAbort:
    """Shards run one after another in shard-index order, so under
    ``"fail"`` the first failure stops the statement before any later
    shard is opened; under ``"partial"`` every other shard still runs."""

    @staticmethod
    def tracking(index, rows, opened):
        def source():
            opened.append(index)
            return iter(rows)
        return source

    @staticmethod
    def failing_mid_stream(index, rows, opened):
        """Opens fine, serves one row, then faults — on every attempt."""
        def source():
            opened.append(index)
            yield rows[0]
            raise TransientFault("mid-scan outage")
        return source

    def make(self, opened):
        return make_info([self.tracking(0, SHARDS[0], opened),
                          self.failing_mid_stream(1, SHARDS[1], opened),
                          self.tracking(2, SHARDS[2], opened)])

    def test_fail_leaves_later_shards_unopened(self, virtual_clock):
        opened = []
        failed = metrics.counter("engine.scatter.shards_failed").value
        with pytest.raises(ShardUnavailable) as exc_info:
            run(self.make(opened), ScatterPolicy())
        assert exc_info.value.shard_index == 1
        assert isinstance(exc_info.value.__cause__, TransientFault)
        assert opened[0] == 0 and set(opened[1:]) == {1}
        assert metrics.counter(
            "engine.scatter.shards_failed").value == failed + 1

    def test_queued_shards_never_start_after_failure(self):
        opened = []

        def failing():
            raise ShardUnavailable("down", shard_index=0)

        info = make_info([failing, self.tracking(1, SHARDS[1], opened),
                          self.tracking(2, SHARDS[2], opened)])
        with pytest.raises(ShardUnavailable):
            run(info, ScatterPolicy())
        assert opened == []

    def test_partial_policy_does_not_abort_siblings(self, virtual_clock):
        opened = []
        rows = run(self.make(opened), ScatterPolicy(on_failure="partial"))
        assert list(rows) == SHARDS[0] + SHARDS[2]
        assert rows.degraded.shards_failed == (1,)
        assert opened[0] == 0 and opened[-1] == 2
