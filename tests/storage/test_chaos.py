"""Runtime chaos injector: seeded decisions, fault windows, install.

The load-bearing property is determinism — a chaos-sweep failure must
replay from its printed seed alone — so every decision is asserted to
be a pure function of ``(seed, rule index, matched ordinal)``.
"""

import pytest

from repro.errors import StorageError, TransientFault
from repro.obs import clock as clockmod
from repro.obs import metrics
from repro.storage import chaos


@pytest.fixture
def virtual_clock():
    clock = clockmod.VirtualClock()
    previous = clockmod.install_clock(clock)
    yield clock
    clockmod.install_clock(previous)


def fire_pattern(plan, point, n=200, shard=None):
    """Which of n ops fault, as a tuple of ordinals (fresh injector)."""
    injector = chaos.ChaosInjector(plan)
    fired = []
    for i in range(n):
        try:
            injector.fault_point(point, shard=shard)
        except TransientFault:
            fired.append(i)
    return tuple(fired)


class TestChaosRule:
    def test_point_prefix_matching(self):
        rule = chaos.ChaosRule(point="shard")
        assert rule.matches("shard.read", None)
        assert rule.matches("shard.commit", 2)
        assert not rule.matches("sharding.read", None)

    def test_exact_and_wildcard(self):
        assert chaos.ChaosRule(point="shard.read").matches("shard.read", 0)
        assert not chaos.ChaosRule(point="shard.read").matches(
            "shard.scan", 0)
        assert chaos.ChaosRule(point="").matches("anything.at.all", None)

    def test_shard_restriction(self):
        rule = chaos.ChaosRule(point="shard.read", shard=1)
        assert rule.matches("shard.read", 1)
        assert not rule.matches("shard.read", 0)
        assert not rule.matches("shard.read", None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            chaos.ChaosPlan(rules=(chaos.ChaosRule(kind="meteor"),))


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = chaos.ChaosPlan(seed=7, rules=(
            chaos.ChaosRule(point="shard.read", rate=0.2),))
        first = fire_pattern(plan, "shard.read")
        assert first  # rate 0.2 over 200 ops must fire at least once
        assert fire_pattern(plan, "shard.read") == first

    def test_different_seeds_differ(self):
        patterns = {
            fire_pattern(chaos.ChaosPlan(seed=s, rules=(
                chaos.ChaosRule(point="shard.read", rate=0.2),)),
                "shard.read")
            for s in range(5)}
        assert len(patterns) > 1

    def test_rate_zero_point_mismatch_never_fires(self):
        plan = chaos.ChaosPlan(seed=1, rules=(
            chaos.ChaosRule(point="shard.commit", rate=1.0),))
        assert fire_pattern(plan, "shard.read") == ()

    def test_faults_are_catchable_storage_errors(self):
        plan = chaos.ChaosPlan(seed=1, rules=(
            chaos.ChaosRule(point="shard.read"),))
        injector = chaos.ChaosInjector(plan)
        with pytest.raises(StorageError) as exc_info:
            injector.fault_point("shard.read", shard=3)
        assert exc_info.value.shard_index == 3
        assert exc_info.value.fault_point == "shard.read"
        assert "seed 1" in str(exc_info.value)


class TestWindows:
    def test_start_skips_warmup_ops(self):
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", rate=1.0, start=5),))
        assert fire_pattern(plan, "p", n=8) == (5, 6, 7)

    def test_limit_expires_the_rule(self):
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", rate=1.0, limit=3),))
        assert fire_pattern(plan, "p", n=10) == (0, 1, 2)

    def test_unavailability_window(self):
        """start+limit together: ops pass, then a finite outage, then
        the shard is reachable again — the recovery-drill shape."""
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", kind=chaos.UNAVAILABLE,
                            rate=1.0, start=4, limit=4),))
        assert fire_pattern(plan, "p", n=20) == (4, 5, 6, 7)

    def test_windows_are_per_shard_when_restricted(self):
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", shard=1, rate=1.0, limit=2),))
        assert fire_pattern(plan, "p", n=6, shard=0) == ()
        assert fire_pattern(plan, "p", n=6, shard=1) == (0, 1)


class TestLatency:
    def test_latency_sleeps_through_project_clock(self, virtual_clock):
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", kind=chaos.LATENCY, rate=1.0,
                            latency_ms=7.0, limit=2),))
        injector = chaos.ChaosInjector(plan)
        for _ in range(5):
            injector.fault_point("p")  # never raises
        assert virtual_clock.sleeps == [0.007, 0.007]

    def test_latency_counted_separately(self, virtual_clock):
        spikes = metrics.counter("storage.chaos.latency_spikes").value
        errors = metrics.counter("storage.chaos.io_errors").value
        total = metrics.counter("storage.chaos.faults_injected").value
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", kind=chaos.LATENCY, limit=1),
            chaos.ChaosRule(point="p", kind=chaos.IO_ERROR, limit=1,
                            start=1),))
        injector = chaos.ChaosInjector(plan)
        injector.fault_point("p")
        with pytest.raises(TransientFault):
            injector.fault_point("p")
        assert metrics.counter(
            "storage.chaos.latency_spikes").value == spikes + 1
        assert metrics.counter(
            "storage.chaos.io_errors").value == errors + 1
        assert metrics.counter(
            "storage.chaos.faults_injected").value == total + 2


class TestInstallation:
    def test_disabled_by_default_here(self):
        # the test env must not run under ambient chaos
        assert chaos.installed() is None

    def test_active_restores_previous(self):
        plan = chaos.ChaosPlan(seed=3, rules=(
            chaos.ChaosRule(point="p"),))
        with chaos.active(plan) as injector:
            assert chaos.installed() is injector
            with pytest.raises(TransientFault):
                chaos.fault_point("p")
        assert chaos.installed() is None
        chaos.fault_point("p")  # free when off

    def test_stats_report_matched_and_fired(self):
        plan = chaos.ChaosPlan(seed=0, rules=(
            chaos.ChaosRule(point="p", rate=1.0, limit=2),))
        injector = chaos.ChaosInjector(plan)
        for _ in range(5):
            try:
                injector.fault_point("p")
            except TransientFault:
                pass
        (row,) = injector.stats()
        assert row["matched"] == 5
        assert row["fired"] == 2
        assert row["kind"] == chaos.IO_ERROR

