"""Runtime fault injection: seeded transient faults under live traffic.

:mod:`repro.storage.faults` models *crash-and-restart*: one planned
:class:`~repro.storage.faults.SimulatedCrash` (a ``BaseException``)
ends the process-under-test and recovery is judged on what survived.
This module models the other half of operational adversity — faults the
system must absorb **without** restarting: intermittent IO errors,
latency spikes, shard-unavailability windows, poisoned commit
pipelines.  Product code marks *named fault points*
(``chaos.fault_point("shard.read", shard=2)``); an installed
:class:`ChaosPlan` decides deterministically which of those ops fault.

Determinism mirrors the crash harness: every decision is a pure
function of ``(seed, rule index, matched-op ordinal)`` through CRC-32
(:func:`repro.obs.clock.fraction`), so a chaos-sweep failure replays
from its printed seed alone.  Fault *effects* are typed and catchable:

* ``io_error`` / ``unavailable`` raise
  :class:`~repro.errors.TransientFault` (retryable — the scatter
  executor and the sharded commit path back off and retry);
* ``latency`` sleeps through the seeded backoff clock
  (:func:`repro.obs.clock.sleep`), so a `VirtualClock` test observes
  the spike without waiting it out.

``unavailable`` is ``io_error`` with a *window*: ``start`` matched ops
pass first, then every matched op faults until ``limit`` fires have
landed — long enough to drive a shard's health machine to ``failed``,
finite so probes find the shard alive again and recovery is exercised.

Enablement is programmatic: ``install(ChaosPlan(...))`` (tests use the
``active(plan)`` context manager).  Disabled (the default) a fault
point is one global read and a ``None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import TransientFault
from repro.obs import clock as _clock
from repro.obs import locks as _locks
from repro.obs import metrics as _metrics

__all__ = [
    "IO_ERROR",
    "LATENCY",
    "UNAVAILABLE",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosRule",
    "active",
    "fault_point",
    "install",
    "installed",
    "uninstall",
]

IO_ERROR = "io_error"
LATENCY = "latency"
UNAVAILABLE = "unavailable"

KINDS = (IO_ERROR, LATENCY, UNAVAILABLE)

#: the fault points product code currently fires (documentation and the
#: sweep enumerator's vocabulary; new points need no registration)
POINTS = ("shard.scan", "shard.read", "shard.commit", "shard.probe")


@dataclass(frozen=True)
class ChaosRule:
    """One transient-fault pattern.

    ``point`` matches a fault point exactly or as a dotted prefix
    (``"shard"`` matches ``shard.read`` and ``shard.commit``; ``""``
    matches everything).  ``shard`` restricts to one shard when set.
    ``rate`` is the deterministic pseudo-probability per matched op;
    ``start`` skips the first N matched ops (letting a workload warm up
    before the window opens); ``limit`` expires the rule after that
    many fires — ``start``/``limit`` together are what make an
    ``unavailable`` *window* rather than a permanent outage.
    """

    point: str = ""
    kind: str = IO_ERROR
    shard: Optional[int] = None
    rate: float = 1.0
    start: int = 0
    limit: Optional[int] = None
    latency_ms: float = 2.0

    def matches(self, point: str, shard: Optional[int]) -> bool:
        if self.shard is not None and shard != self.shard:
            return False
        if not self.point:
            return True
        return point == self.point or point.startswith(self.point + ".")


@dataclass(frozen=True)
class ChaosPlan:
    """A seed plus the rule set it drives."""

    seed: int = 0
    rules: Tuple[ChaosRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if rule.kind not in KINDS:
                raise ValueError(f"unknown chaos kind {rule.kind!r}")


@dataclass
class _RuleState:
    matched: int = 0  # guarded-by: ChaosInjector._lock
    fired: int = 0    # guarded-by: ChaosInjector._lock


_FAULTS = _metrics.counter("storage.chaos.faults_injected")
_ERRORS = _metrics.counter("storage.chaos.io_errors")
_SPIKES = _metrics.counter("storage.chaos.latency_spikes")


class ChaosInjector:
    """Evaluates a plan at every fault point.  Decisions happen under
    the injector lock (pure counter arithmetic); effects — the raise or
    the sleep — happen strictly outside it."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._lock = _locks.make_lock("storage.chaos")
        self._states = [_RuleState() for _ in plan.rules]  # guarded-by: _lock

    def fault_point(self, point: str, shard: Optional[int] = None) -> None:
        effects: List[Tuple[ChaosRule, int]] = []
        with self._lock:
            for index, rule in enumerate(self.plan.rules):
                if not rule.matches(point, shard):
                    continue
                state = self._states[index]
                ordinal = state.matched
                state.matched += 1
                if ordinal < rule.start:
                    continue
                if rule.limit is not None and state.fired >= rule.limit:
                    continue
                if rule.rate < 1.0 and _clock.fraction(
                        self.plan.seed, f"{index}:{point}",
                        ordinal) >= rule.rate:
                    continue
                state.fired += 1
                effects.append((rule, ordinal))
        for rule, ordinal in effects:
            _FAULTS.inc()
            if rule.kind == LATENCY:
                _SPIKES.inc()
                _clock.sleep(rule.latency_ms / 1000.0)
                continue
            _ERRORS.inc()
            raise TransientFault(
                f"injected {rule.kind} (seed {self.plan.seed}, op "
                f"{ordinal})", fault_point=point,
                shard_index=-1 if shard is None else shard)

    def stats(self) -> List[Dict[str, Any]]:
        """Per-rule matched/fired tallies (JSON-ready, for the chaos
        report artifact)."""
        with self._lock:
            return [{"point": rule.point or "*", "kind": rule.kind,
                     "shard": rule.shard, "matched": state.matched,
                     "fired": state.fired}
                    for rule, state in zip(self.plan.rules, self._states)]


#: the installed injector; a single attribute read on the disabled path
_ACTIVE: Optional[ChaosInjector] = None


def install(plan: ChaosPlan) -> ChaosInjector:
    global _ACTIVE
    injector = ChaosInjector(plan)
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def installed() -> Optional[ChaosInjector]:
    return _ACTIVE


@contextmanager
def active(plan: ChaosPlan) -> Iterator[ChaosInjector]:
    global _ACTIVE
    previous = _ACTIVE
    injector = install(plan)
    try:
        yield injector
    finally:
        _ACTIVE = previous


def fault_point(point: str, shard: Optional[int] = None) -> None:
    """Mark a named fault point.  Free when chaos is off."""
    injector = _ACTIVE
    if injector is not None:
        injector.fault_point(point, shard)

