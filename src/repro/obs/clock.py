"""The project's sleep discipline: a seeded backoff clock.

Retry paths (scatter shard scans, the sharded commit path) must never call
``time.sleep`` directly — the ``direct-time`` lint rule enforces it.
Two reasons:

* **Determinism.**  Exponential backoff needs jitter, and jitter from a
  wall-clock or a process-global RNG makes every chaos-sweep failure
  unreproducible.  :class:`BackoffPolicy` derives each delay from
  CRC-32 of ``(seed, key, attempt)`` — the same coordinates the fault
  harness prints — so a failing case replays byte-identically.
* **Observability.**  Sleeping while holding a sanitized lock is a
  bug; routing every product sleep through :func:`sleep` lets the
  runtime lock sanitizer (:func:`repro.obs.locks.note_blocking_io`)
  flag it, and lets tests install a :class:`VirtualClock` so retry
  suites assert *which* delays were requested without actually waiting.

This module may touch :mod:`time` because it lives in ``repro/obs`` —
the one package the clock-discipline lint exempts.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import List

from repro.obs import locks as _locks

__all__ = [
    "BackoffPolicy",
    "SystemClock",
    "VirtualClock",
    "active_clock",
    "fraction",
    "install_clock",
    "now",
    "sleep",
]


class SystemClock:
    """The real thing: ``perf_counter`` time, actual sleeping."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        # a sleep under a sanitized lock is as much a finding as an
        # fsync under one — surface it through the same hook
        _locks.note_blocking_io("sleep")
        time.sleep(seconds)


class VirtualClock:
    """A test clock: sleeping records the request and returns
    immediately, so retry suites assert the exact backoff schedule
    without waiting it out.  ``now()`` stays on the real
    ``perf_counter`` so deadline math against
    :data:`repro.obs.trace.monotonic` keeps one time base."""

    def __init__(self) -> None:
        self.sleeps: List[float] = []

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        _locks.note_blocking_io("sleep")
        self.sleeps.append(seconds)


_ACTIVE = SystemClock()


def active_clock():
    return _ACTIVE


def install_clock(clock) -> object:
    """Swap the process clock (tests); returns the previous one so the
    caller can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = clock
    return previous


def sleep(seconds: float) -> None:
    """The one sanctioned product-code sleep."""
    _ACTIVE.sleep(seconds)


def now() -> float:
    return _ACTIVE.now()


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay_ms(key, attempt)`` is a pure function of
    ``(seed, key, attempt)``: the raw delay doubles per attempt (capped
    at ``max_ms``), then shrinks by up to ``jitter`` of itself using a
    CRC-32-derived fraction — decorrelated across keys (shards) so
    retries against different shards do not thunder in phase, yet fully
    reproducible from the seed.
    """

    base_ms: float = 4.0
    multiplier: float = 2.0
    max_ms: float = 100.0
    max_attempts: int = 3
    jitter: float = 0.5
    seed: int = 0

    def delay_ms(self, key: str, attempt: int) -> float:
        raw = min(self.max_ms,
                  self.base_ms * (self.multiplier ** max(0, attempt)))
        if self.jitter <= 0:
            return raw
        digest = zlib.crc32(f"{self.seed}:{key}:{attempt}".encode("utf-8"))
        fraction = (digest % 10_000) / 10_000.0
        return raw * (1.0 - self.jitter * fraction)

    def delays_ms(self, key: str) -> List[float]:
        """The full schedule for one key — what a retry loop that
        exhausts its budget will sleep, in order."""
        return [self.delay_ms(key, attempt)
                for attempt in range(self.max_attempts)]


def fraction(seed: int, key: str, ordinal: int) -> float:
    """A deterministic [0, 1) roll shared by the chaos injector: the
    same coordinates always produce the same decision."""
    digest = zlib.crc32(f"{seed}:{key}:{ordinal}".encode("utf-8"))
    return (digest % 1_000_000) / 1_000_000.0
