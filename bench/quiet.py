"""Wait for a quiet machine before each phase of a run.

The sandbox is a few cores of a shared host, and now and then something
outside it slows all Python here: a fixed loop then takes 1.3 to 1.5
times as long on both CPUs at once, statements 1.5 to 2 times.  In one
sweep of 50 runs (1000 s) there were three such episodes of 40 to 70 s.
That is longer than a run, so no median inside a run rejects it, and
each spoilt three runs in a row of the ten a workload gets: enough to
push the inter-quartile spread of every timing past its bound.  So a
run times the fixed loop before each of its phases and waits while the
loop is slower than it usually is on this machine; an episode then
spoils the one run it starts in.

"Usually" is the median of this checkout's last readings, kept in
``bench/out/quiet.json`` from run to run.  A machine that has become
slower for good fills that history within a few runs and the waiting
stops; no run waits longer than ``BUDGET_S`` in all.  The waiting is
outside every timed interval, and a run says how long it waited.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Callable, List

from bench import OUT_DIR

HISTORY_FILE = os.path.join(OUT_DIR, "quiet.json")
KEEP = 48           # readings remembered
ENOUGH = 8          # readings before "usual" means anything
TOLERANCE = 1.15    # quiet: within this factor of usual (a quiet machine
                    # stays within 1.05; an episode reads 1.2 to 2)
BUDGET_S = 40.0     # the longest a full run waits, all its gates together
PAUSE_S = 1.0


def _loop() -> int:
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return total


def probe() -> float:
    """Seconds the fixed loop takes: the median of three in a row.  The
    first pays for waking the core up after a pause, so this is the
    slower of the other two: an episode that comes and goes shows."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return median(times)


class QuietGate:
    def __init__(self, budget_s: float = BUDGET_S, path: str = HISTORY_FILE,
                 probe: Callable[[], float] = probe,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.budget_s = budget_s
        self.path, self.probe, self.sleep = path, probe, sleep
        self.waited = 0.0
        self.history: List[float] = []
        try:
            with open(path, encoding="utf-8") as fh:
                self.history = [float(x) for x in json.load(fh)][-KEEP:]
        except (OSError, ValueError, TypeError):
            pass            # first run of this checkout, or a torn file

    def settle(self) -> None:
        """Return when the machine is as fast as usual, or the run's
        waiting budget is spent.  The last reading joins the history
        either way, which is how a lasting slowdown becomes usual."""
        reading = self.probe()
        if len(self.history) >= ENOUGH:
            usual = median(self.history)
            while reading > TOLERANCE * usual and self.waited < self.budget_s:
                self.sleep(PAUSE_S)
                self.waited += PAUSE_S
                reading = self.probe()
        self.history = (self.history + [reading])[-KEEP:]

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        scratch = f"{self.path}.{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as fh:
            json.dump(self.history, fh)
        os.replace(scratch, self.path)

    def summary(self) -> str:
        return (f"waited {self.waited:.0f} s for a quiet machine; probe "
                f"loop last {self.history[-1] * 1e3:.1f} ms, usually "
                f"{median(self.history) * 1e3:.1f} ms")
