"""The served benchmark: five named workloads, end-to-end metrics with
regression bounds, per-layer numbers from a traced run.

``BENCHMARK.json`` at the repository root is the single source of the
workload names, metric names, units and bounds; :func:`spec` loads it.
See ``bench/README.md`` for what each workload stresses and how the
metrics interact.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
