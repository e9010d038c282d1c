"""Compare two sets of runs, and the self-check built on it.

A *set* is the JSON file ``python -m bench run --out FILE`` writes:
``{"runs": [{"workload", "seed", "trace", "correct", "metrics"}, ...]}``.
One row is printed per (workload, end-to-end metric) with both medians,
their ratio (B over A, A being the base), the metric's bound and a
verdict: ``ok``, ``worse`` (B's median is worse than A's by more than
the bound) or ``unresolved`` (the run-to-run spread on either side is
wider than the bound, so the comparison cannot tell).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from bench import spec
from bench.stats import spread


def load_set(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _values(runs: List[dict], trace: int) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                metric["value"])
    return out


def verdict(base: List[float], other: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(``ok`` | ``worse`` | ``unresolved``, other's median over base's)."""
    a, b = statistics.median(base), statistics.median(other)
    ratio = b / a if a else float("inf")
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if any(len(v) >= 4 and spread(v) > bound for v in (base, other)):
        return "unresolved", ratio
    return ("worse" if worsening > bound else "ok"), ratio


def compare_sets(base: List[dict], other: List[dict]) -> Tuple[List[str], bool]:
    """Report lines and whether every comparison came out ``ok``."""
    a, b = _values(base, 0), _values(other, 0)
    benchmark = spec()
    lines = [f"{'workload':<15}{'metric':<20}{'A (base)':>14}{'B':>14}"
             f"{'B/A':>8}{'bound':>7}  verdict"]
    clean = True
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            outcome, ratio = verdict(a[key], b[key], metric["better"],
                                     metric["bound"])
            clean = clean and outcome == "ok"
            lines.append(
                f"{workload:<15}{metric['name']:<20}"
                f"{statistics.median(a[key]):>14.4f}"
                f"{statistics.median(b[key]):>14.4f}{ratio:>8.3f}"
                f"{metric['bound']:>7.2f}  {outcome}")
    return lines, clean


def device_counts_equal(base: List[dict], other: List[dict]) -> List[str]:
    """The ``storage.fs.*`` counts of traced runs repeat exactly with
    one writer; returns a line per (workload, count) that differs."""
    a, b = _values(base, 1), _values(other, 1)
    return [f"{workload} {name}: {a[workload, name]} != {b[workload, name]}"
            for (workload, name) in sorted(a)
            if name.startswith("storage.fs.") and (workload, name) in b
            and a[workload, name] != b[workload, name]]
