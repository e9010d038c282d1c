"""Driver entry: one run of one workload.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Prints a table of every metric (name, value, unit, sample count) and,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Exits non-zero, with the result still printed, on
a wrong answer, a failed operation or a lost acknowledged write.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench: the program under test (src/repro) is not in this "
             "checkout")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import OUT_DIR, spec  # noqa: E402
from bench.layers import EXPECTATIONS, PREDICTIONS  # noqa: E402
from bench.lifecycle import Run, end_to_end  # noqa: E402
from bench.spans import SpanLog, layer_self_times  # noqa: E402
from bench.stats import samples_beyond  # noqa: E402
from bench.traced import traced  # noqa: E402
from bench.workloads import build_workloads  # noqa: E402


#: printed but not in ``BENCHMARK.json``: see bench/README.md
EXTRA_UNITS = {"acked_lost": "count", "commit_p90_ms": "ms"}


def pin_to_one_cpu() -> str:
    """Keep every thread of this process on one CPU.  All clients and
    workers share the interpreter lock, so a second core adds no
    throughput; it adds lock hand-overs between cores, which on a small
    shared sandbox cost a third of the throughput and most of the
    run-to-run spread.  The other core is left to the OS."""
    if not hasattr(os, "sched_setaffinity"):
        return "not pinned (no sched_setaffinity)"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"pinned to CPU {cpu}"


def run_once(name: str, seed: int, seconds: int, trace: bool,
             scale: float = 1.0) -> dict:
    """Run one workload; the result dict also carries ``table`` (rows of
    name, value, unit, samples) and ``notes`` (failed operations; for a
    traced run also self time per layer and the counter checks)."""
    benchmark = spec()
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    workload = build_workloads(scale)[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    log = SpanLog(name) if trace else None
    try:
        inputs = workload.generate(seed, seconds)
        run = Run(workload, inputs, scratch, log, quick=scale < 1.0)
        measured = (traced if trace else end_to_end)(run, seconds)
        run.gate.save()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if log is not None:
        with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "spans": log.spans}, fh)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(measured))
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")
    lost = measured.get("acked_lost", (0, 1))[0]
    tally = run.tally
    return {
        "correct": tally.failed == 0 and lost == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name_: {"value": measured[name_][0],
                            "unit": units[name_]} for name_ in units},
        "table": [(name_, value, units.get(name_) or EXTRA_UNITS[name_],
                   samples)
                  for name_, (value, samples) in measured.items()],
        "notes": ([run.gate.summary()] + tally.notes
                  + _trace_notes(name, log, measured)),
    }


def _trace_notes(name: str, log: SpanLog | None, measured: dict) -> list:
    """Lines a traced run adds under its table: self time per layer and
    the counter checks."""
    if log is None:
        return []
    notes = [f"self time {layer}: {seconds:.3f} s"
             for layer, seconds in sorted(layer_self_times(log.spans).items())]
    for metric, comparison, value in EXPECTATIONS.get(name, ()):
        got = measured[metric][0]
        met = got >= value if comparison == ">=" else got <= value
        notes.append(f"check {metric} {comparison} {value}: "
                     f"{'ok' if met else 'NOT MET'} ({got:.4f})")
    return notes


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the data (smoke runs only; results "
                             "are comparable only at 1.0)")
    args = parser.parse_args(argv)
    pinned = pin_to_one_cpu()
    result = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}; closed loop, 2 client threads, {pinned}, "
          f"real file system, one fsync per group-commit batch")
    for name, value, unit, samples in result.pop("table"):
        note = f"  -> {PREDICTIONS[name]}" if name in PREDICTIONS else ""
        if name.endswith("_p90_ms") and samples > 1:
            note += f"  ({samples_beyond(samples, 0.9)} samples beyond)"
        print(f"{name:<46}{value:>16.4f} {unit:<10} n={samples}{note}")
    for note in result.pop("notes"):
        print(f"# {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
