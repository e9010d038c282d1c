"""``python -m bench`` — the whole suite, the self-check and compare.

    PYTHONPATH=src python -m bench run --seed S [--workload W] [--traced]
                                       [--repeat N] [--out FILE] [--smoke]
    PYTHONPATH=src python -m bench selfcheck --seed S [--repeat N]
    PYTHONPATH=src python -m bench compare A.json B.json

``run`` starts one process per workload run (``bench/run.py``, the same
entry the driver uses), so caches and peak memory never carry over.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

from bench import BENCH_DIR, spec
from bench.compare import compare_sets, device_counts_equal, load_set


def run_suite(seed: int, workloads: List[str], traced: bool, repeat: int,
              seconds: int, scale: float) -> List[dict]:
    """Every requested run, each in its own process; prints their
    tables as they finish and returns their result lines."""
    runs = []
    for rep in range(repeat):
        for name in workloads:
            for trace in ((0, 1) if traced else (0,)):
                command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--workload", name, "--seed", str(seed + rep),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--scale", str(scale)]
                done = subprocess.run(command, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                if done.returncode not in (0, 1) or not lines:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"bench: {name} did not finish")
                result = json.loads(lines[-1])
                result.update(workload=name, seed=seed + rep, trace=trace)
                print(f"# {name}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']} failed_share="
                      f"{result['failed'] / result['attempted']:.6f}\n")
                runs.append(result)
    return runs


def main(argv: List[str] | None = None) -> int:
    benchmark = spec()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads")
    check = commands.add_parser(
        "selfcheck", help="two sets of runs of the same code must agree")
    for sub in (run, check):
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--repeat", type=int, default=1,
                         help="runs per workload; seeds S, S+1, ...")
        sub.add_argument("--seconds", type=int,
                         default=benchmark["run_seconds"])
    run.add_argument("--workload", choices=names, action="append")
    run.add_argument("--traced", action="store_true",
                     help="add the traced run with the per-layer numbers")
    run.add_argument("--out", help="write the set of runs to this file")
    run.add_argument("--smoke", action="store_true",
                     help="scale 0.05, 2 s windows: does everything run?")
    compare = commands.add_parser("compare", help="compare two sets")
    compare.add_argument("base")
    compare.add_argument("other")
    args = parser.parse_args(argv)

    if args.command == "compare":
        lines, clean = compare_sets(load_set(args.base),
                                    load_set(args.other))
        print("\n".join(lines))
        return 0 if clean else 1

    if args.command == "selfcheck":
        sets = [run_suite(args.seed, names, True, args.repeat, args.seconds,
                          1.0) for _ in range(2)]
        lines, clean = compare_sets(*sets)
        print("\n".join(lines))
        differing = device_counts_equal(*sets)
        for line in differing:
            print(f"device counts differ: {line}")
        correct = all(r["correct"] for runs in sets for r in runs)
        return 0 if clean and correct and not differing else 1

    scale, seconds = (0.05, 2) if args.smoke else (1.0, args.seconds)
    runs = run_suite(args.seed, args.workload or names, args.traced,
                     args.repeat, seconds, scale)
    from bench.gaps import probe_all
    print("gaps (see bench/KNOWN_GAPS.md):")
    for gap, state in probe_all().items():
        print(f"  {gap}: {state}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "scale": scale, "runs": runs}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
