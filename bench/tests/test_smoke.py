"""The smoke run: every workload end to end, untraced and traced, on a
twentieth of the data with 2 s windows."""

import json
import os
import subprocess
import sys
import time

from bench import ROOT, spec


def test_smoke_run_exercises_every_workload(tmp_path):
    out = tmp_path / "set.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--seed", "1", "--smoke",
         "--traced", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    benchmark = spec()
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2 * len(benchmark["workloads"])
    for run in runs:
        wanted = benchmark["per_layer" if run["trace"] else "end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in wanted}
        assert run["correct"] and run["failed"] == 0
    assert "gaps" in done.stdout
    print(f"smoke run took {elapsed:.1f}s")
