"""Shared fixtures and reporting helpers for the paper benchmarks.

Every benchmark regenerates one table or figure from the paper's section 6
at laptop scale.  Absolute numbers differ from the paper's testbed; the
assertions encode the *shape* each artefact must reproduce (who wins, by
roughly what factor).  Scales can be raised via environment variables:

    REPRO_BENCH_SCALE      multiplier on document counts (default 1.0)
    REPRO_BENCH_RESULTS    output path for the machine-readable results
                           file (default BENCH_results.json in the cwd)

Besides the human-readable tables, every benchmark run emits
``BENCH_results.json``: raw timings and ratios recorded via
:func:`record`, the cache/dispatch counter snapshot, and run metadata.
CI uploads the file as an artifact so perf history survives the job.
"""

import json
import os
import platform
import sys

import pytest

#: global scale knob for document counts
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: where the machine-readable results land
RESULTS_PATH = os.environ.get("REPRO_BENCH_RESULTS", "BENCH_results.json")

#: where the observability exports land (CI uploads both next to
#: BENCH_results.json; ``python -m repro.tools.obs`` renders them)
OBS_TRACE_PATH = os.environ.get("REPRO_OBS_TRACE", "OBS_trace.json")
OBS_METRICS_PATH = os.environ.get("REPRO_OBS_METRICS", "OBS_metrics.json")


def scaled(count: int, minimum: int = 1) -> int:
    return max(minimum, int(count * SCALE))


#: dataset generation is deterministic; this seed parameterizes the only
#: sampled stage (dataguide sampling) and is recorded for reproducibility
DATA_SEED = 42

#: accumulated machine-readable results: section -> name -> value
RESULTS = {}


def record(section: str, name: str, value) -> None:
    """Record one measurement for ``BENCH_results.json``.

    ``value`` must be JSON-serializable (numbers, strings, dicts of
    those).  Re-recording the same (section, name) overwrites, so a
    fixture shared by several tests records its table once.
    """
    RESULTS.setdefault(section, {})[name] = value


def _write_results() -> None:
    if not RESULTS:
        return
    from repro.core.counters import snapshot_all

    payload = {
        "meta": {
            "scale": SCALE,
            "seed": DATA_SEED,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "counters": snapshot_all(),
        "results": RESULTS,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nbenchmark results written to {RESULTS_PATH}", file=sys.stderr)


def _write_obs_exports() -> None:
    """Dump the session's trace ring and metrics registry.

    Spans drained by individual tests are gone by design; whatever is
    left in the ring (e.g. the traced Figure 3 pass from
    ``test_obs_overhead.py``) becomes the artifact.  Both payloads are
    schema-validated by ``python -m repro.tools.obs validate`` in CI.
    """
    from repro.obs import export_traces
    from repro.obs.metrics import snapshot_metrics

    with open(OBS_TRACE_PATH, "w", encoding="utf-8") as fh:
        json.dump(export_traces(drain=False), fh, indent=2)
        fh.write("\n")
    with open(OBS_METRICS_PATH, "w", encoding="utf-8") as fh:
        json.dump(snapshot_metrics(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"observability exports written to {OBS_TRACE_PATH} and "
          f"{OBS_METRICS_PATH}", file=sys.stderr)


def pytest_sessionfinish(session, exitstatus):
    _write_results()
    _write_obs_exports()


_REPORTED = set()


def report(title: str, lines) -> None:
    """Print a paper-style table once per session (visible with -s; also
    emitted into the captured output of the first benchmark that builds
    it)."""
    if title in _REPORTED:
        return
    _REPORTED.add(title)
    out = ["", "=" * 72, title, "-" * 72]
    out.extend(lines)
    out.append("=" * 72)
    print("\n".join(out), file=sys.stderr)


@pytest.fixture(scope="session")
def bench_scale():
    return SCALE


def dg_writes_per_insert(texts):
    """Insert JSON ``texts`` one by one into a CLOB table under IS JSON
    with a DataGuide-enabled JSON search index; returns the index and
    the ``$DG`` row writes (``insert_count`` delta) of each insert."""
    from repro.engine import CLOB, Column, Database, NUMBER
    from repro.engine.constraints import IsJsonConstraint

    db = Database()
    table = db.create_table("t", [Column("id", NUMBER), Column("jdoc", CLOB)])
    table.add_constraint(IsJsonConstraint("jdoc"))
    index = db.create_json_search_index("t_idx", "t", "jdoc")
    deltas = []
    for i, text in enumerate(texts):
        before = index.dg_table.insert_count
        table.insert({"id": i, "jdoc": text})
        deltas.append(index.dg_table.insert_count - before)
    return index, deltas


def string_length_growth(documents):
    """Per document, the number of string paths whose running maximum
    length it raises (array elements share their array's path; the
    first document's strings set the starting maxima, so its count is
    the number of string paths it has).  Computed from the documents
    alone, independently of the DataGuide code."""
    running = {}
    growth = []
    for document in documents:
        longest = {}
        _string_lengths(document, (), longest)
        grown = [path for path, length in longest.items()
                 if length > running.get(path, -1)]
        for path in grown:
            running[path] = longest[path]
        growth.append(len(grown))
    return growth


def _string_lengths(value, path, longest):
    if isinstance(value, dict):
        for name, item in value.items():
            _string_lengths(item, path + (name,), longest)
    elif isinstance(value, list):
        for item in value:
            _string_lengths(item, path, longest)
    elif isinstance(value, str):
        longest[path] = max(longest.get(path, 0), len(value))
