"""repro.obs — zero-dependency observability: tracing, metrics, profiling.

The paper's claims are *measured* claims — who wins, by what factor,
where the crossover falls — so the engine carries a first-class
observability layer instead of ad-hoc timers:

* :mod:`repro.obs.trace` — a contextvar-based tracer with nestable spans
  (query → operator → OSON navigate / WAL append), wall-time and metric
  deltas per span, ring-buffered in memory and exportable as
  schema-validated JSON.  ``set_tracing_enabled()`` is the kill switch;
  the disabled path is benchmarked under 2% overhead on the Figure 3
  suite (``benchmarks/test_obs_overhead.py``).
* :mod:`repro.obs.metrics` — the one metrics registry (counters,
  gauges, fixed-bucket histograms).  Cache hit/miss/eviction tallies
  are ordinary counters in it (``<cache>.hits`` ...), so one snapshot
  covers every subsystem.
* :mod:`repro.obs.schema` — the published JSON schema for trace and
  metrics exports plus a dependency-free validator.

Layering: this package sits *below* everything else — it imports only
the standard library, so every subsystem (core, storage, engine) can
instrument itself without cycles.  Instrumented modules must not call
``time.*`` directly (lint rule ``direct-time``); they use
:func:`repro.obs.monotonic` so the clock discipline stays in one place.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    counter,
    gauge,
    histogram,
    register_provider,
    snapshot_metrics,
)
from repro.obs.trace import (
    Span,
    current_span,
    export_traces,
    monotonic,
    set_tracing_enabled,
    span,
    take_spans,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "counter",
    "current_span",
    "export_traces",
    "gauge",
    "histogram",
    "monotonic",
    "register_provider",
    "set_tracing_enabled",
    "snapshot_metrics",
    "span",
    "take_spans",
    "tracing_enabled",
]
