"""``python -m repro.tools.obs`` — inspect observability exports.

Subcommands::

    python -m repro.tools.obs trace FILE [FILE...]     # render span trees
    python -m repro.tools.obs metrics FILE [FILE...]   # render metric table
    python -m repro.tools.obs validate FILE [FILE...]  # schema-check only

``trace`` and ``metrics`` validate each payload against the published
schema (:mod:`repro.obs.schema`) before rendering — a malformed export
is reported and counted as a failure, never rendered half-way.
``validate`` sniffs the payload kind from its ``schema`` field, so one
invocation can check a mixed directory of exports (the CI perf-smoke
artifact).  Exit status is 0 when every file validated, 1 otherwise.

All rendering is plain text on stdout; the exports themselves are the
machine-readable interface.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import JsonParseError
from repro.jsontext import loads
from repro.obs.schema import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    validate,
    validate_metrics_export,
    validate_trace_export,
)

#: schema-id -> (kind label, schema) for ``validate`` sniffing
_KNOWN_SCHEMAS = {
    "repro.obs.trace/v1": ("trace", TRACE_SCHEMA),
    "repro.obs.metrics/v1": ("metrics", METRICS_SCHEMA),
}


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def _iter_files(paths: Sequence[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.json")
                              if p.is_file()))
        else:
            out.append(path)
    return out


def _report_problems(path: str, problems: Sequence[str]) -> None:
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)


# -- trace rendering ---------------------------------------------------------


def _render_span(span: Dict[str, Any], depth: int) -> None:
    indent = "  " * depth
    elapsed = span.get("elapsed_ms")
    timing = f"{elapsed:.3f}ms" if isinstance(elapsed, (int, float)) \
        else "open"
    attrs = span.get("attrs") or {}
    suffix = ""
    if attrs:
        rendered = " ".join(f"{k}={v}" for k, v in attrs.items())
        suffix = f"  [{rendered}]"
    print(f"{indent}{span['name']}  {timing}{suffix}")
    counters = span.get("counters") or {}
    for key in sorted(counters):
        print(f"{indent}    {key}: {counters[key]}")
    for child in span.get("children") or []:
        _render_span(child, depth + 1)
    dropped = span.get("dropped_children")
    if dropped:
        print(f"{indent}  ... {dropped} child spans dropped (ring cap)")


def cmd_trace(args: argparse.Namespace) -> int:
    failed = 0
    for path in _iter_files(args.paths):
        try:
            payload = _load(str(path))
        except (OSError, ValueError, JsonParseError) as exc:
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            failed += 1
            continue
        problems = validate_trace_export(payload)
        if problems:
            _report_problems(str(path), problems)
            failed += 1
            continue
        spans = payload["spans"]
        print(f"{path}: {len(spans)} root span(s)")
        for span in spans:
            _render_span(span, 1)
    return 1 if failed else 0


# -- metrics rendering -------------------------------------------------------


def _render_metric(name: str, snapshot: Dict[str, Any]) -> None:
    kind = snapshot.get("type")
    if kind == "histogram":
        boundaries = snapshot["boundaries"]
        counts = snapshot["counts"]
        buckets = []
        for i, count in enumerate(counts):
            if not count:
                continue
            upper = ("+inf" if i >= len(boundaries)
                     else f"<={boundaries[i]}")
            buckets.append(f"{upper}:{count}")
        rendered = " ".join(buckets) if buckets else "(empty)"
        print(f"  {name}  histogram  count={snapshot['count']} "
              f"sum={snapshot['sum']}  {rendered}")
    else:
        print(f"  {name}  {kind}  {snapshot.get('value')}")


def cmd_metrics(args: argparse.Namespace) -> int:
    failed = 0
    for path in _iter_files(args.paths):
        try:
            payload = _load(str(path))
        except (OSError, ValueError, JsonParseError) as exc:
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            failed += 1
            continue
        problems = validate_metrics_export(payload)
        if problems:
            _report_problems(str(path), problems)
            failed += 1
            continue
        metrics = payload["metrics"]
        print(f"{path}: {len(metrics)} instrument(s)")
        for name in sorted(metrics):
            _render_metric(name, metrics[name])
        for section, body in sorted((payload.get("providers")
                                     or {}).items()):
            print(f"  provider {section}:")
            for key in sorted(body):
                print(f"    {key}: {body[key]}")
    return 1 if failed else 0


# -- validation --------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    failed = 0
    checked = 0
    for path in _iter_files(args.paths):
        try:
            payload = _load(str(path))
        except (OSError, ValueError, JsonParseError) as exc:
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            failed += 1
            continue
        schema_id = payload.get("schema") if isinstance(payload, dict) \
            else None
        known = _KNOWN_SCHEMAS.get(schema_id)
        if known is None:
            print(f"{path}: unknown export schema {schema_id!r}",
                  file=sys.stderr)
            failed += 1
            continue
        kind, schema = known
        problems = validate(payload, schema)
        checked += 1
        if problems:
            _report_problems(str(path), problems)
            failed += 1
        else:
            print(f"{path}: {kind} export ok")
    if failed:
        print(f"{failed} export(s) failed validation", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.obs",
        description="Pretty-print and validate repro.obs trace/metrics "
                    "exports.")
    commands = parser.add_subparsers(dest="command", required=True)
    trace = commands.add_parser("trace", help="render trace exports")
    trace.add_argument("paths", nargs="+",
                       help="trace export files or directories")
    trace.set_defaults(func=cmd_trace)
    metrics = commands.add_parser("metrics", help="render metrics exports")
    metrics.add_argument("paths", nargs="+",
                         help="metrics export files or directories")
    metrics.set_defaults(func=cmd_metrics)
    check = commands.add_parser(
        "validate", help="schema-validate exports (kind sniffed)")
    check.add_argument("paths", nargs="+",
                       help="export files or directories")
    check.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
