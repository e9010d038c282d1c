"""``python -m repro.analysis`` — verify binary images, lint the tree.

Subcommands::

    python -m repro.analysis verify IMAGE [IMAGE...]      # files or dirs
    python -m repro.analysis lint PATH [PATH...]          # .py files or dirs
    python -m repro.analysis concurrency PATH [PATH...]   # lock discipline

``verify`` sniffs each file's format from its magic: OSON images, and
durable-store files (``log-*.log`` segments/WALs and ``MANIFEST``,
recognized by their frame magic and routed through
:func:`repro.storage.fsck.verify_store_file` — the same code path
``python -m repro.tools.store fsck`` uses); anything else falls back to
BSON.  ``--format`` forces one.  Exit status is 0 when no
ERROR-severity diagnostic was produced, 1 otherwise; ``--json`` emits a
machine-readable report instead of one line per finding.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.bson_verifier import verify_bson
from repro.analysis.diagnostics import Diagnostic, Severity, has_errors
from repro.analysis.lint.engine import LintEngine
from repro.analysis.oson_verifier import verify_oson
from repro.core.oson.constants import MAGIC as OSON_MAGIC
from repro.jsontext import dumps


def _summary(diagnostics: Sequence[Diagnostic],
             engine: Optional[LintEngine] = None) -> dict:
    """Severity tallies (+ suppression drift, when an engine ran)."""
    counts = {severity.name.lower(): 0 for severity in Severity}
    for diag in diagnostics:
        counts[diag.severity.name.lower()] += 1
    summary = dict(counts)
    if engine is not None:
        summary["files"] = engine.stats.get("files", 0)
        summary["suppressed"] = engine.stats.get("suppressed", 0)
        summary["suppressed_rules"] = dict(
            sorted(engine.stats.get("suppressed_rules", {}).items()))
    return summary


def _iter_image_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*") if p.is_file())
        else:
            yield path


def _verify_one(data: bytes, forced: Optional[str]) -> Tuple[str,
                                                             List[Diagnostic]]:
    # imported here: repro.storage depends on repro.analysis verifiers,
    # so the CLI reaches back lazily instead of creating an import cycle
    from repro.storage.fsck import is_store_file, verify_store_file
    if forced:
        fmt = forced
    elif data[:4] == OSON_MAGIC:
        fmt = "oson"
    elif is_store_file(data):
        fmt = "store"
    else:
        fmt = "bson"
    if fmt == "store":
        return fmt, verify_store_file(data)
    verifier = verify_oson if fmt == "oson" else verify_bson
    return fmt, verifier(data)


def _emit(report: List[dict], diagnostics: Iterable[Tuple[str, Diagnostic]],
          as_json: bool) -> None:
    for path, diag in diagnostics:
        if as_json:
            entry = diag.to_dict()
            entry["file"] = path
            report.append(entry)
        else:
            prefix = f"{path}: " if diag.path is None else ""
            print(f"{prefix}{diag.render()}")


def cmd_verify(args: argparse.Namespace) -> int:
    report: List[dict] = []
    failed = 0
    checked = 0
    for path in _iter_image_files(args.paths):
        try:
            data = path.read_bytes()
        except OSError as exc:
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            failed += 1
            continue
        fmt, diagnostics = _verify_one(data, args.format)
        checked += 1
        if has_errors(diagnostics):
            failed += 1
        _emit(report, ((str(path), d) for d in diagnostics), args.json)
        if not args.json and not diagnostics:
            print(f"{path}: {fmt} image ok ({len(data)} bytes)")
    if args.json:
        print(dumps({"checked": checked, "failed": failed,
                     "diagnostics": report}, pretty=True))
    elif failed:
        print(f"{failed} of {checked} images failed verification")
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    engine = LintEngine()
    diagnostics = engine.lint_paths(args.paths)
    report: List[dict] = []
    _emit(report, ((d.path or "", d) for d in diagnostics), args.json)
    if args.json:
        timings = {rule: round(ms, 3) for rule, ms
                   in sorted(engine.rule_timings_ms.items())}
        print(dumps({"diagnostics": report,
                     "summary": _summary(diagnostics, engine),
                     "timings_ms": timings}, pretty=True))
    elif not diagnostics:
        print("lint clean")
    return 1 if has_errors(diagnostics) else 0


def cmd_concurrency(args: argparse.Namespace) -> int:
    # imported lazily for symmetry with the other subcommands; the
    # concurrency package pulls in the whole rule catalog
    from repro.analysis.concurrency import check_paths
    diagnostics, analyzer = check_paths(args.paths)
    report: List[dict] = []
    _emit(report, ((d.path or "", d) for d in diagnostics), args.json)
    if args.json:
        print(dumps({"diagnostics": report,
                     "summary": _summary(diagnostics),
                     "lock_graph": analyzer.graph()}, pretty=True))
    elif not diagnostics:
        print(f"concurrency clean "
              f"({len(analyzer.graph())} order edges, no cycles)")
    return 1 if has_errors(diagnostics) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis: OSON/BSON image verification and "
                    "project lint rules.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser(
        "verify", help="verify OSON/BSON binary images")
    verify.add_argument("paths", nargs="+",
                        help="image files or directories of images")
    verify.add_argument("--format", choices=("oson", "bson", "store"),
                        help="force the image format instead of sniffing "
                             "('store' = durable-store log/manifest files)")
    verify.set_defaults(func=cmd_verify)
    lint = commands.add_parser("lint", help="lint Python sources")
    lint.add_argument("paths", nargs="+",
                      help=".py files or directories to lint")
    lint.set_defaults(func=cmd_lint)
    concurrency = commands.add_parser(
        "concurrency",
        help="lock-discipline and lock-order static analysis")
    concurrency.add_argument("paths", nargs="+",
                             help=".py files or directories to analyze")
    concurrency.set_defaults(func=cmd_concurrency)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
