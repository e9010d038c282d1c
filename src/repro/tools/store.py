"""``python -m repro.tools.store`` — operate on a durable collection store.

Subcommands::

    python -m repro.tools.store open DIR       # recover + print report
    python -m repro.tools.store fsck DIR       # offline integrity check
    python -m repro.tools.store compact DIR    # rewrite live docs only

``open`` runs verified recovery and prints the recovery report
(quarantined records, torn-tail truncation, DataGuide status) plus the
store's DataGuide paths; it exits 0 even for a degraded-but-openable
store — recovery *degrading* is the designed behaviour, not a failure —
and 1 only when the directory is not a store at all.

``fsck`` is read-only and shares its verification code path with
``python -m repro.analysis verify`` (:mod:`repro.storage.fsck`); it
exits 1 when any ERROR-severity diagnostic is found.

All three subcommands transparently handle **sharded** collections
(directories carrying a ``SHARDS`` marker, see
:mod:`repro.storage.shard`): ``open`` prints the aggregate per-shard
recovery report, ``fsck`` checks the marker plus every shard, and
``compact`` compacts shard by shard.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.diagnostics import has_errors
from repro.errors import StorageError
from repro.jsontext import dumps
from repro.storage import (
    CollectionStore,
    ShardedStore,
    fsck,
    fsck_sharded,
    imc_segment_status,
    is_sharded_store,
)
from repro.storage.files import OsFileSystem


def _open_any(directory: str, verify_documents: bool = True):
    if is_sharded_store(OsFileSystem(), directory):
        return ShardedStore.open(directory,
                                 verify_documents=verify_documents)
    return CollectionStore.open(directory,
                                verify_documents=verify_documents)


def cmd_open(args: argparse.Namespace) -> int:
    try:
        store = _open_any(args.directory,
                          verify_documents=not args.no_verify)
    except StorageError as exc:
        print(f"cannot open {args.directory}: {exc}", file=sys.stderr)
        return 1
    report = store.recovery
    if args.json:
        if isinstance(store, ShardedStore):
            payload = {
                "sharded": True,
                "shards": store.shard_count,
                "routing_field": store.routing_field,
                "documents": len(store),
                "clean": report is None or report.clean,
                "cut_batches": report.cut_batches if report else [],
                "quarantined": [q.render() for q in
                                (report.quarantined if report else [])],
                "diagnostics": [d.to_dict() for d in
                                (report.diagnostics if report else [])],
            }
        else:
            payload = {
                "documents": len(store),
                "manifest": report.manifest_status,
                "dataguide": report.dataguide_status,
                "records_applied": report.records_applied,
                "torn_tail_bytes": report.torn_tail_bytes,
                "quarantined": [q.render() for q in report.quarantined],
                "diagnostics": [d.to_dict() for d in report.diagnostics],
            }
        print(dumps(payload, pretty=True))
    else:
        if report is None:
            print(f"{args.directory}: freshly created, nothing to recover")
        else:
            print(report.summary())
        print(f"dataguide paths: {len(store.dataguide().paths())}")
    store.close()
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    fs = OsFileSystem()
    try:
        if is_sharded_store(fs, args.directory):
            diagnostics = fsck_sharded(fs, args.directory)
            segments = []
        else:
            diagnostics = fsck(fs, args.directory)
            segments = imc_segment_status(fs, args.directory)
    except OSError as exc:
        print(f"cannot fsck {args.directory}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"diagnostics": [d.to_dict() for d in diagnostics]}
        if segments:
            payload["imc_segments"] = segments
        print(dumps(payload, pretty=True))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.render())
        for row in segments:
            print(f"imc segment {row['name']} "
                  f"({row['table']}.{row['column']}, "
                  f"{row['length']} bytes): {row['status']}")
        if not diagnostics and not segments:
            print(f"{args.directory}: store clean")
    return 1 if has_errors(diagnostics) else 0


def cmd_compact(args: argparse.Namespace) -> int:
    try:
        store = _open_any(args.directory)
    except StorageError as exc:
        print(f"cannot open {args.directory}: {exc}", file=sys.stderr)
        return 1
    reclaimed = store.compact()
    documents = len(store)
    store.close()
    print(f"{args.directory}: compacted to {documents} live documents, "
          f"reclaimed {reclaimed} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.store",
        description="Open, check and compact durable collection stores.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("open", help="recover a store and print "
                                           "the recovery report")
    cmd.add_argument("directory")
    cmd.add_argument("--no-verify", action="store_true",
                     help="skip per-document OSON verification")
    cmd.set_defaults(func=cmd_open)

    cmd = commands.add_parser("fsck", help="offline integrity check "
                                           "(read-only)")
    cmd.add_argument("directory")
    cmd.set_defaults(func=cmd_fsck)

    cmd = commands.add_parser("compact", help="rewrite live documents "
                                              "into a fresh segment")
    cmd.add_argument("directory")
    cmd.set_defaults(func=cmd_compact)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
