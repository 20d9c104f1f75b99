"""``python -m repro trace``: run one app with full instrumentation.

Runs a single application with an :class:`InstrumentationBus` attached,
writes the recording in the requested format, and prints the commit
critical-path breakdown.  Also provides ``--validate-file`` so CI can
schema-check a previously exported Perfetto trace without re-running.

Examples::

    python -m repro trace Radix --cores 4 --chunks 2 -o radix.json
    python -m repro trace Barnes --format jsonl -o barnes.jsonl
    python -m repro trace --validate-file radix.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.obs.bus import InstrumentationBus
from repro.obs.critical_path import analyze_commit_paths
from repro.obs.export import to_csv, to_jsonl, to_perfetto, validate_perfetto

FORMATS = ("perfetto", "jsonl", "csv")


def write_trace(bus: InstrumentationBus, out: str, fmt: str) -> int:
    """Export ``bus`` to ``out``; returns the exported event count."""
    if fmt == "perfetto":
        doc = to_perfetto(bus, out)
        return len(doc["traceEvents"])
    if fmt == "jsonl":
        return to_jsonl(bus, out)
    if fmt == "csv":
        return to_csv(bus, out)
    raise ValueError(f"unknown trace format {fmt!r}")


def _validate_file(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_perfetto(doc)
    if errors:
        for err in errors[:20]:
            print(f"INVALID: {err}", file=sys.stderr)
        print(f"{path}: {len(errors)} schema problems", file=sys.stderr)
        return 1
    n = len(doc.get("traceEvents", []))
    print(f"{path}: OK ({n} trace events)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="run one app with the instrumentation bus attached")
    parser.add_argument("app", nargs="?",
                        help="application profile (see `repro apps`)")
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--protocol", default="scalablebulk")
    parser.add_argument("--chunks", type=int, default=3,
                        help="chunks per partition")
    parser.add_argument("-o", "--out", default="trace.json",
                        help="output path (default trace.json)")
    parser.add_argument("--format", choices=FORMATS, default="perfetto")
    parser.add_argument("--no-messages", action="store_true",
                        help="skip per-message send/recv events "
                             "(smaller traces)")
    parser.add_argument("--paths", type=int, default=10, metavar="N",
                        help="commit attempts to show in the breakdown")
    parser.add_argument("--validate-file", metavar="TRACE",
                        help="schema-check an existing Perfetto trace "
                             "and exit")
    args = parser.parse_args(argv)

    if args.validate_file:
        return _validate_file(args.validate_file)
    if not args.app:
        parser.error("an app is required (or use --validate-file)")

    from repro.config import ProtocolKind
    from repro.harness.runner import run_app

    proto = {p.value.lower(): p for p in ProtocolKind}[args.protocol.lower()]
    bus = InstrumentationBus(record_messages=not args.no_messages)
    result = run_app(args.app, n_cores=args.cores, protocol=proto,
                     chunks_per_partition=args.chunks, instruments=[bus])

    n = write_trace(bus, args.out, args.format)
    print(f"{args.app} on {args.cores} cores ({proto.value}): "
          f"{result.total_cycles:,} cycles, "
          f"{result.chunks_committed} chunks committed")
    print(f"wrote {n} events to {args.out} ({args.format})")
    if args.format == "perfetto":
        print("open in https://ui.perfetto.dev (one track per core "
              "and per directory)")
    print()
    print(analyze_commit_paths(bus).render(limit=args.paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
