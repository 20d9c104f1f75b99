"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate one application under one protocol and print stats
compare    run all four protocols on one application side by side
apps       list the modelled applications and their key parameters
sweep      full experiment matrix (delegates to repro.harness.sweep)
lint       protocol linter + determinism static analysis (repro.analysis)
explore    schedule-exploration model checker (repro.analysis.explore)
trace      instrumented run: Perfetto/JSONL/CSV export + critical path
bench      micro performance benchmarks (repro.harness.bench)
chaos      deterministic fault-injection campaigns (repro.faults)
profile    host-time self-profiler: where the cycles/sec go (repro.obs.profile)
store      persistent experiment service: result store, campaigns, dashboard
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.config import ProtocolKind, SystemConfig
from repro.harness.runner import run_app
from repro.workloads.profiles import APP_PROFILES, PARSEC_APPS, SPLASH2_APPS

PROTO_BY_NAME = {p.value.lower(): p for p in ProtocolKind}


def _dump_trace(bus, out: str) -> None:
    from repro.obs.critical_path import analyze_commit_paths
    from repro.obs.export import to_perfetto

    doc = to_perfetto(bus, out)
    print(f"  trace: {len(doc['traceEvents'])} events -> {out} "
          f"(open in ui.perfetto.dev)")
    print(analyze_commit_paths(bus).render(limit=5))


def _cmd_run(args) -> int:
    from repro.obs.bus import InstrumentationBus
    from repro.validation.oracle import InvalidationOracle

    bus = InstrumentationBus() if args.trace else None
    oracle = InvalidationOracle() if args.oracle else None
    profiler = None
    if args.profile or args.metrics_interval:
        from repro.obs.profile import make_profiler
        config = SystemConfig(n_cores=args.cores,
                              protocol=PROTO_BY_NAME[args.protocol.lower()])
        profiler = make_profiler(config,
                                 metrics_interval=args.metrics_interval,
                                 metrics_out=args.metrics_out)
    result = run_app(args.app, n_cores=args.cores,
                     protocol=PROTO_BY_NAME[args.protocol.lower()],
                     chunks_per_partition=args.chunks,
                     instruments=[i for i in (bus, profiler, oracle)
                                  if i is not None])
    print(f"{args.app} on {args.cores} cores "
          f"({result.protocol.value}): {result.total_cycles:,} cycles, "
          f"{result.chunks_committed} chunks")
    for cat, frac in result.breakdown_fractions().items():
        print(f"  {cat:10s} {frac * 100:5.1f}%")
    print(f"  commit latency {result.mean_commit_latency:.1f} cy | "
          f"dirs/commit {result.mean_dirs_per_commit:.2f} | "
          f"squashes {result.squashes_conflict}+{result.squashes_alias}")
    if profiler is not None:
        print()
        print(profiler.report().render())
        if profiler.stream is not None and args.metrics_out:
            print(f"  metrics: {profiler.stream.snapshots_written} snapshots "
                  f"-> {args.metrics_out}")
    if bus is not None:
        _dump_trace(bus, args.trace)
    return 0


def _trace_out_for(trace: str, proto: ProtocolKind) -> str:
    """One trace file per protocol: base.ext -> base.<proto>.ext."""
    root, dot, ext = trace.rpartition(".")
    return (f"{root}.{proto.value.lower()}.{ext}" if dot
            else f"{trace}.{proto.value.lower()}")


def _cmd_compare(args) -> int:
    from repro.harness.parallel import (resolve_jobs, run_ordered,
                                        run_protocol_record)
    payloads = [{
        "app": args.app,
        "n_cores": args.cores,
        "protocol": proto.value,
        "chunks": args.chunks,
        "oracle": args.oracle and proto is ProtocolKind.SCALABLEBULK,
        "trace_out": _trace_out_for(args.trace, proto) if args.trace else None,
    } for proto in ProtocolKind]
    print(f"{args.app} on {args.cores} cores:")
    print(f"{'protocol':14s} {'cycles':>10s} {'commit lat':>10s} "
          f"{'commit%':>8s} {'queue':>6s}")

    def show(_i, _payload, r) -> None:
        print(f"{r['protocol']:14s} {r['total_cycles']:10,d} "
              f"{r['mean_commit_latency']:10.1f} "
              f"{r['commit_frac'] * 100:7.1f}% {r['mean_queue_length']:6.2f}")
        if r.get("trace_out"):
            print(f"    trace: {r['trace_events']} events -> "
                  f"{r['trace_out']}")

    # With --jobs the four protocol runs execute concurrently; rows are
    # still printed in ProtocolKind order because run_ordered hands
    # results over in submission order.
    run_ordered(run_protocol_record, payloads, jobs=resolve_jobs(args.jobs),
                on_result=show)
    return 0


def _cmd_apps(_args) -> int:
    print(f"{'app':14s} {'suite':8s} {'pattern':10s} {'shared%':>7s} "
          f"{'pages/chunk':>11s} {'lines':>6s}")
    for name in list(SPLASH2_APPS) + list(PARSEC_APPS):
        p = APP_PROFILES[name]
        lo, hi = p.shared_pages_per_chunk
        print(f"{name:14s} {p.suite:8s} {p.sharing_pattern:10s} "
              f"{p.shared_frac * 100:6.0f}% {f'{lo}-{hi}':>11s} "
              f"{p.lines_per_chunk:6d}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        # delegate untouched so all of sweep's own flags work
        from repro.harness import sweep
        return sweep.main(argv[1:])
    if argv and argv[0] == "lint":
        # delegate untouched so all of lint's own flags work
        from repro.analysis import cli as lint_cli
        return lint_cli.main(argv[1:])
    if argv and argv[0] == "explore":
        # delegate untouched so all of explore's own flags work
        from repro.analysis.explore import cli as explore_cli
        return explore_cli.main(argv[1:])
    if argv and argv[0] == "trace":
        # delegate untouched so all of trace's own flags work
        from repro.obs import cli as trace_cli
        return trace_cli.main(argv[1:])
    if argv and argv[0] == "bench":
        # delegate untouched so all of bench's own flags work
        from repro.harness import bench
        return bench.main(argv[1:])
    if argv and argv[0] == "chaos":
        # delegate untouched so all of chaos's own flags work
        from repro.faults import cli as chaos_cli
        return chaos_cli.main(argv[1:])
    if argv and argv[0] == "profile":
        # delegate untouched so all of profile's own flags work
        from repro.obs import profile as profile_cli
        return profile_cli.main(argv[1:])
    if argv and argv[0] == "store":
        # delegate untouched so all of store's own flags work
        from repro.store import cli as store_cli
        return store_cli.main(argv[1:])

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one application")
    p_run.add_argument("app")
    p_run.add_argument("--cores", type=int, default=16)
    p_run.add_argument("--protocol", default="scalablebulk",
                       choices=sorted(PROTO_BY_NAME))
    p_run.add_argument("--chunks", type=int, default=3)
    p_run.add_argument("--oracle", action="store_true",
                       help="attach the invalidation oracle and fail the "
                            "run on any missed conflicting chunk "
                            "(ScalableBulk only)")
    p_run.add_argument("--trace", metavar="OUT",
                       help="record an instrumentation trace and write it "
                            "as Perfetto JSON to OUT")
    p_run.add_argument("--profile", action="store_true",
                       help="attach the host-time self-profiler and print "
                            "the per-subsystem attribution report")
    p_run.add_argument("--metrics-interval", type=int, metavar="CYCLES",
                       help="stream bounded metrics snapshots every CYCLES "
                            "simulated cycles (implies --profile)")
    p_run.add_argument("--metrics-out", metavar="PATH",
                       help="JSONL destination for --metrics-interval "
                            "snapshots")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="all four protocols side by side")
    p_cmp.add_argument("app")
    p_cmp.add_argument("--cores", type=int, default=16)
    p_cmp.add_argument("--chunks", type=int, default=3)
    p_cmp.add_argument("--oracle", action="store_true",
                       help="attach the invalidation oracle to the "
                            "ScalableBulk run (the only protocol it checks)")
    p_cmp.add_argument("--trace", metavar="OUT",
                       help="write one Perfetto trace per protocol "
                            "(OUT gets a .<protocol> suffix)")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="run the four protocols on N worker processes "
                            "(0 = all cores); output order is unchanged")
    p_cmp.set_defaults(func=_cmd_compare)

    p_apps = sub.add_parser("apps", help="list modelled applications")
    p_apps.set_defaults(func=_cmd_apps)

    sub.add_parser("sweep", help="full experiment matrix "
                                 "(see python -m repro.harness.sweep -h)")
    sub.add_parser("lint", help="protocol linter + determinism analysis "
                                "(see python -m repro lint -h)")
    sub.add_parser("explore", help="schedule-exploration model checker "
                                   "(see python -m repro explore -h)")
    sub.add_parser("trace", help="instrumented run with Perfetto export "
                                 "(see python -m repro trace -h)")
    sub.add_parser("bench", help="micro performance benchmarks "
                                 "(see python -m repro bench -h)")
    sub.add_parser("chaos", help="deterministic fault-injection campaigns "
                                 "(see python -m repro chaos -h)")
    sub.add_parser("profile", help="host-time self-profiler "
                                   "(see python -m repro profile -h)")
    sub.add_parser("store", help="persistent experiment service "
                                 "(see python -m repro store -h)")

    args = parser.parse_args(argv)
    if (args.command == "run" and args.oracle
            and PROTO_BY_NAME[args.protocol.lower()]
            is not ProtocolKind.SCALABLEBULK):
        p_run.error("--oracle checks ScalableBulk group confirmations; "
                    f"protocol {args.protocol!r} has none")
    if (args.command == "run" and args.metrics_out
            and not args.metrics_interval):
        p_run.error("--metrics-out needs --metrics-interval (no snapshot "
                    "is taken without one)")
    return args.func(args)


if __name__ == "__main__":
    try:
        rc = main()
    except BrokenPipeError:
        # the consumer closed the pipe early (e.g. ``... | head``); detach
        # stdout so the interpreter shutdown does not print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 0
    sys.exit(rc)
