"""``python -m repro store``: the persistent experiment service CLI.

Subcommands::

    repro store ingest PATH... --store results.db     # adapt artifacts
    repro store campaign SPEC.json --store results.db # resumable matrix
    repro store campaign --quick --store results.db   # builtin CI matrix
    repro store query --store results.db --kind sweep --app Radix
    repro store check --store results.db --kind bench_macro \\
        --metric cycles_per_sec --last 5 --threshold 0.10
    repro store check --store results.db --kind sweep \\
        --metric total_cycles --drift                 # newest two revs
    repro store dashboard --store results.db --out dashboard.html
    repro store export --store results.db --kind sweep --out sweep.json
    repro store info --store results.db               # counts + integrity

Exit codes: ``check`` exits 1 on any regression (with ``--drift``: any
drift) and 2 when it would compare nothing; ``campaign`` exits 1 when
any cell failed; ``info`` exits 1 when the integrity check fails; any
store error exits 2.
See docs/experiments.md for the schema and the campaign spec format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.store.db import ResultStore, StoreError
from repro.store.schema import KINDS


def _open(args: argparse.Namespace, create: bool = True) -> ResultStore:
    return ResultStore(args.store, create=create)


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store.ingest import ingest_path
    with _open(args) as store:
        total = 0
        for path in args.paths:
            kind, n = ingest_path(store, path, git_rev=args.rev)
            total += n
            print(f"ingested {path}: {kind}, {n} row(s)")
        counts = ", ".join(f"{k}={v}" for k, v in store.counts().items())
        print(f"{args.store}: {total} row(s) written ({counts})")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.store.campaign import QUICK_SPEC, CampaignSpec, run_campaign
    if args.quick:
        spec = QUICK_SPEC
    elif args.spec is not None:
        spec = CampaignSpec.load(args.spec)
    else:
        raise SystemExit("campaign needs a SPEC.json (or --quick)")
    from repro.harness.parallel import resolve_jobs
    with _open(args) as store:
        report = run_campaign(spec, store, jobs=resolve_jobs(args.jobs),
                              rerun_failed=args.rerun_failed,
                              ignore_rev=args.ignore_rev)
    # machine-checkable one-liner (the CI resume check greps it)
    print(f"result: total={report.total} ran={len(report.ran)} "
          f"skipped={len(report.skipped)} failed={len(report.failed)}")
    return 1 if report.failed else 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _open(args, create=False) as store:
        rows = store.query(args.kind, app=args.app, protocol=args.protocol,
                           n_cores=args.cores, git_rev=args.rev,
                           series=args.series, status=args.status,
                           limit=args.limit)
        if args.json:
            doc = [{"kind": r.kind, "cell_key": r.cell_key,
                    "series": r.series, "config_hash": r.config_hash,
                    "seed": r.seed, "git_rev": r.git_rev, "app": r.app,
                    "protocol": r.protocol, "n_cores": r.n_cores,
                    "status": r.status, "metrics": r.metrics,
                    "source": r.source, "created_at": r.created_at}
                   for r in rows]
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        for r in rows:
            metric = args.metric and r.metric(args.metric)
            extra = (f" {args.metric}={metric:.6g}" if metric is not None
                     else "")
            print(f"{r.kind:12s} {r.git_rev or '-':10s} {r.status:7s} "
                  f"{r.cell_key}{extra}")
        print(f"{len(rows)} row(s)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.store.query import check_drift, check_regressions
    with _open(args, create=False) as store:
        if args.drift:
            report = check_drift(store, args.kind, args.metric,
                                 threshold=args.threshold)
            print(report.render())
            return 1 if report.drifts else 0
        regressions = check_regressions(
            store, args.kind, args.metric, threshold=args.threshold,
            last=args.last,
            lower_better=True if args.lower_better else None,
            normalize=not args.no_normalize)
        n_revs = len(store.revisions(args.kind))
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} ({args.kind}/{args.metric}, "
              f"last {args.last} revisions):")
        for reg in regressions:
            print(f"  {reg.render()}")
        return 1
    print(f"no {args.kind}/{args.metric} regression beyond "
          f"{args.threshold:.0%} across {min(n_revs, args.last)} of "
          f"{n_revs} stored revision(s)")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.store.dashboard import write_dashboard
    with _open(args, create=False) as store:
        path = write_dashboard(store, args.out, title=args.title)
        counts = sum(store.counts().values())
    text = Path(path).read_text()
    n_charts = text.count("<svg")
    print(f"wrote {path}: {n_charts} chart(s) over {counts} stored "
          f"row(s)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.store.ingest import export_bench, export_sweep
    with _open(args, create=False) as store:
        if args.kind == "sweep":
            doc = export_sweep(store, git_rev=args.rev, source=args.source)
        elif args.kind == "bench":
            doc = export_bench(store, doc_prefix=args.doc)
        else:
            raise SystemExit("export supports --kind sweep|bench")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"exported {args.kind} -> {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with _open(args, create=False) as store:
        meta = store.meta()
        counts = store.counts()
        revs = store.revisions()
        integrity = store.integrity_check()
        failed = len(store.query(status="failed"))
    print(f"{args.store}: schema {meta.get('schema')}, created "
          f"{meta.get('created_at', '?')}")
    for kind in KINDS:
        if kind in counts:
            print(f"  {kind:12s} {counts[kind]:6d} row(s)")
    print(f"  revisions   {len(revs)}: "
          f"{', '.join(r or '<none>' for r in revs) or '-'}")
    print(f"  failed rows {failed}")
    print(f"  integrity   {integrity}")
    return 0 if integrity == "ok" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="persistent experiment service: SQLite result store, "
                    "resumable campaigns, regression gating, dashboard "
                    "(see docs/experiments.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", type=Path, required=True, metavar="DB",
                       help="result store database path")

    p = sub.add_parser("ingest", help="adapt existing result artifacts "
                                      "(BENCH_*.json, sweep exports, chaos "
                                      "artifacts, profile reports, "
                                      "benchmarks/perf results)")
    p.add_argument("paths", nargs="+", metavar="PATH")
    add_store(p)
    p.add_argument("--rev", default=None,
                   help="git revision to stamp on records that carry none "
                        "(default: current checkout)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("campaign", help="run a declarative matrix, "
                                        "deduped and checkpointed")
    p.add_argument("spec", nargs="?", default=None, metavar="SPEC.json")
    add_store(p)
    p.add_argument("--quick", action="store_true",
                   help="builtin smoke matrix (2 apps x 8 cores x all "
                        "four protocols)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores)")
    p.add_argument("--rerun-failed", action="store_true",
                   help="re-run cells whose stored row is failed")
    p.add_argument("--ignore-rev", action="store_true",
                   help="dedupe against any revision, not just HEAD")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("query", help="filter stored rows")
    add_store(p)
    p.add_argument("--kind", default=None, choices=KINDS)
    p.add_argument("--app", default=None)
    p.add_argument("--protocol", default=None)
    p.add_argument("--cores", type=int, default=None)
    p.add_argument("--rev", default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--status", default=None, choices=("ok", "failed"))
    p.add_argument("--metric", default=None,
                   help="also print this metric per row")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit matching rows as JSON")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("check", help="regression gate: newest revision "
                                     "vs the best of the last N")
    add_store(p)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--metric", required=True,
                   help="stored metric name (e.g. cycles_per_sec, "
                        "ops_per_sec, mean_commit_latency, squash_rate)")
    p.add_argument("--last", type=int, default=5, metavar="N",
                   help="revision window (default 5)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="relative slip that fails the gate (default 10%%)")
    p.add_argument("--lower-better", action="store_true",
                   help="force lower-is-better (otherwise inferred from "
                        "the metric name)")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip calibration normalization for bench rows")
    p.add_argument("--drift", action="store_true",
                   help="two-sided instead: any move beyond --threshold "
                        "from the revision before the newest fails")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dashboard", help="export the static HTML trend "
                                         "dashboard")
    add_store(p)
    p.add_argument("--out", type=Path, required=True, metavar="HTML")
    p.add_argument("--title", default=None)
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser("export", help="losslessly re-export an ingested "
                                      "document")
    add_store(p)
    p.add_argument("--kind", required=True, choices=("sweep", "bench"))
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--rev", default=None, help="sweep: filter by revision")
    p.add_argument("--source", default=None,
                   help="sweep: filter by ingest source")
    p.add_argument("--doc", default=None,
                   help="bench: document prefix (date.docid)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("info", help="store summary + integrity check")
    add_store(p)
    p.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StoreError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
