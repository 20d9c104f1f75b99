"""Full experiment sweep: every table and figure, all 18 applications.

Runs each (application, core count, protocol) combination once — plus the
single-processor ScalableBulk baselines — as a :mod:`repro.store.campaign`
into a SQLite result store (the resume store), exports the matrix's
records to JSON, and renders EXPERIMENTS.md-ready markdown.

Usage::

    python -m repro.harness.sweep --cores 32 64 --chunks 3 \
        --json results/sweep.json --markdown results/experiments.md
    python -m repro.harness.sweep --quick     # 16-core smoke sweep
    python -m repro.harness.sweep --quick --jobs 4   # process-pool fan-out

A cell already stored at the current revision under the same cell key
(app, cores, protocol, chunks, seed) is not re-run, so an interrupted
sweep resumes and a repeat sweep runs nothing; changing ``--chunks``
re-runs every cell.  The JSON file is an export, never read back.
``--jobs N`` fans the pending cells out over N worker processes
(:mod:`repro.harness.parallel`); the export is in canonical matrix order
either way, identical modulo per-run wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import ProtocolKind, SystemConfig
from repro.harness.tables import TRAFFIC_ORDER, normalize_traffic
from repro.store.campaign import CampaignSpec, expand, key_of, run_campaign
from repro.store.db import ResultStore, StoreError
from repro.store.ingest import export_sweep
from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS

PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC, ProtocolKind.SEQ,
             ProtocolKind.BULKSC)


def atomic_write_text(path: Path, text: str) -> None:
    """Durable single-file write: temp file + ``os.replace``.

    The temp file lives in the target's own directory so the final
    rename never crosses a filesystem boundary; a crash between write
    and replace leaves the previous file untouched.
    """
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def collect(apps: Sequence[str], core_counts: Sequence[int], chunks: int,
            store: ResultStore, *, jobs: int = 1, log=print,
            profile: bool = False,
            critical_paths: bool = False) -> Dict[str, dict]:
    """Run the matrix into ``store``; return ``{sweep key: record}``.

    Cells already stored are reused, failed ones re-run.  The records
    come back in canonical matrix order.  ``profile`` and
    ``critical_paths`` instrument every fresh cell (see
    :func:`repro.store.campaign.run_campaign`).
    """
    spec = CampaignSpec(name="sweep", apps=tuple(apps),
                        cores=tuple(core_counts), chunks=chunks)
    report = run_campaign(spec, store, jobs=jobs, log=log, rerun_failed=True,
                          profile=profile, critical_paths=critical_paths)
    if report.failed:
        raise StoreError(f"{len(report.failed)} sweep cell(s) failed "
                         f"({', '.join(report.failed)}); their tracebacks "
                         f"are stored in {store.path}")
    return export_sweep(store, git_rev=report.git_rev,
                        cell_keys=[c.cell_key for c in expand(spec)])


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _norm(rec: dict, base: dict) -> dict:
    """Per-bar normalized breakdown (Figs. 7/8)."""
    total = max(1, rec["useful"] + rec["miss"] + rec["commit"] + rec["squash"])
    norm_time = rec["total_cycles"] / max(1, base["total_cycles"])
    return {
        "norm": norm_time,
        "speedup": base["total_cycles"] / max(1, rec["total_cycles"]),
        "useful": norm_time * rec["useful"] / total,
        "miss": norm_time * rec["miss"] / total,
        "commit": norm_time * rec["commit"] / total,
        "squash": norm_time * rec["squash"] / total,
    }


def render_markdown(records: Dict[str, dict], apps: Sequence[str],
                    core_counts: Sequence[int], chunks: int) -> str:
    big = max(core_counts)
    lines: List[str] = []
    w = lines.append

    def rec(app, n, proto):
        return records[key_of(app, n, proto, n)]

    def base(app):
        return records[key_of(app, big, "baseline1p", 1)]

    splash = [a for a in apps if a in SPLASH2_APPS]
    parsec = [a for a in apps if a in PARSEC_APPS]

    w(f"Sweep parameters: cores={list(core_counts)}, "
      f"chunks/partition={chunks}, "
      f"chunk={SystemConfig().chunk_size_instructions} instructions, "
      f"{len(apps)} applications.\n")

    # Figures 7/8 ------------------------------------------------------
    for figno, suite, suite_apps in (("7", "SPLASH-2", splash),
                                     ("8", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — {suite} execution time "
          f"(normalized to 1p ScalableBulk)\n")
        w("| app | cores | protocol | norm. time | speedup | useful | "
          "miss | commit | squash |")
        w("|---|---|---|---|---|---|---|---|---|")
        for app in suite_apps:
            for n in core_counts:
                for proto in PROTOCOLS:
                    r = rec(app, n, proto.value)
                    nb = _norm(r, base(app))
                    w(f"| {app} | {n} | {proto.value} | {nb['norm']:.4f} | "
                      f"{nb['speedup']:.1f} | {nb['useful']:.4f} | "
                      f"{nb['miss']:.4f} | {nb['commit']:.4f} | "
                      f"{nb['squash']:.4f} |")
        w("")
        for n in core_counts:
            for proto in PROTOCOLS:
                speedups = [_norm(rec(a, n, proto.value), base(a))["speedup"]
                            for a in suite_apps]
                avg = sum(speedups) / len(speedups)
                w(f"* AVERAGE speedup, {proto.value} @ {n}p: **{avg:.1f}**")
        w("")

    # Figures 9/10 ------------------------------------------------------
    for figno, suite, suite_apps in (("9", "SPLASH-2", splash),
                                     ("10", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — directories per chunk commit ({suite})\n")
        w("| app | cores | dirs/commit | write group | read-only group |")
        w("|---|---|---|---|---|")
        for app in suite_apps:
            for n in core_counts:
                r = rec(app, n, ProtocolKind.SCALABLEBULK.value)
                w(f"| {app} | {n} | {r['mean_dirs']:.2f} | "
                  f"{r['mean_write_dirs']:.2f} | "
                  f"{r['mean_dirs'] - r['mean_write_dirs']:.2f} |")
        w("")

    # Figures 11/12 -----------------------------------------------------
    for figno, suite, suite_apps in (("11", "SPLASH-2", splash),
                                     ("12", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — distribution of dirs/commit "
          f"({suite}, {big}p, % of commits)\n")
        cols = list(range(15)) + ["more"]
        w("| app | " + " | ".join(str(c) for c in cols) + " |")
        w("|---|" + "---|" * len(cols))
        for app in suite_apps:
            hist = rec(app, big, ProtocolKind.SCALABLEBULK.value)["dirs_hist"]
            n_total = sum(hist.values()) or 1
            pct = {}
            more = 0.0
            for k, v in hist.items():
                ki = int(k)
                if ki <= 14:
                    pct[ki] = pct.get(ki, 0) + 100 * v / n_total
                else:
                    more += 100 * v / n_total
            row = " | ".join(f"{pct.get(c, 0):.0f}" for c in range(15))
            w(f"| {app} | {row} | {more:.0f} |")
        w("")

    # Figure 13 ----------------------------------------------------------
    w(f"### Figure 13 — commit latency ({big}p, mean cycles over all apps)\n")
    w("| protocol | measured mean | paper mean (64p) |")
    w("|---|---|---|")
    paper_means = {"ScalableBulk": 91, "TCC": 411, "SEQ": 153,
                   "BulkSC": 2954}
    for proto in PROTOCOLS:
        lats, count = 0.0, 0
        for app in apps:
            hist = rec(app, big, proto.value)["latency_hist"]
            for k, v in hist.items():
                lats += int(k) * v
                count += v
        mean = lats / count if count else 0.0
        w(f"| {proto.value} | {mean:.0f} | {paper_means[proto.value]} |")
    w("")
    if len(core_counts) > 1:
        small = min(core_counts)
        w(f"At {small}p, measured means: " + ", ".join(
            f"{proto.value}="
            f"{_mean_latency(records, apps, small, proto.value):.0f}"
            for proto in PROTOCOLS)
          + " (paper at 32p: ScalableBulk=74, TCC=402, SEQ=107, BulkSC=98)\n")

    # Figures 14/15 -------------------------------------------------------
    for figno, suite, suite_apps in (("14", "SPLASH-2", splash),
                                     ("15", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — bottleneck ratio ({suite}, {big}p)\n")
        w("| app | ScalableBulk | TCC | SEQ |")
        w("|---|---|---|---|")
        for app in suite_apps:
            vals = [rec(app, big, p.value)["bottleneck_ratio"]
                    for p in (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC,
                              ProtocolKind.SEQ)]
            w(f"| {app} | " + " | ".join(f"{v:.2f}" for v in vals) + " |")
        w("")

    # Figures 16/17 -------------------------------------------------------
    for figno, suite, suite_apps in (("16", "SPLASH-2", splash),
                                     ("17", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — chunk queue length ({suite}, {big}p)\n")
        w("| app | TCC | SEQ | ScalableBulk |")
        w("|---|---|---|---|")
        for app in suite_apps:
            vals = [rec(app, big, p.value)["mean_queue"]
                    for p in (ProtocolKind.TCC, ProtocolKind.SEQ,
                              ProtocolKind.SCALABLEBULK)]
            w(f"| {app} | " + " | ".join(f"{v:.2f}" for v in vals) + " |")
        w("")

    # Figures 18/19 --------------------------------------------------------
    for figno, suite, suite_apps in (("18", "SPLASH-2", splash),
                                     ("19", "PARSEC", parsec)):
        if not suite_apps:
            continue
        w(f"### Figure {figno} — message mix ({suite}, {big}p, % of TCC "
          f"total)\n")
        w("| app | protocol | " + " | ".join(TRAFFIC_ORDER) + " | total |")
        w("|---|---|" + "---|" * (len(TRAFFIC_ORDER) + 1))
        for app in suite_apps:
            per_proto = {p: rec(app, big, p.value)["traffic"]
                         for p in PROTOCOLS}
            norm = normalize_traffic(per_proto)
            for proto in PROTOCOLS:
                mix = norm[proto]
                total = sum(mix.values())
                row = " | ".join(f"{mix[k]:.1f}" for k in TRAFFIC_ORDER)
                w(f"| {app} | {proto.value} | {row} | {total:.1f} |")
        w("")

    # Squash summary (Section 6.1 numbers) ---------------------------------
    w(f"### Squash rates (ScalableBulk, {big}p; paper: 1.5% conflicts + "
      f"2.3% aliasing)\n")
    total_chunks = total_conf = total_alias = 0
    for app in apps:
        r = rec(app, big, ProtocolKind.SCALABLEBULK.value)
        total_chunks += r["chunks_committed"]
        total_conf += r["squashes_conflict"]
        total_alias += r["squashes_alias"]
    w(f"* conflicts: {100 * total_conf / max(1, total_chunks):.1f}% of "
      f"chunks; aliasing: {100 * total_alias / max(1, total_chunks):.1f}%\n")

    return "\n".join(lines)


def _mean_latency(records, apps, n, proto) -> float:
    lats = count = 0
    for app in apps:
        hist = records[key_of(app, n, proto, n)]["latency_hist"]
        for k, v in hist.items():
            lats += int(k) * v
            count += v
    return lats / count if count else 0.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cores", type=int, nargs="+", default=[32, 64])
    parser.add_argument("--chunks", type=int, default=3)
    parser.add_argument("--apps", nargs="+",
                        default=list(SPLASH2_APPS) + list(PARSEC_APPS))
    parser.add_argument("--json", type=Path,
                        default=Path("results/sweep.json"))
    parser.add_argument("--markdown", type=Path,
                        default=Path("results/experiments.md"))
    parser.add_argument("--quick", action="store_true",
                        help="16-core, 4-app smoke sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the matrix (0 = all "
                             "cores); the export is in canonical order "
                             "either way")
    parser.add_argument("--critical-paths", action="store_true",
                        help="instrument every fresh run and write "
                             "per-config commit critical-path summaries "
                             "next to the JSON export (critical_paths.json)")
    parser.add_argument("--profile", action="store_true",
                        help="attach the host-time self-profiler to every "
                             "fresh run and embed its attribution report "
                             "in its record")
    parser.add_argument("--store", type=Path, default=None, metavar="DB",
                        help="SQLite result store the sweep runs into and "
                             "resumes from (default: the --json path with "
                             "a .db suffix, results/sweep.db)")
    args = parser.parse_args(argv)

    if args.quick:
        args.cores = [16]
        args.apps = ["Radix", "LU", "Barnes", "Canneal"]
        args.chunks = 2

    from repro.harness.parallel import resolve_jobs
    store_path = args.store or args.json.with_suffix(".db")
    try:
        with ResultStore(store_path) as store:
            records = collect(args.apps, args.cores, args.chunks, store,
                              jobs=resolve_jobs(args.jobs),
                              profile=args.profile,
                              critical_paths=args.critical_paths)
    except StoreError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    cpaths = {key: rec.pop("critical_path") for key, rec in records.items()
              if "critical_path" in rec}
    args.json.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.json, json.dumps(records))
    md = render_markdown(records, args.apps, args.cores, args.chunks)
    args.markdown.parent.mkdir(parents=True, exist_ok=True)
    args.markdown.write_text(md)
    print(f"\nwrote {args.markdown} ({len(md.splitlines())} lines), "
          f"raw records in {args.json} (store {store_path})")
    if args.critical_paths:
        cp_path = args.json.parent / "critical_paths.json"
        atomic_write_text(cp_path,
                          json.dumps(cpaths, indent=2, sort_keys=True))
        print(f"critical-path summaries in {cp_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
