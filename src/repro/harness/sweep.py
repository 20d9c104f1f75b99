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
from typing import Dict, Optional, Sequence

from repro.config import SystemConfig
from repro.harness import experiments as fig
from repro.store.campaign import CampaignSpec, expand, run_campaign
from repro.store.db import ResultStore, StoreError
from repro.store.ingest import export_sweep
from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS


#: ``--quick``: the 16-core, 4-app smoke sweep.
QUICK_SWEEP = CampaignSpec(name="sweep", apps=("Radix", "LU", "Barnes",
                                               "Canneal"),
                           cores=(16,), chunks=2)


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


def collect(spec: CampaignSpec, store: ResultStore, *, jobs: int = 1,
            log=print, profile: bool = False,
            critical_paths: bool = False) -> Dict[str, dict]:
    """Run ``spec`` into ``store``; return ``{sweep key: record}``.

    Cells already stored are reused, failed ones re-run.  The records
    come back in canonical matrix order.  ``profile`` and
    ``critical_paths`` instrument every fresh cell (see
    :func:`repro.store.campaign.run_campaign`).
    """
    report = run_campaign(spec, store, jobs=jobs, log=log, rerun_failed=True,
                          profile=profile, critical_paths=critical_paths)
    if report.failed:
        raise StoreError(f"{len(report.failed)} sweep cell(s) failed "
                         f"({', '.join(report.failed)}); their tracebacks "
                         f"are stored in {store.path}")
    return export_sweep(store, git_rev=report.git_rev,
                        cell_keys=[c.cell_key for c in expand(spec)])


def render_markdown(records: Dict[str, dict], apps: Sequence[str],
                    core_counts: Sequence[int], chunks: int) -> str:
    """EXPERIMENTS.md's tables: a header, then each figure reduced from
    ``records`` (the :func:`collect` of a spec over ``apps`` x
    ``core_counts``) and
    rendered by :mod:`repro.harness.experiments`."""
    big = max(core_counts)
    suites = (("SPLASH-2", [a for a in apps if a in SPLASH2_APPS]),
              ("PARSEC", [a for a in apps if a in PARSEC_APPS]))
    sections = [f"Sweep parameters: cores={list(core_counts)}, "
                f"chunks/partition={chunks}, "
                f"chunk={SystemConfig().chunk_size_instructions} "
                f"instructions, {len(apps)} applications.\n"]

    def per_suite(first_figno: int, reduce, render) -> None:
        """One figure per suite: SPLASH-2 is ``first_figno``, PARSEC the
        next number."""
        for figno, (suite, suite_apps) in enumerate(suites, first_figno):
            if suite_apps:
                sections.append(render(reduce(records, suite_apps),
                                       str(figno), suite, big))

    per_suite(7, fig.execution_time, fig.render_execution_time)
    per_suite(9, fig.dirs_per_commit, fig.render_dirs_per_commit)
    per_suite(11, fig.dirs_distribution, fig.render_distribution)
    sections.append(fig.render_commit_latency(
        fig.commit_latency(records, apps)))
    per_suite(14, fig.bottleneck_ratio, fig.render_bottleneck_ratio)
    per_suite(16, fig.queue_length, fig.render_queue_length)
    per_suite(18, fig.traffic, fig.render_traffic)
    sections.append(fig.render_squash_rates(
        fig.squash_rates(records, apps), big))
    return "\n".join(sections)


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

    spec = QUICK_SWEEP if args.quick else CampaignSpec(
        name="sweep", apps=tuple(args.apps), cores=tuple(args.cores),
        chunks=args.chunks)
    from repro.harness.parallel import resolve_jobs
    store_path = args.store or args.json.with_suffix(".db")
    try:
        with ResultStore(store_path) as store:
            records = collect(spec, store, jobs=resolve_jobs(args.jobs),
                              profile=args.profile,
                              critical_paths=args.critical_paths)
    except StoreError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    cpaths = {key: rec.pop("critical_path") for key, rec in records.items()
              if "critical_path" in rec}
    args.json.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.json, json.dumps(records))
    md = render_markdown(records, spec.apps, spec.cores, spec.chunks)
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
