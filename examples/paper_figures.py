#!/usr/bin/env python
"""Render the paper's key figures as terminal charts, at demo scale.

Runs a miniature figure matrix (three apps, every protocol, one machine
size) through the same pipeline as EXPERIMENTS.md -- a store campaign
(``repro.harness.sweep.collect``, here into a throwaway store), then the
figure reducers of ``repro.harness.experiments`` -- and draws Figures 7
(execution breakdown), 9 (directories per commit) and 13 (commit
latency) with the ASCII chart renderers; no plotting libraries required.

Run:  python examples/paper_figures.py [n_cores]
"""

import sys
import tempfile
from pathlib import Path

from repro.config import ProtocolKind
from repro.harness.ascii_plots import (
    breakdown_chart, distribution_plot, grouped_bars, hbar_chart,
)
from repro.harness.experiments import (
    commit_latency, dirs_per_commit, execution_time, latency_buckets,
    latency_percentile, mean_latency,
)
from repro.harness.sweep import collect
from repro.store.db import ResultStore

APPS = ["Radix", "LU", "Barnes"]
PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.SEQ)


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    with tempfile.TemporaryDirectory() as tmp, \
            ResultStore(Path(tmp) / "figures.db") as store:
        records = collect(APPS, [n_cores], 2, store, log=lambda *_: None)

    print(f"=== Figure 7 (miniature): execution-time breakdown, "
          f"{n_cores} cores ===\n")
    fig = execution_time(records, APPS)
    print(breakdown_chart([b for b in fig.bars if b.protocol in PROTOCOLS],
                          width=46))
    print()

    print("=== Figure 9 (miniature): directories per chunk commit ===\n")
    rows = dirs_per_commit(records, APPS)
    print(grouped_bars(
        [r.app for r in rows],
        {"write group": [r.mean_write_dirs for r in rows],
         "read group": [r.mean_read_only_dirs for r in rows]},
        width=36))
    print()

    print("=== Figure 13 (miniature): commit latency ===\n")
    pooled = commit_latency(records, APPS)[n_cores]
    print(hbar_chart({p.value: mean_latency(c) for p, c in pooled.items()},
                     width=46, title="mean", unit=" cy"))
    print()
    print(hbar_chart({p.value: latency_percentile(c, 90)
                      for p, c in pooled.items()},
                     width=46, title="90th percentile", unit=" cy"))
    print()
    sb = pooled[ProtocolKind.SCALABLEBULK]
    n = sum(sb.values()) or 1
    print(distribution_plot(
        {f"{lo}+": 100.0 * c / n for lo, c in latency_buckets(sb, 50, 8)},
        width=40, title="ScalableBulk latency distribution (cycles)"))


if __name__ == "__main__":
    main()
