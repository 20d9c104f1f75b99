#!/usr/bin/env python
"""Print the paper's key figures as markdown tables, at demo scale.

Runs a miniature figure matrix (three apps, every protocol, one machine
size) through the same pipeline as EXPERIMENTS.md -- a store campaign
(``repro.harness.sweep.collect``, here into a throwaway store), then the
figure reducers and markdown renderers of ``repro.harness.experiments``
-- and prints Figures 7 (execution breakdown), 9 (directories per
commit) and 13 (commit latency).

Run:  python examples/paper_figures.py [n_cores]
"""

import sys
import tempfile
from pathlib import Path

from repro.harness import experiments as fig
from repro.harness.sweep import collect
from repro.store.campaign import CampaignSpec
from repro.store.db import ResultStore

APPS = ("Radix", "LU", "Barnes")


def main() -> None:
    n_cores = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    spec = CampaignSpec(name="paper-figures", apps=APPS, cores=(n_cores,),
                        chunks=2)
    with tempfile.TemporaryDirectory() as tmp, \
            ResultStore(Path(tmp) / "figures.db") as store:
        records = collect(spec, store, log=lambda *_: None)

    suite = "SPLASH-2 miniature"
    print(fig.render_execution_time(fig.execution_time(records, APPS),
                                    "7", suite, n_cores))
    print(fig.render_dirs_per_commit(fig.dirs_per_commit(records, APPS),
                                     "9", suite, n_cores))
    print(fig.render_commit_latency(fig.commit_latency(records, APPS)))


if __name__ == "__main__":
    main()
