"""Shared configuration for the figure-regeneration benchmarks.

Every benchmark regenerates one paper table/figure at a *shape-preserving*
reduced scale (16-core machine, a representative application subset, short
runs) so the whole suite finishes in minutes.  Set ``REPRO_BENCH_FULL=1``
to run at the paper's 32/64-core scale with all applications (slow; this
is the matrix ``python -m repro.harness.sweep`` runs to produce
EXPERIMENTS.md).

The figures share one matrix: the session-scoped ``records`` fixture
runs it once through :func:`repro.harness.sweep.collect` (a store
campaign into a throwaway store, one simulation per distinct cell), and
each test reduces its figure from those records with
:mod:`repro.harness.experiments` and prints the same markdown table
EXPERIMENTS.md carries.
"""

import os

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

#: machine sizes standing in for the paper's 32/64
SMALL_CORES = 16
LARGE_CORES = 64 if FULL else 16
CORE_COUNTS = (32, 64) if FULL else (16,)
CHUNKS = 3 if FULL else 2

#: representative app subsets (full suites under REPRO_BENCH_FULL)
if FULL:
    from repro.workloads.profiles import PARSEC_APPS, SPLASH2_APPS
    SPLASH2_SUBSET = list(SPLASH2_APPS)
    PARSEC_SUBSET = list(PARSEC_APPS)
else:
    SPLASH2_SUBSET = ["Radix", "LU", "Barnes", "Ocean"]
    PARSEC_SUBSET = ["Blackscholes", "Canneal", "Swaptions"]


@pytest.fixture(scope="session")
def records(tmp_path_factory):
    """``{sweep key: record}`` for every suite app x ``CORE_COUNTS`` x all
    four protocols, plus each app's 1p baseline on the largest machine."""
    from repro.harness.sweep import collect
    from repro.store.campaign import CampaignSpec
    from repro.store.db import ResultStore

    spec = CampaignSpec(name="figures",
                        apps=tuple(SPLASH2_SUBSET + PARSEC_SUBSET),
                        cores=CORE_COUNTS, chunks=CHUNKS)
    db = tmp_path_factory.mktemp("figures") / "figures.db"
    with ResultStore(db) as store:
        return collect(spec, store, log=lambda *_: None)


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""
    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return runner
