"""Persistent experiment service: result store, campaigns, dashboards.

The :mod:`repro.store` package turns one-shot harness runs into a
durable service around a schema-versioned SQLite database:

* :mod:`repro.store.db` — the ``repro-store-v1`` result store, keyed by
  ``(kind, config_hash, seed, git_rev, cell_key)``;
* :mod:`repro.store.ingest` — adapters for every artifact the harness
  writes (benchmark documents, sweep exports, chaos artifacts, profile
  reports, paper-scale suite results);
* :mod:`repro.store.campaign` — the one matrix runner behind ``repro
  sweep``, ``repro bench``'s macro tier and ``repro store campaign``
  (declarative matrix, dedupe by cache key, per-cell transactional
  checkpoints, failures as first-class rows);
* :mod:`repro.store.query` — cross-revision trends and the one
  regression gate;
* :mod:`repro.store.dashboard` — the static HTML trend dashboard.

CLI: ``python -m repro store {ingest,campaign,query,check,dashboard,
export,info}`` (see :mod:`repro.store.cli` and docs/experiments.md).
"""

from repro.store.campaign import (CampaignCell, CampaignReport,
                                  CampaignSpec, QUICK_SPEC, expand,
                                  run_campaign)
from repro.store.db import ResultStore, StoreError, StoreSchemaError
from repro.store.ingest import (detect_kind, export_bench, export_sweep,
                                ingest_bench, ingest_chaos_artifact,
                                ingest_path, ingest_perf, ingest_profile,
                                ingest_sweep, sweep_metrics)
from repro.store.query import (Regression, TrendPoint, check_regressions,
                               trend, trends_by_series)
from repro.store.schema import (KIND_BENCH_MACRO, KIND_BENCH_META,
                                KIND_BENCH_MICRO, KIND_CHAOS, KIND_PERF,
                                KIND_PROFILE, KIND_SWEEP, KINDS, Record,
                                SCHEMA, STATUS_FAILED, STATUS_OK)

__all__ = [
    "CampaignCell", "CampaignReport", "CampaignSpec", "QUICK_SPEC",
    "KIND_BENCH_MACRO", "KIND_BENCH_META", "KIND_BENCH_MICRO",
    "KIND_CHAOS", "KIND_PERF", "KIND_PROFILE", "KIND_SWEEP", "KINDS",
    "Record", "Regression", "ResultStore", "SCHEMA", "STATUS_FAILED",
    "STATUS_OK", "StoreError", "StoreSchemaError", "TrendPoint",
    "check_regressions", "detect_kind", "expand", "export_bench",
    "export_sweep", "ingest_bench", "ingest_chaos_artifact", "ingest_path",
    "ingest_perf", "ingest_profile", "ingest_sweep", "run_campaign",
    "sweep_metrics", "trend", "trends_by_series",
]
