"""Persistent experiment service: result store, campaigns, dashboards.

The :mod:`repro.store` package turns one-shot harness runs into a
durable service around a schema-versioned SQLite database:

* :mod:`repro.store.db` — the ``repro-store-v1`` result store, keyed by
  ``(kind, config_hash, seed, git_rev, cell_key)``;
* :mod:`repro.store.ingest` — adapters for every artifact the harness
  writes (benchmark documents, sweep exports, chaos artifacts, profile
  reports, paper-scale suite results);
* :mod:`repro.store.campaign` — the one matrix runner behind ``repro
  sweep`` and ``repro store campaign``
  (declarative matrix, dedupe by cache key, per-cell transactional
  checkpoints, failures as first-class rows);
* :mod:`repro.store.query` — cross-revision trends, the one regression
  gate and its two-sided drift check;
* :mod:`repro.store.dashboard` — the static HTML trend dashboard.

CLI: ``python -m repro store {ingest,campaign,query,check,dashboard,
export,info}`` (see :mod:`repro.store.cli` and docs/experiments.md).
Import names from the submodules; the package re-exports nothing.
"""
