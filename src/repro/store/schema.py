"""``repro-store-v1``: the persistent result store's record model.

One row per *result cell* — a sweep matrix cell, a micro benchmark
measurement, a chaos plan verdict, a profile attribution capture, a
paper-scale suite workload result, or a benchmark document header.  Every row is keyed by the cache key

    (kind, config_hash, seed, git_rev, cell_key)

which extends the provenance join key PR 8 introduced
(``config_hash`` + ``git_rev``) with the record kind, the config's
reproducibility seed and a per-document cell discriminator, so

* re-running the same cell at the same revision *replaces* the row
  (idempotent ingest, campaign dedupe), while
* the same cell at a *new* revision adds a row — which is exactly what
  trend extraction and regression gating join across.

``payload`` always holds the complete original record as JSON, so every
ingested document can be re-exported losslessly; ``metrics`` is a flat
JSON object of scalar measurements extracted for querying, and
``series`` is the stable cross-revision identity of the cell (the sweep
key, the micro bench name, the paper-scale workload name) that
trends and the dashboard group by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Schema identity; stored in the DB's ``meta`` table and checked on open.
SCHEMA = "repro-store-v1"

#: The record kinds the v1 schema defines.
KIND_SWEEP = "sweep"              #: one sweep/campaign matrix cell
KIND_BENCH_MICRO = "bench_micro"  #: one micro benchmark measurement
#: Legacy: nothing writes it, but stores that hold its rows must open.
KIND_BENCH_MACRO = "bench_macro"
KIND_BENCH_META = "bench_meta"    #: one BENCH_*.json document header
KIND_CHAOS = "chaos"              #: one chaos plan verdict / artifact
KIND_PROFILE = "profile"          #: one host-profiler attribution report
KIND_PERF = "perf"                #: one paper-scale suite workload result

KINDS = (KIND_SWEEP, KIND_BENCH_MICRO, KIND_BENCH_MACRO, KIND_BENCH_META,
         KIND_CHAOS, KIND_PROFILE, KIND_PERF)

#: Row statuses.  Failed campaign cells are first-class rows (exception +
#: traceback preserved), not aborted campaigns.
STATUS_OK = "ok"
STATUS_FAILED = "failed"

DDL = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS records (
        id          INTEGER PRIMARY KEY,
        kind        TEXT NOT NULL,
        config_hash TEXT NOT NULL DEFAULT '',
        seed        INTEGER NOT NULL DEFAULT 0,
        git_rev     TEXT NOT NULL DEFAULT '',
        cell_key    TEXT NOT NULL,
        series      TEXT NOT NULL DEFAULT '',
        app         TEXT NOT NULL DEFAULT '',
        protocol    TEXT NOT NULL DEFAULT '',
        n_cores     INTEGER NOT NULL DEFAULT 0,
        status      TEXT NOT NULL DEFAULT 'ok',
        metrics     TEXT NOT NULL DEFAULT '{}',
        payload     TEXT NOT NULL DEFAULT '{}',
        error       TEXT NOT NULL DEFAULT '',
        traceback   TEXT NOT NULL DEFAULT '',
        source      TEXT NOT NULL DEFAULT '',
        created_at  TEXT NOT NULL DEFAULT '',
        UNIQUE (kind, config_hash, seed, git_rev, cell_key)
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_records_kind ON records (kind)",
    "CREATE INDEX IF NOT EXISTS idx_records_series ON records (series)",
    "CREATE INDEX IF NOT EXISTS idx_records_rev ON records (git_rev)",
)

@dataclass
class Record:
    """One result row, as the Python API sees it."""

    kind: str
    cell_key: str
    config_hash: str = ""
    seed: int = 0
    git_rev: str = ""
    series: str = ""
    app: str = ""
    protocol: str = ""
    n_cores: int = 0
    status: str = STATUS_OK
    metrics: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    traceback: str = ""
    source: str = ""
    created_at: str = ""
    rowid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown record kind {self.kind!r} "
                             f"(choices: {', '.join(KINDS)})")
        if not self.series:
            self.series = self.cell_key

    def metric(self, name: str) -> Optional[float]:
        value = self.metrics.get(name)
        return float(value) if isinstance(value, (int, float)) else None

    # -- SQLite row mapping --------------------------------------------
    def to_row(self) -> Tuple[Any, ...]:
        return (self.kind, self.config_hash, int(self.seed), self.git_rev,
                self.cell_key, self.series, self.app, self.protocol,
                int(self.n_cores), self.status,
                json.dumps(self.metrics, sort_keys=True),
                json.dumps(self.payload, sort_keys=True),
                self.error, self.traceback, self.source, self.created_at)

    @classmethod
    def from_row(cls, row: Tuple[Any, ...]) -> "Record":
        (rowid, kind, config_hash, seed, git_rev, cell_key, series, app,
         protocol, n_cores, status, metrics, payload, error, traceback,
         source, created_at) = row
        return cls(kind=kind, cell_key=cell_key, config_hash=config_hash,
                   seed=int(seed), git_rev=git_rev, series=series, app=app,
                   protocol=protocol, n_cores=int(n_cores), status=status,
                   metrics=json.loads(metrics), payload=json.loads(payload),
                   error=error, traceback=traceback, source=source,
                   created_at=created_at, rowid=rowid)


ROW_COLUMNS = ("kind", "config_hash", "seed", "git_rev", "cell_key",
               "series", "app", "protocol", "n_cores", "status", "metrics",
               "payload", "error", "traceback", "source", "created_at")

__all__ = ["DDL", "KINDS", "KIND_BENCH_MACRO", "KIND_BENCH_META",
           "KIND_BENCH_MICRO", "KIND_CHAOS", "KIND_PERF", "KIND_PROFILE",
           "KIND_SWEEP", "ROW_COLUMNS", "Record", "SCHEMA", "STATUS_FAILED",
           "STATUS_OK"]
