"""Ingestion adapters: existing result documents -> store rows.

Adapters exist for every artifact the harness already writes:

* ``BENCH_*.json`` (``repro-bench-v1``) — one ``bench_meta`` header row
  plus one row per micro measurement;
* sweep documents (``results/sweep.json``, the sweep's export) — one
  ``sweep`` row per matrix cell;
* chaos failure artifacts (``repro chaos --artifacts``) — one ``chaos``
  row per artifact;
* host-profiler reports (``repro profile --json``) — one ``profile`` row;
* paper-scale suite results (``benchmarks/perf/run.py --out``) — one
  ``perf`` row per workload.

Every adapter stores the complete original record in ``payload``, so the
matching ``export_*`` function reconstructs the source document exactly
(asserted byte-identical, modulo key order, by the round-trip tests).
Ingest is idempotent: re-reading the same file replaces the same rows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.store.db import ResultStore, StoreError
from repro.store.schema import (KIND_BENCH_META, KIND_BENCH_MICRO,
                                KIND_CHAOS, KIND_PERF, KIND_PROFILE,
                                KIND_SWEEP, Record, STATUS_FAILED, STATUS_OK)

PathLike = Union[str, Path]


def _stamp(git_rev: Optional[str]) -> str:
    """``git_rev``, or the current checkout's revision when ``None``."""
    from repro.provenance import git_rev as current_rev
    return (current_rev() or "") if git_rev is None else git_rev


def _doc_id(doc: Any) -> str:
    """Content fingerprint that namespaces one document's cell rows, so
    two documents from the same day and revision never collide."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]


# ----------------------------------------------------------------------
# Benchmark documents (repro-bench-v1)
# ----------------------------------------------------------------------
def _scalars(rec: Dict[str, Any], fields: Sequence[str]) -> Dict[str, Any]:
    """The numeric ``fields`` of ``rec``."""
    return {f: rec[f] for f in fields if isinstance(rec.get(f), (int, float))}


def ingest_bench(store: ResultStore, doc: Dict[str, Any],
                 source: str = "") -> List[Record]:
    """One ``repro-bench-v1`` document -> meta + micro rows.

    Every key but ``micro`` rides in the header's payload, so a legacy
    document's ``macro`` section re-exports unchanged.
    """
    rev = doc.get("git_rev") or ""
    cal = doc.get("calibration_ops_per_sec")
    prefix = f"{doc.get('date', '')}.{_doc_id(doc)}"
    records: List[Record] = []

    header = {k: v for k, v in doc.items() if k != "micro"}
    records.append(Record(
        kind=KIND_BENCH_META, cell_key=prefix, series="bench_doc",
        git_rev=rev, payload=header, source=source,
        metrics=_scalars(doc, ("calibration_ops_per_sec",))))

    for name, rec in doc.get("micro", {}).items():
        metrics = _scalars(rec, ("ops", "seconds", "ops_per_sec"))
        if isinstance(cal, (int, float)):
            metrics["calibration"] = cal
        records.append(Record(
            kind=KIND_BENCH_MICRO, cell_key=f"{prefix}/{name}",
            series=name, git_rev=rev, metrics=metrics, payload=rec,
            source=source))

    store.put_many(records)
    return records


def export_bench(store: ResultStore,
                 doc_prefix: Optional[str] = None) -> Dict[str, Any]:
    """Reassemble one ingested benchmark document from its rows.

    ``doc_prefix`` selects the document (the ``date.docid`` cell-key
    prefix of its ``bench_meta`` row); by default the most recently
    ingested one is exported.
    """
    metas = store.query(KIND_BENCH_META)
    if doc_prefix is not None:
        metas = [m for m in metas if m.cell_key == doc_prefix]
    if not metas:
        raise StoreError("no benchmark document found in the store")
    meta = metas[-1]
    doc = dict(meta.payload)
    prefix = meta.cell_key + "/"
    doc["micro"] = {
        r.cell_key[len(prefix):]: r.payload
        for r in store.query(KIND_BENCH_MICRO)
        if r.cell_key.startswith(prefix)}
    return doc


# ----------------------------------------------------------------------
# Sweep documents
# ----------------------------------------------------------------------
def sweep_metrics(rec: Dict[str, Any]) -> Dict[str, Any]:
    """The scalar metrics a sweep cell exposes to queries and trends."""
    wall = rec.get("wall_seconds_raw", rec.get("wall_seconds", 0)) or 0
    chunks = rec.get("chunks_committed", 0) or 0
    squashes = (rec.get("squashes_conflict", 0) or 0) \
        + (rec.get("squashes_alias", 0) or 0)
    metrics = _scalars(rec, ("total_cycles", "mean_commit_latency",
                             "mean_dirs", "chunks_committed", "mean_queue",
                             "bottleneck_ratio", "squashes_conflict"))
    if wall > 0 and isinstance(rec.get("total_cycles"), (int, float)):
        metrics["cycles_per_sec"] = rec["total_cycles"] / wall
    metrics["squash_rate"] = squashes / chunks if chunks else 0.0
    return metrics


def ingest_sweep(store: ResultStore, records: Dict[str, Dict[str, Any]],
                 source: str = "",
                 git_rev: Optional[str] = None) -> List[Record]:
    """A sweep document (``{sweep key: record}``) -> one ``sweep`` row each.

    ``git_rev`` stamps rows whose records predate per-record provenance;
    it defaults to the current checkout's revision (best effort).
    """
    git_rev = _stamp(git_rev)
    out: List[Record] = []
    for key, rec in records.items():
        parts = key.split("/")
        app = parts[0] if parts else ""
        n_cores = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
        protocol = parts[2] if len(parts) > 2 else ""
        out.append(Record(
            kind=KIND_SWEEP, cell_key=key, series=key,
            config_hash=str(rec.get("config_hash", "")),
            seed=int(rec.get("seed", 0)), git_rev=git_rev,
            app=app, protocol=str(rec.get("protocol", protocol)),
            n_cores=n_cores, metrics=sweep_metrics(rec), payload=rec,
            source=source))
    store.put_many(out)
    return out


def export_sweep(store: ResultStore, git_rev: Optional[str] = None,
                 source: Optional[str] = None,
                 cell_keys: Optional[Sequence[str]] = None
                 ) -> Dict[str, Dict[str, Any]]:
    """Reassemble a sweep document ``{series: record}`` from ok ``sweep``
    rows (lossless for an ingested sweep file).

    ``cell_keys`` selects exactly those cells, in that order (a
    campaign's expansion); a missing one raises :class:`StoreError`.
    The document is keyed by ``series`` (``App/N/Proto/Active``), so the
    selected rows must hold each series once: two seeds, chunk counts or
    revisions of one cell raise :class:`StoreError` naming it instead of
    letting the last row win.
    """
    rows = store.query(KIND_SWEEP, git_rev=git_rev, source=source,
                       status=STATUS_OK)
    if cell_keys is not None:
        by_cell = {r.cell_key: r for r in rows}
        missing = [k for k in cell_keys if k not in by_cell]
        if missing:
            raise StoreError(f"no ok sweep row for cell(s) "
                             f"{', '.join(missing)}")
        rows = [by_cell[k] for k in cell_keys]
    by_series: Dict[str, Record] = {}
    for row in rows:
        prev = by_series.setdefault(row.series, row)
        if prev is not row:
            raise StoreError(
                f"sweep series {row.series} is selected twice: cell "
                f"{prev.cell_key} at rev {prev.git_rev or '<none>'} and "
                f"cell {row.cell_key} at rev {row.git_rev or '<none>'}")
    return {series: row.payload for series, row in by_series.items()}


# ----------------------------------------------------------------------
# Chaos artifacts
# ----------------------------------------------------------------------
def ingest_chaos_artifact(store: ResultStore, doc: Dict[str, Any],
                          source: str = "") -> List[Record]:
    """One replayable chaos failure artifact -> one ``chaos`` row."""
    scenario = doc.get("scenario", {}) or {}
    plan = doc.get("plan", {}) or {}
    stats = doc.get("stats", {}) or {}
    violations = doc.get("violations", []) or []
    fires = doc.get("watchdog_fires", []) or []
    name = f"{scenario.get('name', 'scenario')}/{plan.get('name', 'plan')}"
    record = Record(
        kind=KIND_CHAOS, cell_key=name, series=name,
        seed=int(plan.get("seed", 0)), git_rev=_stamp(None),
        protocol=str(scenario.get("protocol", "")),
        n_cores=int(scenario.get("n_cores", 0) or 0),
        status=STATUS_FAILED if violations or fires else STATUS_OK,
        metrics={"cycles": stats.get("cycles", 0),
                 "commits": stats.get("commits", 0),
                 "violations": len(violations),
                 "watchdog_fires": len(fires),
                 "n_faults": len(plan.get("faults", ()) or ())},
        payload=doc, source=source,
        error="/".join(sorted({str(v.get("code", "?")) for v in violations}
                              | ({"watchdog"} if fires else set()))))
    store.put(record)
    return [record]


# ----------------------------------------------------------------------
# Profile reports
# ----------------------------------------------------------------------
def ingest_profile(store: ResultStore, doc: Dict[str, Any],
                   source: str = "") -> List[Record]:
    """One host-profiler attribution report -> one ``profile`` row."""
    shares = doc.get("shares", {}) or {}
    metrics: Dict[str, Any] = {
        f"share/{name}": value for name, value in shares.items()
        if isinstance(value, (int, float))}
    if isinstance(doc.get("wall_ns"), (int, float)):
        metrics["wall_ns"] = doc["wall_ns"]
    record = Record(
        kind=KIND_PROFILE, cell_key=f"profile/{_doc_id(doc)}",
        series="profile", config_hash=str(doc.get("config_hash", "")),
        git_rev=doc.get("git_rev") or "", metrics=metrics, payload=doc,
        source=source)
    store.put(record)
    return [record]


# ----------------------------------------------------------------------
# Paper-scale suite results (benchmarks/perf/run.py --out)
# ----------------------------------------------------------------------
def ingest_perf(store: ResultStore, doc: Dict[str, Any], source: str = "",
                git_rev: Optional[str] = None) -> List[Record]:
    """A ``{"host", "seed", "workloads"}`` result -> one ``perf`` row per
    workload: its end-to-end medians as metrics, its summary as payload,
    stamped ``git_rev`` (default: the current checkout's revision)."""
    git_rev = _stamp(git_rev)
    doc_id = _doc_id(doc)
    out: List[Record] = []
    for name, summary in doc["workloads"].items():
        shape = summary.get("workload") or {}
        median = summary.get("median") or {}
        out.append(Record(
            kind=KIND_PERF, cell_key=f"{name}/{doc_id}", series=name,
            seed=int(doc.get("seed", 0)), git_rev=git_rev,
            app=str(shape.get("app", "")),
            protocol=str(shape.get("protocol", "")),
            n_cores=int(shape.get("cores", 0)),
            metrics=_scalars(median, tuple(median)), payload=summary,
            source=source))
    store.put_many(out)
    return out


# ----------------------------------------------------------------------
# Autodetection
# ----------------------------------------------------------------------
def detect_kind(doc: Any) -> str:
    """Classify a loaded JSON document by shape."""
    if isinstance(doc, dict):
        if doc.get("schema") == "repro-bench-v1":
            return "bench"
        if "plan" in doc and "scenario" in doc and "version" in doc:
            return "chaos"
        if "shares" in doc and "scopes" in doc:
            return "profile"
        if {"host", "seed", "workloads"} <= set(doc):
            return "perf"
        if doc and all(isinstance(v, dict) and "total_cycles" in v
                       for v in doc.values()):
            return "sweep"
    raise StoreError(
        "unrecognized document shape (expected a repro-bench-v1 document, "
        "a sweep document, a chaos artifact, a profile report or a "
        "paper-scale suite result)")


def ingest_path(store: ResultStore, path: PathLike,
                git_rev: Optional[str] = None) -> Tuple[str, int]:
    """Ingest one JSON artifact; returns ``(detected kind, rows written)``."""
    path = Path(path)
    doc = json.loads(path.read_text())
    kind = detect_kind(doc)
    source = str(path)
    if kind == "bench":
        rows = ingest_bench(store, doc, source)
    elif kind == "sweep":
        rows = ingest_sweep(store, doc, source, git_rev=git_rev)
    elif kind == "perf":
        rows = ingest_perf(store, doc, source, git_rev=git_rev)
    elif kind == "chaos":
        rows = ingest_chaos_artifact(store, doc, source)
    else:
        rows = ingest_profile(store, doc, source)
    return kind, len(rows)


__all__ = ["detect_kind", "export_bench",
           "export_sweep", "ingest_bench", "ingest_chaos_artifact",
           "ingest_path", "ingest_perf", "ingest_profile", "ingest_sweep",
           "sweep_metrics"]
