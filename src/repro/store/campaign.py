"""The matrix runner: a declarative run matrix, resumable over the store.

A *campaign spec* is a small JSON document describing a run matrix::

    {
      "name": "scaling-study",
      "apps": ["Radix", "LU"],
      "cores": [8, 16],
      "protocols": ["ScalableBulk", "TCC"],   // optional: all four
      "chunks": 2,                            // optional: 2
      "seeds": [2010, 7],                     // optional: config default
      "baseline1p": true,                     // optional: true
      "overrides": [{"signature_bits": 512}]  // optional: [{}]
    }

An ``overrides`` point sets scalar ``SystemConfig`` fields, plus an
optional per-point ``chunks`` and ``access_scale`` (workload footprint).

This module is the repo's only matrix runner: ``repro sweep`` builds a
spec from its ``--apps/--cores/--chunks`` and runs it here, and so does
every caller of :func:`repro.harness.sweep.collect` (the figure suite
and the sensitivity studies under ``benchmarks/``,
``examples/paper_figures.py``), ``repro bench`` runs its macro tier here
as ``bench_macro`` rows, and ``repro store campaign`` runs a spec file.
:func:`expand` is the only place that lists cells — per app and
overrides point a single-processor ScalableBulk baseline on the largest
machine, then every (cores, protocol) cell with ``n_partitions`` pinned
to the largest machine so every run of one app executes the identical
total work — and :func:`run_one` is the only body a cell runs.

The runner is a *service loop* over that matrix:

* **dedupe** — cells whose cache key ``(kind, config_hash, seed,
  git_rev, cell_key)`` is already stored are skipped (``ignore_rev``
  widens the match to any revision);
* **fan-out** — pending cells run over
  :func:`repro.harness.parallel.run_ordered` worker processes;
* **checkpoint** — every completed cell commits in its own transaction,
  so SIGINT/SIGKILL mid-campaign loses at most the in-flight cell and a
  rerun resumes with zero completed cells re-executed;
* **failure rows** — a cell that raises is recorded as a first-class
  ``status='failed'`` row carrying the exception and traceback, and the
  campaign keeps going.
"""

from __future__ import annotations

import json
import time
import traceback as traceback_mod
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.config import ProtocolKind, SystemConfig
from repro.harness.runner import SimulationRunner
from repro.obs.bus import InstrumentationBus
from repro.provenance import config_hash
from repro.store.db import ResultStore, StoreError
from repro.store.ingest import bench_macro_metrics, sweep_metrics
from repro.store.schema import (KIND_BENCH_MACRO, KIND_SWEEP, Record,
                                STATUS_FAILED, STATUS_OK)

PathLike = Union[str, Path]

PROTOCOL_NAMES = tuple(p.value for p in ProtocolKind)
_SPEC_KEYS = frozenset({"name", "apps", "cores", "protocols", "chunks",
                        "seeds", "baseline1p", "overrides"})
#: What an ``overrides`` point may set: the scalar ``SystemConfig`` fields
#: other than the matrix's own axes, plus the workload's size and scale.
OVERRIDE_KEYS = frozenset(
    {f.name for f in fields(SystemConfig)
     if isinstance(f.default, (bool, int, float))
     and f.name not in ("n_cores", "seed")} | {"chunks", "access_scale"})


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative run matrix (the JSON document, validated)."""

    name: str
    apps: Tuple[str, ...]
    cores: Tuple[int, ...]
    protocols: Tuple[str, ...] = PROTOCOL_NAMES
    chunks: int = 2
    seeds: Tuple[Optional[int], ...] = (None,)
    baseline1p: bool = True
    overrides: Tuple[Mapping[str, Any], ...] = ({},)

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "CampaignSpec":
        unknown = sorted(set(doc) - _SPEC_KEYS)
        if unknown:
            raise StoreError(
                f"unknown campaign spec key(s): {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(_SPEC_KEYS))})")
        for required in ("name", "apps", "cores"):
            if required not in doc:
                raise StoreError(f"campaign spec needs {required!r}")
        protocols = tuple(doc.get("protocols", PROTOCOL_NAMES))
        bad = [p for p in protocols if p not in PROTOCOL_NAMES]
        if bad:
            raise StoreError(
                f"unknown protocol(s) {', '.join(bad)} "
                f"(choices: {', '.join(PROTOCOL_NAMES)})")
        seeds = doc.get("seeds")
        overrides = doc.get("overrides") or [{}]
        if not isinstance(overrides, list) \
                or not all(isinstance(p, dict) for p in overrides):
            raise StoreError("campaign spec 'overrides' must be a list of "
                             "objects")
        bad = sorted({k for p in overrides for k in p} - OVERRIDE_KEYS)
        if bad:
            raise StoreError(
                f"unknown override key(s): {', '.join(bad)} "
                f"(allowed: {', '.join(sorted(OVERRIDE_KEYS))})")
        return cls(name=str(doc["name"]),
                   apps=tuple(str(a) for a in doc["apps"]),
                   cores=tuple(int(n) for n in doc["cores"]),
                   protocols=protocols,
                   chunks=int(doc.get("chunks", 2)),
                   seeds=tuple(int(s) for s in seeds) if seeds else (None,),
                   baseline1p=bool(doc.get("baseline1p", True)),
                   overrides=tuple(overrides))

    @classmethod
    def load(cls, path: PathLike) -> "CampaignSpec":
        return cls.from_json(json.loads(Path(path).read_text()))

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "apps": list(self.apps),
                "cores": list(self.cores), "protocols": list(self.protocols),
                "chunks": self.chunks,
                "seeds": [s for s in self.seeds if s is not None] or None,
                "baseline1p": self.baseline1p,
                "overrides": [dict(p) for p in self.overrides]}


#: The CI smoke matrix: 2 apps x 1 core count x all four protocols.
QUICK_SPEC = CampaignSpec(name="quick", apps=("Radix", "LU"), cores=(8,),
                          chunks=1)


def point_config(n_cores: int, protocol: ProtocolKind,
                 seed: Optional[int] = None,
                 overrides: Optional[Mapping[str, Any]] = None
                 ) -> SystemConfig:
    """The Table 2 machine with ``seed`` and a point's config fields."""
    changes = {k: v for k, v in (overrides or {}).items()
               if k not in ("chunks", "access_scale")}
    if seed is not None:
        changes["seed"] = seed
    return SystemConfig(n_cores=n_cores, protocol=protocol, **changes)


def run_one(app: str, n_cores: int, protocol: ProtocolKind,
            chunks: int, active_cores: Optional[int] = None,
            n_partitions: Optional[int] = None,
            bus: Optional[InstrumentationBus] = None,
            profile: bool = False, seed: Optional[int] = None,
            overrides: Optional[Mapping[str, Any]] = None) -> dict:
    """One simulation -> a JSON-serializable record.

    ``n_partitions`` fixes the total work across machine sizes (strong
    scaling): every run of one application must use the same partition
    count or speedups are meaningless.  ``bus`` optionally instruments
    the run (used by ``--critical-paths``); ``profile`` attaches the
    host-time self-profiler and embeds its attribution report.  ``seed``
    overrides the config's reproducibility seed (campaign matrices sweep
    it; ``None`` keeps the Table 2 default).  ``overrides`` is a spec's
    overrides point (its ``chunks`` wins), stored in the record under
    ``"overrides"`` when non-empty.
    """
    point = dict(overrides or {})
    config = point_config(n_cores, protocol, seed, point)
    runner = SimulationRunner(app, config, active_cores=active_cores,
                              chunks_per_partition=point.get("chunks", chunks),
                              n_partitions=n_partitions,
                              access_scale=point.get("access_scale", 1.0))
    from repro.obs.profile import make_profiler
    profiler = make_profiler(config) if profile else None
    t0 = time.time()  # repro: allow SB304
    result = runner.run(keep_machine=True, instruments=[
        i for i in (bus, profiler) if i is not None])
    wall = time.time() - t0  # repro: allow SB304
    stats = result.machine.protocol.stats
    record = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "app": app,
        "protocol": protocol.value,
        "n_cores": n_cores,
        "active_cores": result.active_cores,
        "total_cycles": result.total_cycles,
        "useful": result.useful_cycles,
        "miss": result.miss_stall_cycles,
        "commit": result.commit_stall_cycles,
        "squash": result.squash_cycles,
        "chunks_committed": result.chunks_committed,
        "squashes_conflict": result.squashes_conflict,
        "squashes_alias": result.squashes_alias,
        "mean_commit_latency": result.mean_commit_latency,
        "mean_dirs": result.mean_dirs_per_commit,
        "mean_write_dirs": result.mean_write_dirs_per_commit,
        "bottleneck_ratio": result.bottleneck_ratio,
        "mean_queue": result.mean_queue_length,
        "traffic": result.traffic_by_class,
        "dirs_hist": {str(k): v for k, v in
                      stats.dirs_per_commit_hist.items()},
        "latency_hist": {str(k): v for k, v in
                         stats.commit_latency_hist.items()},
        "wall_seconds": round(wall, 2),
        # unrounded twin of wall_seconds: the bench harness computes
        # cycles/sec from this so sub-0.2s runs are not quantized by the
        # 2-decimal display rounding above
        "wall_seconds_raw": wall,
    }
    if point:
        record["overrides"] = point
    if profiler is not None:
        record["profile"] = profiler.report().to_json()
    return record


#: The protocol slot of a 1p baseline cell's sweep key.
BASELINE = "baseline1p"


def key_of(app: str, n_cores: int, protocol: str, active: int) -> str:
    return f"{app}/{n_cores}/{protocol}/{active}"


@dataclass(frozen=True)
class CampaignCell:
    """One expanded matrix cell, fully determined and picklable."""

    app: str
    n_cores: int
    protocol: str
    chunks: int
    active_cores: Optional[int]
    n_partitions: int
    seed: Optional[int]
    overrides: Tuple[Tuple[str, Any], ...] = ()  #: sorted point items

    @property
    def _machine_key(self) -> str:
        active = self.active_cores if self.active_cores is not None \
            else self.n_cores
        proto = BASELINE if self.active_cores == 1 else self.protocol
        return key_of(self.app, self.n_cores, proto, active)

    @property
    def _point_suffix(self) -> str:
        point = ",".join(f"{k}={v}" for k, v in self.overrides)
        return f"/{point}" if point else ""

    @property
    def sweep_key(self) -> str:
        """The sweep document's key for this cell (the row's ``series``)."""
        return self._machine_key + self._point_suffix

    @property
    def cell_key(self) -> str:
        """The store cache key's cell discriminator.

        Extends the machine key with the chunk count and seed so two
        campaigns over the same machine at different workload sizes do
        not collide, then appends the overrides point.
        """
        seed = "default" if self.seed is None else str(self.seed)
        return (f"{self._machine_key}/c{self.chunks}/s{seed}"
                f"{self._point_suffix}")

    def config(self) -> SystemConfig:
        return point_config(self.n_cores, ProtocolKind(self.protocol),
                            self.seed, dict(self.overrides))

    def to_payload(self) -> Dict[str, Any]:
        return {"app": self.app, "n_cores": self.n_cores,
                "protocol": self.protocol, "chunks": self.chunks,
                "active_cores": self.active_cores,
                "n_partitions": self.n_partitions, "seed": self.seed}


def expand(spec: CampaignSpec) -> List[CampaignCell]:
    """The spec's full cell list in canonical order (seed, app, overrides
    point, cores, protocol; each point's baseline first) — the sweep
    export's order."""
    big = max(spec.cores)
    cells: List[CampaignCell] = []
    for seed in spec.seeds:
        for app in spec.apps:
            for point in spec.overrides:
                chunks = int(point.get("chunks", spec.chunks))
                items = tuple(sorted(point.items()))
                if spec.baseline1p:
                    cells.append(CampaignCell(
                        app=app, n_cores=big,
                        protocol=ProtocolKind.SCALABLEBULK.value,
                        chunks=chunks, active_cores=1, n_partitions=big,
                        seed=seed, overrides=items))
                for n in spec.cores:
                    for proto in spec.protocols:
                        cells.append(CampaignCell(
                            app=app, n_cores=n, protocol=proto,
                            chunks=chunks, active_cores=None,
                            n_partitions=big, seed=seed, overrides=items))
    return cells


def _bench_record(cell: CampaignCell, rec: Dict[str, Any],
                  calibration: float) -> Dict[str, Any]:
    """A ``run_one`` record -> the benchmark document's macro cell, its
    cycles/sec from the unrounded wall-clock clamped at 10 ms (the
    2-decimal display field quantizes sub-0.2s runs by up to ~15%)."""
    keep = ("app", "protocol", "n_cores", "config_hash", "wall_seconds",
            "total_cycles", "chunks_committed", "profile")
    out = {k: rec[k] for k in keep if k in rec}
    out.update(chunks=cell.chunks, calibration_ops_per_sec=calibration,
               cycles_per_sec=rec["total_cycles"]
               / max(rec["wall_seconds_raw"], 0.01))
    return out


def _campaign_worker(task: Tuple[CampaignCell, str, int, bool, bool]
                     ) -> Dict[str, Any]:
    """Process-pool worker: one cell -> ok record or failure row data.

    ``task`` is ``(cell, row kind, repeat, profile?, critical paths?)``.
    The fastest of ``repeat`` runs is kept (host noise only ever inflates
    a wall-clock); a ``bench_macro`` cell times the calibration loop just
    before them.  Exceptions are *data* here — a failing cell must become
    a stored failure row, not abort the surviving campaign.
    """
    cell, kind, repeat, profile, critical_paths = task
    try:
        from repro.harness.bench import calibrate
        calibration = calibrate() if kind == KIND_BENCH_MACRO else 0.0
        best: Optional[Dict[str, Any]] = None
        for _ in range(max(1, repeat)):
            bus = InstrumentationBus(record_messages=False) \
                if critical_paths else None
            record = run_one(cell.app, cell.n_cores,
                             ProtocolKind(cell.protocol), chunks=cell.chunks,
                             active_cores=cell.active_cores,
                             n_partitions=cell.n_partitions, bus=bus,
                             profile=profile, seed=cell.seed,
                             overrides=dict(cell.overrides))
            if bus is not None:
                from repro.obs.critical_path import analyze_commit_paths
                record["critical_path"] = analyze_commit_paths(bus).summary()
            if best is None \
                    or record["wall_seconds_raw"] < best["wall_seconds_raw"]:
                best = record
        assert best is not None
        if kind == KIND_BENCH_MACRO:
            best = _bench_record(cell, best, calibration)
        return {"status": STATUS_OK, "record": best}
    except Exception as err:  # noqa: BLE001 - failures are first-class rows
        return {"status": STATUS_FAILED, "error": repr(err),
                "traceback": traceback_mod.format_exc()}


@dataclass
class CampaignReport:
    """What one campaign invocation did (for logs, tests and exit codes)."""

    spec: CampaignSpec
    git_rev: str
    total: int = 0
    ran: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"campaign {self.spec.name}: total={self.total} "
                f"ran={len(self.ran)} skipped={len(self.skipped)} "
                f"failed={len(self.failed)}")


def run_campaign(spec: CampaignSpec, store: ResultStore, *,
                 jobs: int = 1, log=print, rerun_failed: bool = False,
                 ignore_rev: bool = False, profile: bool = False,
                 critical_paths: bool = False, kind: str = KIND_SWEEP,
                 repeat: int = 1) -> CampaignReport:
    """Expand, dedupe, fan out, checkpoint — one campaign pass.

    Safe to invoke repeatedly: completed cells are never re-run (the
    resume contract), failed cells re-run only with ``rerun_failed``.
    ``profile`` embeds a host-time attribution report and
    ``critical_paths`` a commit critical-path summary in the record of
    every cell this pass runs; cells already stored keep what they have.
    ``kind`` is the row kind written: ``sweep`` rows hold the whole
    ``run_one`` record, ``bench_macro`` rows the benchmark document's
    macro cell with its own calibration score.  ``repeat`` runs each
    cell that many times and keeps the fastest.
    """
    metrics_of = {KIND_SWEEP: sweep_metrics,
                  KIND_BENCH_MACRO: bench_macro_metrics}[kind]
    from repro.harness.parallel import run_ordered
    from repro.provenance import git_rev as current_rev

    rev = current_rev() or ""
    report = CampaignReport(spec=spec, git_rev=rev)
    cells = expand(spec)
    report.total = len(cells)

    pending: List[CampaignCell] = []
    for cell in cells:
        hash_ = config_hash(cell.config())
        seed = cell.config().seed
        status = store.status_of(kind, hash_, seed,
                                 None if ignore_rev else rev, cell.cell_key)
        if status == STATUS_OK or (status == STATUS_FAILED
                                   and not rerun_failed):
            report.skipped.append(cell.cell_key)
        else:
            pending.append(cell)
    log(f"campaign {spec.name}: {len(cells)} cells, "
        f"{len(report.skipped)} cached, {len(pending)} to run "
        f"(rev {rev or '<none>'}, jobs={jobs})")

    def checkpoint(i: int, _task: tuple, result: Dict[str, Any]) -> None:
        cell = pending[i]
        config = cell.config()
        common = dict(
            kind=kind, cell_key=cell.cell_key, seed=config.seed,
            series=cell.sweep_key if kind == KIND_SWEEP
            else f"{cell.app}/{cell.n_cores}/{cell.protocol}",
            git_rev=rev, app=cell.app, protocol=cell.protocol,
            n_cores=cell.n_cores, source=f"campaign:{spec.name}")
        if result["status"] == STATUS_OK:
            rec = result["record"]
            row = Record(config_hash=str(rec.get("config_hash", "")),
                         metrics=metrics_of(rec), payload=rec, **common)
            report.ran.append(cell.cell_key)
            note = f"{rec['total_cycles']} cycles ({rec['wall_seconds']}s)"
        else:
            row = Record(config_hash=config_hash(config),
                         status=STATUS_FAILED, payload=cell.to_payload(),
                         error=result["error"],
                         traceback=result["traceback"], **common)
            report.failed.append(cell.cell_key)
            note = f"FAILED: {result['error']}"
        store.put(row)  # one transaction: the crash-safe checkpoint
        log(f"[{i + 1}/{len(pending)}] {cell.cell_key}: {note}")

    run_ordered(_campaign_worker,
                [(cell, kind, repeat, profile, critical_paths)
                 for cell in pending],
                jobs=jobs, on_result=checkpoint)
    log(report.summary())
    return report


__all__ = ["BASELINE", "CampaignCell", "CampaignReport", "CampaignSpec",
           "OVERRIDE_KEYS", "QUICK_SPEC",
           "expand", "key_of", "point_config", "run_campaign", "run_one"]
