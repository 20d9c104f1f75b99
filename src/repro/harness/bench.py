"""Performance benchmark harness: the repo's perf trajectory.

Every optimization PR needs a number to beat.  This module measures

* **micro** benchmarks — the simulator's hottest primitives in isolation:
  signature insert and intersect (:mod:`repro.signatures`), event-queue
  churn (:mod:`repro.engine.events`) and NoC transit
  (:mod:`repro.network.noc`) — a CST pair-check micro bench was split
  out and is not in this tree;
* **macro** benchmarks — wall-clock for a fixed (app, cores, protocol)
  matrix through the full stack, reported as simulated cycles per second.

Results are written to ``BENCH_<date>.json``.  Raw wall-clock numbers are
host-specific, so every document also records a *calibration* score (a
fixed pure-Python busy loop timed on the same host at the same moment);
:func:`compare_bench` divides every throughput metric by it, which cancels
raw host speed to first order and makes the >20% CI regression gate
meaningful across machines.

Usage::

    python -m repro bench --quick --jobs 2           # smoke tier
    python -m repro bench --out BENCH_$(date +%F).json
    python -m repro bench --validate-file BENCH_2026-08-08.json
    python -m repro bench --check-regression BENCH_old.json BENCH_new.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

SCHEMA = "repro-bench-v1"

#: Macro matrix: (app, n_cores, chunks) — all four protocols run on each.
MACRO_MATRIX = [("Radix", 16, 2), ("LU", 16, 2), ("Barnes", 16, 2),
                ("Canneal", 16, 2)]
MACRO_MATRIX_QUICK = [("Radix", 8, 1), ("LU", 8, 1)]

#: Micro op counts (full / quick).
MICRO_OPS = {"signature_insert": (200_000, 40_000),
             "signature_intersect": (200_000, 40_000),
             "event_queue_churn": (200_000, 40_000),
             "noc_transit": (60_000, 12_000)}


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def calibrate(n: int = 2_000_000) -> float:
    """Fixed busy-loop score (ops/sec): a host-speed proxy.

    Dividing every benchmark throughput by this number yields a roughly
    host-independent ratio, so baselines recorded on one machine can gate
    regressions measured on another.
    """
    t0 = time.perf_counter()  # repro: allow SB304
    acc = 0
    for i in range(n):
        acc += i * i
    dt = time.perf_counter() - t0  # repro: allow SB304
    assert acc >= 0
    return n / dt if dt > 0 else float("inf")


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------
def bench_signature_insert(n_ops: int) -> Dict[str, Any]:
    """Hot-path insert: repeated line inserts through the memoized masks."""
    from repro.signatures.bulk_signature import SignatureFactory
    factory = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
    sig = factory.empty()
    lines = [(i * 2654435761) % (1 << 34) for i in range(512)]
    t0 = time.perf_counter()  # repro: allow SB304
    for i in range(n_ops):
        sig.insert(lines[i & 511])
    dt = time.perf_counter() - t0  # repro: allow SB304
    return {"ops": n_ops, "seconds": dt, "ops_per_sec": n_ops / dt}


def bench_signature_intersect(n_ops: int) -> Dict[str, Any]:
    """Directory-side conflict test: W-sig against R/W-sig pairs."""
    from repro.signatures.bulk_signature import SignatureFactory
    factory = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
    a = factory.from_lines(range(0, 640, 10))
    b = factory.from_lines(range(5, 645, 10))
    c = factory.from_lines(range(10_000, 10_640, 10))
    t0 = time.perf_counter()  # repro: allow SB304
    hits = 0
    for i in range(n_ops):
        if a.intersects(b if i & 1 else c):
            hits += 1
    dt = time.perf_counter() - t0  # repro: allow SB304
    assert hits >= 0
    return {"ops": n_ops, "seconds": dt, "ops_per_sec": n_ops / dt}


def bench_event_queue_churn(n_ops: int) -> Dict[str, Any]:
    """Schedule/cancel/execute churn plus quiescence polling.

    Exercises the heap push/pop path and the O(1) live-event counter the
    conservation checks poll (``quiescent()`` used to be a full heap scan).
    """
    from repro.engine.events import Simulator
    sim = Simulator()
    noop = (lambda: None)
    t0 = time.perf_counter()  # repro: allow SB304
    batch = 512
    scheduled = 0
    while scheduled < n_ops:
        events = [sim.schedule(j & 63, noop) for j in range(batch)]
        for ev in events[::4]:
            ev.cancel()
        sim.run()
        assert sim.quiescent()
        scheduled += batch
    dt = time.perf_counter() - t0  # repro: allow SB304
    return {"ops": scheduled, "seconds": dt, "ops_per_sec": scheduled / dt}


def bench_noc_transit(n_ops: int) -> Dict[str, Any]:
    """Message injection + routed delivery on a contended 4x4 torus."""
    from repro.config import SystemConfig
    from repro.engine.events import Simulator
    from repro.network.message import Message, MessageType, core_node
    from repro.network.noc import Network
    config = SystemConfig(n_cores=16, network_contention=True)
    sim = Simulator()
    net = Network(config, sim)
    delivered = []
    for i in range(16):
        net.register(core_node(i), lambda m: delivered.append(1))
    t0 = time.perf_counter()  # repro: allow SB304
    batch = 256
    sent = 0
    while sent < n_ops:
        for j in range(batch):
            src, dst = j & 15, (j * 7 + 3) & 15
            if src == dst:
                dst = (dst + 1) & 15
            net.send(Message(MessageType.G, core_node(src), core_node(dst),
                             ctag=j))
        sim.run()
        sent += batch
    dt = time.perf_counter() - t0  # repro: allow SB304
    assert len(delivered) == sent
    return {"ops": sent, "seconds": dt, "ops_per_sec": sent / dt}


MICRO_BENCHES: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "signature_insert": bench_signature_insert,
    "signature_intersect": bench_signature_intersect,
    "event_queue_churn": bench_event_queue_churn,
    "noc_transit": bench_noc_transit,
}


def run_micro(name: str, quick: bool, repeat: int) -> Dict[str, Any]:
    """Best-of-``repeat`` run of one micro benchmark."""
    full, small = MICRO_OPS[name]
    n_ops = small if quick else full
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeat)):
        result = MICRO_BENCHES[name](n_ops)
        if best is None or result["seconds"] < best["seconds"]:
            best = result
    assert best is not None
    best["best_of"] = max(1, repeat)
    return best


# ----------------------------------------------------------------------
# Macro benchmarks
# ----------------------------------------------------------------------
def _macro_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: one full simulation, timed (best of N).

    ``payload["repeat"]`` re-runs the (deterministic) simulation and keeps
    the fastest wall-clock: host noise only ever inflates a measurement,
    so the minimum is the best estimate of the simulator's actual speed —
    the same rationale as ``run_micro``'s best-of.
    """
    from repro.config import ProtocolKind
    from repro.store.campaign import run_one
    record = None
    for _ in range(max(1, int(payload.get("repeat", 1)))):
        attempt = run_one(payload["app"], payload["n_cores"],
                          ProtocolKind(payload["protocol"]),
                          chunks=payload["chunks"],
                          profile=payload.get("profile", False))
        if record is None or (attempt.get("wall_seconds_raw", attempt["wall_seconds"])
                              < record.get("wall_seconds_raw", record["wall_seconds"])):
            record = attempt
    # Prefer the unrounded wall-clock when run_one provides it (the
    # display field is rounded to 2 decimals, which quantizes sub-0.2s
    # runs by up to ~15%); clamp so a sub-10ms run cannot explode
    # cycles_per_sec.
    wall = max(record.get("wall_seconds_raw", record["wall_seconds"]), 0.01)
    out = {
        "app": payload["app"],
        "protocol": payload["protocol"],
        "n_cores": payload["n_cores"],
        "chunks": payload["chunks"],
        "config_hash": record["config_hash"],
        "wall_seconds": record["wall_seconds"],
        "total_cycles": record["total_cycles"],
        "chunks_committed": record["chunks_committed"],
        "cycles_per_sec": record["total_cycles"] / wall,
    }
    if "profile" in record:
        out["profile"] = record["profile"]
    return out


def run_macro(quick: bool, jobs: int, log=print,
              profile: bool = False,
              repeat: int = 1) -> Dict[str, Dict[str, Any]]:
    from repro.config import ProtocolKind
    from repro.harness.parallel import run_ordered
    matrix = MACRO_MATRIX_QUICK if quick else MACRO_MATRIX
    # Profiled runs are attribution captures, not timing measurements:
    # best-of-N would just multiply the timer overhead, so they run once.
    payloads = [{"app": app, "n_cores": n, "chunks": chunks,
                 "protocol": proto.value, "profile": profile,
                 "repeat": 1 if profile else max(1, repeat)}
                for app, n, chunks in matrix for proto in ProtocolKind]
    out: Dict[str, Dict[str, Any]] = {}

    def merge(_i, payload, record) -> None:
        key = f"{payload['app']}/{payload['n_cores']}/{payload['protocol']}"
        out[key] = record
        line = (f"  macro {key}: {record['total_cycles']} cycles in "
                f"{record['wall_seconds']:.2f}s "
                f"({record['cycles_per_sec']:.0f} cy/s)")
        if "profile" in record:
            from repro.obs.profile import render_share_line
            line += f"\n    host time: " \
                    f"{render_share_line(record['profile']['shares'])}"
        log(line)

    run_ordered(_macro_worker, payloads, jobs=jobs, on_result=merge)
    return out


# ----------------------------------------------------------------------
# Document assembly / validation / comparison
# ----------------------------------------------------------------------
def collect_bench(quick: bool = False, jobs: int = 1, repeat: int = 3,
                  log=print, profile: bool = False) -> Dict[str, Any]:
    """Run everything and assemble a schema-valid benchmark document.

    ``profile`` attaches the host-time self-profiler to every macro run:
    each macro record carries its own attribution report and the document
    gains an aggregated ``profile`` section (shares sum to 100% ± 1).
    The profiled wall-clocks include timer overhead, so don't mix
    profiled and unprofiled documents in ``--check-regression``.
    """
    from repro.provenance import git_rev
    log("calibrating host ...")
    calibration = calibrate()
    micro: Dict[str, Any] = {}
    for name in MICRO_BENCHES:
        # best-of-N in the quick tier too: a single noisy shot can swing
        # a quick micro by 30% on a busy host, which is far beyond the CI
        # regression threshold — the gate needs the stable minimum.
        micro[name] = run_micro(name, quick, repeat)
        log(f"  micro {name}: {micro[name]['ops_per_sec']:.0f} ops/s "
            f"({micro[name]['ops']} ops)")
    macro = run_macro(quick, jobs, log=log, profile=profile, repeat=repeat)
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),  # repro: allow SB304
        "git_rev": git_rev(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "config": {"quick": quick, "jobs": jobs,
                   "repeat": repeat, "profile": profile},
        "calibration_ops_per_sec": calibration,
        "micro": micro,
        "macro": macro,
    }
    if profile:
        from repro.obs.profile import aggregate_profiles, render_share_line
        doc["profile"] = aggregate_profiles(
            [rec["profile"] for rec in macro.values() if "profile" in rec])
        log(f"  host-time attribution (all macro runs): "
            f"{render_share_line(doc['profile']['shares'])}")
    return doc


def validate_bench(doc: Any) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("date"), str):
        errors.append("date missing or not a string")
    host = doc.get("host")
    if not isinstance(host, dict) \
            or not {"python", "platform", "cpus"} <= set(host or {}):
        errors.append("host must carry python/platform/cpus")
    cal = doc.get("calibration_ops_per_sec")
    if not isinstance(cal, (int, float)) or cal <= 0:
        errors.append("calibration_ops_per_sec missing or non-positive")
    micro = doc.get("micro")
    if not isinstance(micro, dict) or not micro:
        errors.append("micro section missing or empty")
    else:
        for name, rec in micro.items():
            for field, kind in (("ops", int), ("seconds", (int, float)),
                                ("ops_per_sec", (int, float))):
                if not isinstance(rec.get(field), kind):
                    errors.append(f"micro[{name}].{field} missing or mistyped")
            if isinstance(rec.get("ops_per_sec"), (int, float)) \
                    and rec["ops_per_sec"] <= 0:
                errors.append(f"micro[{name}].ops_per_sec non-positive")
    macro = doc.get("macro")
    if not isinstance(macro, dict) or not macro:
        errors.append("macro section missing or empty")
    else:
        for key, rec in macro.items():
            for field in ("wall_seconds", "total_cycles", "cycles_per_sec",
                          "app", "protocol", "n_cores"):
                if field not in (rec or {}):
                    errors.append(f"macro[{key}].{field} missing")
            if isinstance(rec, dict) and rec.get("total_cycles", 1) <= 0:
                errors.append(f"macro[{key}].total_cycles non-positive")
            if isinstance(rec, dict) and "profile" in rec:
                errors.extend(f"macro[{key}].profile: {e}"
                              for e in _validate_profile(rec["profile"]))
    # Additive (profiled documents only): the aggregated attribution.
    if "profile" in doc:
        errors.extend(f"profile: {e}"
                      for e in _validate_profile(doc["profile"]))
    return errors


def _validate_profile(section: Any) -> List[str]:
    """Check an embedded host-profiler attribution (shares sum to ~100)."""
    if not isinstance(section, dict):
        return ["not an object"]
    errors: List[str] = []
    shares = section.get("shares")
    if not isinstance(shares, dict) or not shares:
        return ["shares missing or empty"]
    bad = [k for k, v in shares.items()
           if not isinstance(v, (int, float)) or v < 0]
    if bad:
        errors.append(f"negative or mistyped shares: {bad}")
    total = sum(v for v in shares.values() if isinstance(v, (int, float)))
    if abs(total - 100.0) > 1.0:
        errors.append(f"shares sum to {total:.2f}, expected 100 +- 1")
    scopes = section.get("scopes")
    if not isinstance(scopes, dict) or not scopes:
        errors.append("scopes missing or empty")
    return errors


def macro_reliable(doc: Dict[str, Any]) -> bool:
    """False when the macro matrix oversubscribed the host's cores.

    With more worker processes than cores, each worker's wall-clock
    includes time spent descheduled — a contention artifact, not
    simulator speed — so macro numbers from such a run must not gate
    regressions.  (The serial calibration loop cannot correct for this.)
    """
    return int(doc.get("config", {}).get("jobs", 1)) \
        <= int(doc.get("host", {}).get("cpus", 1))


def compare_bench(old: Dict[str, Any], new: Dict[str, Any],
                  threshold: float = 0.20) -> List[str]:
    """Calibration-normalized regressions beyond ``threshold``.

    Every throughput metric is divided by its document's calibration
    score before comparison, so an old baseline from a faster (or slower)
    host still gates meaningfully.  Returns human-readable regression
    lines; empty means the new run is no more than ``threshold`` slower
    on every shared metric.
    """
    regressions: List[str] = []
    cal_old = float(old["calibration_ops_per_sec"])
    cal_new = float(new["calibration_ops_per_sec"])

    def check(label: str, a: float, b: float) -> None:
        norm_old, norm_new = a / cal_old, b / cal_new
        if norm_old > 0 and norm_new < norm_old * (1.0 - threshold):
            drop = 100.0 * (1.0 - norm_new / norm_old)
            regressions.append(
                f"{label}: {drop:.1f}% slower (normalized "
                f"{norm_old:.4g} -> {norm_new:.4g})")

    for name in sorted(set(old.get("micro", {})) & set(new.get("micro", {}))):
        check(f"micro/{name}",
              old["micro"][name]["ops_per_sec"],
              new["micro"][name]["ops_per_sec"])
    if macro_reliable(old) and macro_reliable(new):
        for key in sorted(set(old.get("macro", {})) & set(new.get("macro", {}))):
            check(f"macro/{key}",
                  old["macro"][key]["cycles_per_sec"],
                  new["macro"][key]["cycles_per_sec"])
    return regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="micro + macro performance benchmarks "
                    "(see docs/performance.md)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke tier: smaller op counts, 2-app macro "
                             "matrix, single repetition")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the macro matrix "
                             "(0 = all cores); micro benches always run "
                             "serially for stable timing")
    parser.add_argument("--repeat", type=int, default=3,
                        help="micro benches: best-of-N repetitions")
    parser.add_argument("--profile", action="store_true",
                        help="attach the host-time self-profiler to every "
                             "macro run and emit the per-subsystem "
                             "breakdown next to cycles/sec (timer overhead "
                             "inflates wall-clocks; don't gate regressions "
                             "against unprofiled baselines)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default BENCH_<date>.json)")
    parser.add_argument("--validate-file", type=Path, metavar="PATH",
                        help="schema-validate an existing document and exit")
    parser.add_argument("--check-regression", nargs=2, type=Path,
                        metavar=("BASELINE", "NEW"),
                        help="compare two documents (calibration-"
                             "normalized) and exit 1 on regression")
    parser.add_argument("--store", type=Path, default=None, metavar="DB",
                        help="also record the collected document in this "
                             "result store (python -m repro store)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="regression threshold for --check-regression "
                             "(default 20%%)")
    args = parser.parse_args(argv)

    if args.validate_file:
        doc = json.loads(args.validate_file.read_text())
        errors = validate_bench(doc)
        if errors:
            for err in errors:
                print(f"INVALID {args.validate_file}: {err}")
            return 1
        print(f"{args.validate_file}: valid {SCHEMA} document "
              f"({len(doc['micro'])} micro, {len(doc['macro'])} macro)")
        return 0

    if args.check_regression:
        old_path, new_path = args.check_regression
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        for label, doc in (("baseline", old), ("new", new)):
            errors = validate_bench(doc)
            if errors:
                print(f"INVALID {label} document: {errors[0]}")
                return 1
        if not (macro_reliable(old) and macro_reliable(new)):
            print("note: macro metrics skipped — a document was produced "
                  "with more workers than host cores, so its wall-clocks "
                  "measure CPU contention, not simulator speed")
        regressions = compare_bench(old, new, args.threshold)
        if regressions:
            print(f"{len(regressions)} regression(s) beyond "
                  f"{args.threshold:.0%}:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"no regression beyond {args.threshold:.0%} "
              f"({old_path} -> {new_path})")
        return 0

    from repro.harness.parallel import resolve_jobs
    doc = collect_bench(quick=args.quick, jobs=resolve_jobs(args.jobs),
                        repeat=args.repeat, profile=args.profile)
    out = args.out or Path(f"BENCH_{doc['date']}.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    errors = validate_bench(doc)
    if errors:  # pragma: no cover - a bug in this module itself
        for err in errors:
            print(f"self-check failed: {err}")
        return 1
    print(f"wrote {out} (calibration "
          f"{doc['calibration_ops_per_sec']:.0f} ops/s)")
    if args.store is not None:
        from repro.store.db import ResultStore
        from repro.store.ingest import ingest_bench
        with ResultStore(args.store) as store:
            stored = ingest_bench(store, doc, source=str(out))
        print(f"stored {len(stored)} bench records in {args.store}")
    return 0


__all__ = ["MICRO_BENCHES", "SCHEMA", "calibrate", "collect_bench",
           "compare_bench", "macro_reliable", "main", "run_macro",
           "run_micro", "validate_bench"]


if __name__ == "__main__":
    sys.exit(main())
