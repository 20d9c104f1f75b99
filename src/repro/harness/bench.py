"""Performance benchmark harness: calibration plus the micro benchmarks.

This module measures the simulator's hottest primitives in isolation:
signature insert and intersect (:mod:`repro.signatures`), event-queue
churn (:mod:`repro.engine.events`) and NoC transit
(:mod:`repro.network.noc`).  The full-stack benchmark is the paper-scale
suite under ``benchmarks/perf``, whose results the store ingests as
``perf`` rows.

A pass writes ``BENCH_<date>.json``; with ``--store`` it is also
ingested, as ``bench_micro`` rows under a ``bench_meta`` header.  Raw
wall-clock numbers are host-specific, so every document also records a
*calibration* score (a fixed pure-Python busy loop timed on the same
host just before the measurement); ``repro store check`` divides every
throughput by it, which cancels raw host speed to first order and makes
CI's 10% regression gate meaningful across machines.

Usage::

    python -m repro bench --quick                     # smoke tier
    python -m repro bench --out BENCH_$(date +%F).json
    python -m repro bench --quick --store results.db  # record the pass
    python -m repro bench --validate-file BENCH_2026-08-08.json
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

from repro.store.db import ResultStore, StoreError
from repro.store.ingest import ingest_bench

SCHEMA = "repro-bench-v1"

#: Micro op counts (full / quick).  A quick run takes ~50-200 ms on a
#: 2-CPU x86-64 host, long enough that best-of-3 is not decided by
#: sub-second host noise (docs/performance.md has the measured spread).
MICRO_OPS = {"signature_insert": (1_000_000, 200_000),
             "signature_intersect": (800_000, 160_000),
             "event_queue_churn": (800_000, 160_000),
             "noc_transit": (240_000, 48_000)}


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
# One pass: calibration and the micro benches
# ----------------------------------------------------------------------
def collect_bench(quick: bool = False, repeat: int = 3,
                  log=print) -> Dict[str, Any]:
    """Run one pass; return its schema-valid document."""
    from repro.provenance import git_rev
    log("calibrating host and running the micro benches ...")
    # Best-of-N in the quick tier too, taken in rounds: each round
    # calibrates, then runs every bench once.  A shared host has slow
    # phases of a second or more (a fresh process's first second often
    # is one); in rounds such a phase costs each bench and the
    # calibration one sample, not all of them, and the gate needs the
    # stable maximum of both.
    calibration = 0.0
    micro: Dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        calibration = max(calibration, calibrate())
        for name in MICRO_BENCHES:
            result = run_micro(name, quick, 1)
            if name not in micro or result["seconds"] < micro[name]["seconds"]:
                micro[name] = result
    for name, result in micro.items():
        result["best_of"] = max(1, repeat)
        log(f"  micro {name}: {result['ops_per_sec']:.0f} ops/s "
            f"({result['ops']} ops)")
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),  # repro: allow SB304
        "git_rev": git_rev(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
        },
        "config": {"quick": quick, "repeat": repeat},
        "calibration_ops_per_sec": calibration,
        "micro": micro,
    }


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
    return errors


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="calibration plus the micro benchmarks; gate a pass "
                    "with repro store check (see docs/performance.md)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke tier: smaller op counts")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N repetitions of every micro bench")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default BENCH_<date>.json)")
    parser.add_argument("--validate-file", type=Path, metavar="PATH",
                        help="schema-validate an existing document and exit")
    parser.add_argument("--store", type=Path, default=None, metavar="DB",
                        help="also ingest the pass into this result store "
                             "(gate it with repro store check)")
    args = parser.parse_args(argv)

    if args.validate_file:
        doc = json.loads(args.validate_file.read_text())
        errors = validate_bench(doc)
        if errors:
            for err in errors:
                print(f"INVALID {args.validate_file}: {err}")
            return 1
        print(f"{args.validate_file}: valid {SCHEMA} document "
              f"({len(doc['micro'])} micro)")
        return 0

    doc = collect_bench(quick=args.quick, repeat=args.repeat)
    if args.store is not None:
        try:
            with ResultStore(args.store) as store:
                ingest_bench(store, doc, source="repro bench")
        except StoreError as err:
            print(f"error: {err}")
            return 1
    out = args.out or Path(f"BENCH_{doc['date']}.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    errors = validate_bench(doc)
    if errors:  # pragma: no cover - a bug in this module itself
        for err in errors:
            print(f"self-check failed: {err}")
        return 1
    print(f"wrote {out} (calibration "
          f"{doc['calibration_ops_per_sec']:.0f} ops/s)")
    return 0


__all__ = ["MICRO_BENCHES", "SCHEMA", "calibrate", "collect_bench", "main",
           "run_micro", "validate_bench"]


if __name__ == "__main__":
    sys.exit(main())
