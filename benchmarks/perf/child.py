"""One benchmark measurement, run in a fresh interpreter by ``run.py``.

Builds and runs one simulation through the simulator's public API
(``SystemConfig``, ``SimulationRunner``, ``Machine``), times the set-up and
simulation phases apart, and prints one JSON record on stdout::

    python benchmarks/perf/child.py --app Radix --cores 64 \
        --protocol ScalableBulk --chunks 32 --seed 2010 [--setup-only] \
        [--trace-file OUT.json]

Set-up is ``SimulationRunner(...)`` + ``Machine(...)`` + ``Machine.prewarm()``.
With ``--trace-file`` the layer tracer wraps every layer's entry points
before anything is built, and the record gains the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from dataclasses import fields
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from layers import LayerTracer  # noqa: E402


def result_payload(result) -> dict:
    """Every ``RunResult`` field except ``machine``, ``protocol`` by value."""
    payload = {f.name: getattr(result, f.name) for f in fields(result)
               if f.name != "machine"}
    payload["protocol"] = result.protocol.value
    return payload


def result_digest(payload: dict) -> str:
    """sha256 of the sorted-key JSON of :func:`result_payload`."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(app: str, cores: int, protocol: str, chunks: int, seed: int, *,
            setup_only: bool = False, trace_file: str = "") -> dict:
    """Run one simulation (or only its set-up) in this process."""
    from repro.config import ProtocolKind, SystemConfig
    from repro.harness.runner import Machine, SimulationRunner

    tracer = LayerTracer() if trace_file else None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        config = SystemConfig(n_cores=cores, protocol=ProtocolKind(protocol),
                              seed=seed)
        runner = SimulationRunner(app, config, chunks_per_partition=chunks)
        machine = Machine(config, workload=runner.workload)
        machine.prewarm()
        t1 = time.perf_counter()
        if setup_only:
            return {"setup_s": t1 - t0}
        machine.run(prewarm=False)
        t2 = time.perf_counter()

    result = machine.result(runner.profile.name, runner.active_cores)
    payload = result_payload(result)
    record = {
        "setup_s": t1 - t0,
        "sim_s": t2 - t1,
        "wall_s": t2 - t0,
        "peak_rss_mb": peak_rss_mb(),
        "events": machine.sim.events_processed,
        "expected_chunks": runner.workload.n_partitions * chunks,
        "unfinished_cores": [c.core_id for c in machine.cores
                             if not c.finished],
        "result": payload,
        "digest": result_digest(payload),
    }
    if tracer is not None:
        facts = {"events": record["events"],
                 "messages": result.total_messages}
        record["layers"] = tracer.metrics(t2 - t0, facts)
        tracer.write_chrome_trace(
            trace_file, f"{app}/{cores}/{protocol} seed {seed}",
            record["layers"])
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", required=True)
    ap.add_argument("--cores", type=int, required=True)
    ap.add_argument("--protocol", required=True)
    ap.add_argument("--chunks", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)
    record = measure(args.app, args.cores, args.protocol, args.chunks,
                     args.seed, setup_only=args.setup_only,
                     trace_file=args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
