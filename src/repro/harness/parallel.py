"""Process-pool fan-out with deterministic ordered merging.

Every ``--jobs N`` flag in the harness (``sweep``, ``compare``, ``bench``,
``explore``) routes through :func:`run_ordered`: tasks execute on a pool of
worker *processes* (the simulator is pure CPU-bound Python, so threads
would serialize on the GIL), while results are consumed strictly in
submission order.  That ordering is the whole trick — store checkpoints,
logs and rendered tables are filled in exactly the sequence the serial
code would have produced, so a parallel run's output is identical to the
serial run's modulo wall-clock fields.

Workers must be top-level (picklable) functions and payloads must be
picklable values; every worker in this package re-derives its machine from
a plain description (app name, core count, protocol value) for exactly
that reason.

With ``jobs <= 1`` no pool is created at all: the task loop is a plain
in-process ``for``, byte-identical to the pre-parallel code path.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: worker(payload) -> result; must be defined at module top level.
Worker = Callable[[T], R]
#: on_result(index, payload, result) — invoked in submission order.
ResultHook = Callable[[int, T, R], None]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means "all cores"."""
    if not jobs:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def run_ordered(worker: Worker, payloads: Sequence[T], jobs: int = 1,
                on_result: Optional[ResultHook] = None) -> List[R]:
    """Run ``worker`` over ``payloads``; return results in payload order.

    ``jobs <= 1`` runs serially in-process (no pool, no pickling — the
    exact legacy code path).  Otherwise a :class:`ProcessPoolExecutor`
    with ``jobs`` workers executes tasks concurrently; results are still
    handed to ``on_result`` and returned in submission order, so callers
    that persist incremental state (the campaign's per-cell store
    checkpoints) see
    the same deterministic merge order as a serial run.

    A worker exception cancels all not-yet-started tasks and re-raises.
    """
    jobs = max(1, int(jobs))
    results: List[R] = []
    if jobs == 1 or len(payloads) <= 1:
        for i, payload in enumerate(payloads):
            result = worker(payload)
            results.append(result)
            if on_result is not None:
                on_result(i, payload, result)
        return results

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        futures = [pool.submit(worker, payload) for payload in payloads]
        try:
            for i, (payload, fut) in enumerate(zip(payloads, futures)):
                result = fut.result()
                results.append(result)
                if on_result is not None:
                    on_result(i, payload, result)
        except BaseException:
            for fut in futures:
                fut.cancel()
            raise
    return results


# ----------------------------------------------------------------------
# Shared picklable workers
# ----------------------------------------------------------------------
def run_protocol_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker for ``repro compare --jobs``: one protocol, one app.

    Returns only plain data (no Machine, no bus): the comparison row
    fields, plus optional Perfetto-export bookkeeping when a trace path
    is requested — the trace file itself is written inside the worker.
    """
    from repro.config import ProtocolKind
    from repro.harness.runner import run_app

    from repro.obs.bus import InstrumentationBus
    from repro.validation.oracle import InvalidationOracle

    protocol = ProtocolKind(payload["protocol"])
    bus = InstrumentationBus() if payload.get("trace_out") else None
    oracle = InvalidationOracle() if payload.get("oracle") else None
    result = run_app(payload["app"], n_cores=payload["n_cores"],
                     protocol=protocol,
                     chunks_per_partition=payload["chunks"],
                     instruments=[i for i in (bus, oracle) if i is not None])
    record: Dict[str, Any] = {
        "protocol": protocol.value,
        "total_cycles": result.total_cycles,
        "mean_commit_latency": result.mean_commit_latency,
        "commit_frac": result.breakdown_fractions()["Commit"],
        "mean_queue_length": result.mean_queue_length,
    }
    if bus is not None:
        from repro.obs.export import to_perfetto
        doc = to_perfetto(bus, payload["trace_out"])
        record["trace_out"] = payload["trace_out"]
        record["trace_events"] = len(doc["traceEvents"])
    return record


__all__ = ["ResultHook", "Worker", "resolve_jobs", "run_ordered",
           "run_protocol_record"]
