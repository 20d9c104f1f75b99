"""Outside-in host-time tracer: one layer per simulator module.

The tracer wraps each layer's entry points at class level, from the
benchmark's own files, so nothing under ``src/`` knows it exists.  Wrapping
must happen before any ``Machine`` is built: ``Network.register`` captures
bound ``handle_message`` methods at construction, and a method wrapped
later would never be called through the wrapper.

Self time uses a stack.  Each wrapped call pushes a child-time
accumulator; on return its duration minus the time its wrapped children
covered is its self time, and its duration is added to the caller's
accumulator.  Counters are aggregated per entry point in memory (``contains``
runs millions of times in a Radix run, so a span per call is too much);
spans are kept only for the coarse phase boundaries in :data:`SPANS` and
written as Chrome-trace JSON by :meth:`LayerTracer.write_chrome_trace`.

An entry point that no longer exists (renamed by a later refactor) is
skipped with a warning; a layer left with no entry points reports ``None``
for every metric, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from typing import Callable, Dict, List, Optional, Tuple

#: layer name (the repo's module) -> its entry points as (module, class, method)
LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    "engine": [
        ("repro.engine.events", "Simulator", "run"),
        ("repro.engine.events", "Simulator", "schedule_at"),
    ],
    "network": [
        ("repro.network.noc", "Network", "send"),
    ],
    "memory.directory": [
        ("repro.memory.directory", "DirectoryModule", "handle_message"),
        ("repro.baselines.bulksc", "BulkSCArbiter", "handle_message"),
        ("repro.baselines.tcc", "TidVendor", "handle_message"),
    ],
    "protocols": [
        ("repro.protocols.base", "ProcessorEngine", "handle_message"),
    ],
    # the Core callbacks the event engine dispatches
    "cpu": [("repro.cpu.core", "Core", name) for name in (
        "_try_start_exec", "_issue_read", "_exec_complete", "on_data",
        "on_read_nack", "on_commit_success", "squash_from",
        "apply_invalidation")],
    "memory.cache": [
        *[("repro.memory.hierarchy", "CacheHierarchy", name) for name in (
            "access", "fill_remote", "invalidate", "commit_chunk",
            "squash_chunk")],
        ("repro.memory.cache", "Cache", "fill_many"),
    ],
    "core.cst": [
        ("repro.core.cst", "CstEntry", "incompatible_with"),
    ],
    "signatures": [
        *[("repro.signatures.bulk_signature", "BulkSignature", name)
          for name in ("contains", "insert", "insert_many", "intersects")],
        ("repro.signatures.bulk_signature", "SignatureFactory", "from_lines"),
    ],
    "workloads": [
        ("repro.workloads.generator", "SyntheticWorkload", "__init__"),
        ("repro.workloads.generator", "SyntheticWorkload", "generate_chunk"),
    ],
    # SimulationRunner.__init__ and Machine.run close the gaps between the
    # other layers, so the shares add up to the whole traced wall time.
    "harness.runner": [
        ("repro.harness.runner", "SimulationRunner", "__init__"),
        ("repro.harness.runner", "Machine", "__init__"),
        ("repro.harness.runner", "Machine", "prewarm"),
        ("repro.harness.runner", "Machine", "run"),
    ],
}

#: entry point -> Chrome-trace span name (the coarse phase boundaries)
SPANS = {
    "SyntheticWorkload.__init__": "workload build",
    "Machine.__init__": "machine build",
    "Machine.prewarm": "prewarm",
    "Simulator.run": "simulate",
}

#: entry points whose truthy return values are counted (conflict ratio)
COUNT_TRUE = {"CstEntry.incompatible_with"}

#: a per-layer extra: a function of the tracer's per-entry-point stats and
#: the run's facts (None when an entry point it reads is missing)
Extra = Callable[[Dict[str, "EntryStats"], dict], Optional[float]]


class EntryStats:
    """Aggregated counters of one wrapped entry point."""

    __slots__ = ("layer", "calls", "self_s", "incl_s", "true_calls")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0   #: summed durations (not meaningful if recursive)
        self.true_calls = 0


def _calls(key: str) -> Extra:
    return lambda st, facts: st[key].calls if key in st else None


def _incl_s(key: str) -> Extra:
    return lambda st, facts: st[key].incl_s if key in st else None


# Per-call and ratio extras read 0.0 when their count is 0 (e.g. no CST
# pair checks under BulkSC), so only a missing entry point gives None.
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ns_per_call(key: str) -> Extra:
    def f(st, facts):
        e = st.get(key)
        return None if e is None else _ratio(e.self_s * 1e9, e.calls)
    return f


def _layer_ns_per(layer: str, count: Callable[[list, dict], float]) -> Extra:
    def f(st, facts):
        mine = [e for e in st.values() if e.layer == layer]
        return _ratio(sum(e.self_s for e in mine) * 1e9,
                      count(mine, facts))
    return f


def _conflict_ratio(st, facts):
    e = st.get("CstEntry.incompatible_with")
    return None if e is None else _ratio(e.true_calls, e.calls)


#: per-layer extras by metric name; units live in BENCHMARK.json
EXTRAS: Dict[str, Extra] = {
    "engine.events": lambda st, facts: facts["events"],
    "engine.self_ns_per_event": _layer_ns_per(
        "engine", lambda mine, facts: facts["events"]),
    "network.messages": lambda st, facts: facts["messages"],
    "network.ns_per_send": _self_ns_per_call("Network.send"),
    "memory.directory.ns_per_msg": _layer_ns_per(
        "memory.directory", lambda mine, facts: sum(e.calls for e in mine)),
    "memory.cache.access_calls": _calls("CacheHierarchy.access"),
    "memory.cache.invalidate_calls": _calls("CacheHierarchy.invalidate"),
    "memory.cache.fill_many_s": _incl_s("Cache.fill_many"),
    "core.cst.pair_checks": _calls("CstEntry.incompatible_with"),
    "core.cst.incl_s": _incl_s("CstEntry.incompatible_with"),
    "core.cst.conflict_ratio": _conflict_ratio,
    "signatures.contains_calls": _calls("BulkSignature.contains"),
    "signatures.contains_ns": _self_ns_per_call("BulkSignature.contains"),
    "workloads.chunks_generated": _calls("SyntheticWorkload.generate_chunk"),
    "harness.runner.build_s": _incl_s("Machine.__init__"),
    "harness.runner.prewarm_s": _incl_s("Machine.prewarm"),
}


class LayerTracer:
    """Class-level entry-point wrapper; use as a context manager so the
    original methods are restored even when the traced run raises."""

    def __init__(self) -> None:
        self.stats: Dict[str, EntryStats] = {}
        self.missing: List[str] = []
        #: (span name, start, duration) for the coarse phase boundaries
        self.spans: List[Tuple[str, float, float]] = []
        self.origin = time.perf_counter()
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[type, str, object, bool]] = []

    def __enter__(self) -> "LayerTracer":
        for layer, points in LAYERS.items():
            for module, cls_name, attr in points:
                try:
                    cls = getattr(importlib.import_module(module), cls_name,
                                  None)
                except ImportError:
                    cls = None
                fn = getattr(cls, attr, None) if cls is not None else None
                key = f"{cls_name}.{attr}"
                if not callable(fn):
                    warnings.warn(f"perf trace: {module}.{key} not found; "
                                  f"layer {layer!r} loses that entry point",
                                  RuntimeWarning, stacklevel=2)
                    self.missing.append(key)
                    continue
                self._saved.append((cls, attr, fn, attr in cls.__dict__))
                self.stats[key] = EntryStats(layer)
                setattr(cls, attr, self._wrap(fn, self.stats[key],
                                              SPANS.get(key),
                                              key in COUNT_TRUE))
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, fn, own in reversed(self._saved):
            if own:
                setattr(cls, attr, fn)
            else:
                delattr(cls, attr)
        self._saved.clear()

    def _wrap(self, fn, st: EntryStats, span: Optional[str],
              count_true: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                st.self_s += dur - stack.pop()
                stack[-1] += dur
                st.calls += 1
                st.incl_s += dur
                if span is not None:
                    spans.append((span, start, dur))
            if count_true and result:
                st.true_calls += 1
            return result
        return traced

    # ------------------------------------------------------------------
    def metrics(self, wall_s: float, facts: dict) -> Dict[str, Optional[float]]:
        """``<layer>.calls/self_s/share`` plus the extras, over ``wall_s``.

        ``facts`` carries run results the extras need (``events``,
        ``messages``).  Every metric of a layer with no wrapped entry
        point is ``None``.
        """
        out: Dict[str, Optional[float]] = {}
        for layer in LAYERS:
            prefix = layer + "."
            extras = {n: f for n, f in EXTRAS.items() if n.startswith(prefix)}
            entries = [e for e in self.stats.values() if e.layer == layer]
            if not entries:
                out.update(dict.fromkeys(
                    [prefix + "calls", prefix + "self_s", prefix + "share",
                     *extras]))
                continue
            self_s = sum(e.self_s for e in entries)
            out[prefix + "calls"] = sum(e.calls for e in entries)
            out[prefix + "self_s"] = self_s
            out[prefix + "share"] = 100.0 * self_s / wall_s
            for name, fn in extras.items():
                out[name] = fn(self.stats, facts)
        return out

    def write_chrome_trace(self, path: str, label: str, layers: dict) -> None:
        """Write the phase spans as Chrome-trace JSON (chrome://tracing,
        ui.perfetto.dev); the per-layer table rides along in ``otherData``."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": label}}]
        for name, start, dur in self.spans:
            events.append({"name": name, "cat": "phase", "ph": "X",
                           "pid": 1, "tid": 1,
                           "ts": round((start - self.origin) * 1e6, 3),
                           "dur": round(dur * 1e6, 3)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"label": label, "layers": layers,
                                     "missing_entry_points": self.missing}},
                      fh, indent=1)
