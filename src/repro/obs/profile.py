"""Deterministic host-time self-profiler: where do the cycles/sec go?

The macro benchmark says the simulator runs at ~10-12k simulated cycles
per host second; this module says *why*.  Lightweight scoped timers sit
at the hot triangle the ROADMAP's compiled-core item targets —

=====================  ===============================================
``engine.dispatch``    one scope per executed simulator event (every
                       callback passed to ``Simulator.schedule_at``)
``noc.transit``        message injection + latency model + scheduling
                       (``Network._send``, after the handler check)
``dir.handler``        directory-side message handling, all protocols
                       (``DirectoryModule._dispatch``)
``cst.conflict``       ScalableBulk admission-time collision test
                       (``ScalableBulkDirectory._collides``)
``machine.prewarm``    steady-state working-set install before the run
                       (``Machine.prewarm``)
``sig.insert``         signature line insert
``sig.member``         signature membership probe (expansion path)
``sig.intersect``      signature intersection (conflict tests)
=====================  ===============================================

— and aggregate into a per-scope attribution (call count, inclusive
wall time, *self* time with nested scopes subtracted).  Because the
scopes nest (a directory handler intersects signatures and sends NoC
messages, all inside one dispatched event), the self-time shares plus
the unprofiled remainder ("other": heap ops, workload generation, stats)
sum to 100% of run wall time by construction.

**Attach by wrapping.**  No simulator component knows this module
exists: :func:`attach_profiler` installs per-instance wrappers (and
points the signature factory at a scoped subclass) on one built
machine, the way the oracle and the explorer's mutations attach.  Each
hot method keeps exactly one body, so a run with profiling off pays
nothing for it.

**Quarantine rule.**  This is the one module (with the benchmark
harness) allowed to read the host clock — every ``perf_counter_ns`` call
carries an ``# repro: allow SB304`` pragma and its value flows only into
profiler state, never into simulation state.  The wrappers only time
the call they wrap, so even with profiling *on* the RunResult is
unchanged (regression-tested) — the profiler only observes.

Overhead note: with profiling on, each scope entry/exit costs two host
clock reads, so the *absolute* wall time of a profiled run is inflated
(most visibly for the very short signature scopes); the attribution is
for steering optimization effort, not for quoting absolute throughput —
quote ``repro bench`` numbers without ``--profile`` for that.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, MetricsStream

SCHEMA = "repro-profile-v1"

# -- scope names (the profiled subsystems) -----------------------------
ENGINE_DISPATCH = "engine.dispatch"
NOC_TRANSIT = "noc.transit"
DIR_HANDLER = "dir.handler"
SIG_INSERT = "sig.insert"
SIG_MEMBER = "sig.member"
SIG_INTERSECT = "sig.intersect"
CST_CONFLICT = "cst.conflict"
MACHINE_PREWARM = "machine.prewarm"

#: Share of wall time outside every profiled scope (event-queue heap
#: operations, core/workload callbacks' own work, stats, interpreter).
OTHER = "other"

HOT_SCOPES = (ENGINE_DISPATCH, NOC_TRANSIT, DIR_HANDLER, CST_CONFLICT,
              MACHINE_PREWARM, SIG_INSERT, SIG_MEMBER, SIG_INTERSECT)

_CLOCK = time.perf_counter_ns  # repro: allow SB304


class ScopeStats:
    """Aggregate for one scope name."""

    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class HostProfiler:
    """Scoped host-time aggregation with self-time attribution.

    ``enter``/``exit`` maintain an explicit scope stack; exiting charges
    the elapsed time to the scope's total, the elapsed time minus nested
    children to its self time, and records the (parent, child) edge for
    the flame-style rendering.  All state is host-side only.
    """

    __slots__ = ("_stack", "scopes", "edges", "_t_start_ns", "_t_stop_ns",
                 "stream", "provenance", "_clock")

    def __init__(self, stream: Optional[MetricsStream] = None,
                 provenance: Optional[Dict[str, Any]] = None,
                 _clock: Callable[[], int] = _CLOCK) -> None:
        self._stack: List[list] = []
        self.scopes: Dict[str, ScopeStats] = {}
        #: (parent scope or None, child scope) -> [count, total_ns]
        self.edges: Dict[Tuple[Optional[str], str], List[int]] = {}
        self._t_start_ns: Optional[int] = None
        self._t_stop_ns: Optional[int] = None
        self.stream = stream
        self.provenance = dict(provenance or {})
        self._clock = _clock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor the run's wall clock (first call wins; attach calls it)."""
        if self._t_start_ns is None:
            self._t_start_ns = self._clock()

    def stop(self, sim_time: int = 0) -> None:
        """Stop the wall clock and flush the final metrics snapshot."""
        if self._t_stop_ns is None:
            self._t_stop_ns = self._clock()
        if self.stream is not None:
            self.stream.close(sim_time, self._t_stop_ns, self)

    @property
    def wall_ns(self) -> int:
        if self._t_start_ns is None:
            return 0
        end = self._t_stop_ns if self._t_stop_ns is not None else self._clock()
        return end - self._t_start_ns

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def exit(self) -> None:
        frame = self._stack.pop()
        dt = self._clock() - frame[1]
        name = frame[0]
        stats = self.scopes.get(name)
        if stats is None:
            stats = ScopeStats()
            self.scopes[name] = stats
        stats.count += 1
        stats.total_ns += dt
        stats.self_ns += dt - frame[2]
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += dt
            key: Tuple[Optional[str], str] = (parent[0], name)
        else:
            key = (None, name)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, dt]
        else:
            edge[0] += 1
            edge[1] += dt

    def scoped(self, name: str, fn: Callable[..., Any],
               close: Optional[Callable[[], None]] = None
               ) -> Callable[..., Any]:
        """``fn`` wrapped in a ``name`` scope.

        The scope closes in a ``finally``, so a call that raises leaves
        the stack balanced.  ``close`` replaces :meth:`exit` as the
        closing call (the dispatch scope also drives metrics snapshots).
        """
        enter = self.enter
        if close is None:
            close = self.exit

        def scope(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return scope

    def exit_dispatch(self, sim_time: int) -> None:
        """Exit the dispatch scope + drive the metrics snapshot clock.

        Called once per executed simulator event; the snapshot check is
        one integer compare when no interval boundary was crossed.
        """
        self.exit()
        stream = self.stream
        if stream is not None and sim_time >= stream.next_time:
            stream.take(sim_time, self._clock(), self)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def scope_json(self) -> Dict[str, Dict[str, int]]:
        """Cumulative per-scope numbers (used by metrics snapshots)."""
        return {name: {"count": s.count, "total_ns": s.total_ns,
                       "self_ns": s.self_ns}
                for name, s in sorted(self.scopes.items())}

    def report(self) -> "ProfileReport":
        return ProfileReport(self)


class ProfileReport:
    """Attribution report: per-scope shares of run wall time."""

    def __init__(self, profiler: HostProfiler) -> None:
        self.wall_ns = max(1, profiler.wall_ns)
        self.scopes = {name: (s.count, s.total_ns, s.self_ns)
                       for name, s in profiler.scopes.items()}
        self.edges = {key: (e[0], e[1]) for key, e in profiler.edges.items()}
        self.provenance = dict(profiler.provenance)

    # ------------------------------------------------------------------
    def shares(self) -> Dict[str, float]:
        """Self-time share of wall per scope, plus ``other``; sums to 100.

        Self times are disjoint by construction (nested child time is
        subtracted from the parent), so their sum is the total time
        spent inside profiled scopes; ``other`` is the remainder.
        """
        out = {name: 100.0 * self_ns / self.wall_ns
               for name, (_, _, self_ns) in sorted(self.scopes.items())}
        out[OTHER] = max(0.0, 100.0 - sum(out.values()))
        return out

    # ------------------------------------------------------------------
    def _children(self, parent: Optional[str]) -> List[Tuple[str, int, int]]:
        """(name, count, edge total) under ``parent``, biggest first."""
        kids = [(child, cnt, total)
                for (par, child), (cnt, total) in self.edges.items()
                if par == parent]
        return sorted(kids, key=lambda k: (-k[2], k[0]))

    @staticmethod
    def _fmt_ns(ns: float) -> str:
        if ns >= 1e9:
            return f"{ns / 1e9:.2f} s"
        if ns >= 1e6:
            return f"{ns / 1e6:.1f} ms"
        return f"{ns / 1e3:.0f} us"

    def render(self) -> str:
        """Flame-style text tree + the flat share table."""
        lines: List[str] = []
        total_events = self.scopes.get(ENGINE_DISPATCH, (0, 0, 0))[0]
        lines.append(
            f"host-time attribution — wall {self._fmt_ns(self.wall_ns)}"
            + (f", {total_events:,} events dispatched" if total_events else ""))
        lines.append(f"  {'scope':28s} {'calls':>12s} {'total':>10s} "
                     f"{'self':>10s} {'self%':>6s}")

        # A scope can sit under several parents (noc.transit is called
        # both from dispatched callbacks and from inside dir.handler);
        # self time is per *scope*, so print it only at the first
        # (edge-heaviest) occurrence and mark repeats with a dot.
        seen: set = set()

        def walk(parent: Optional[str], depth: int) -> None:
            for child, cnt, edge_total in self._children(parent):
                label = "  " * depth + child
                if child in seen:
                    lines.append(f"  {label:28s} {cnt:12,d} "
                                 f"{self._fmt_ns(edge_total):>10s} "
                                 f"{'·':>10s} {'·':>6s}")
                else:
                    seen.add(child)
                    _, _, self_ns = self.scopes[child]
                    share = 100.0 * self_ns / self.wall_ns
                    bar = "#" * max(0, min(20, round(share / 5)))
                    lines.append(f"  {label:28s} {cnt:12,d} "
                                 f"{self._fmt_ns(edge_total):>10s} "
                                 f"{self._fmt_ns(self_ns):>10s} "
                                 f"{share:5.1f}% {bar}")
                walk(child, depth + 1)

        walk(None, 0)
        other = self.shares()[OTHER]
        lines.append(f"  {OTHER + ' (unprofiled: heap, cores, stats)':28s} "
                     f"{'-':>12s} {'-':>10s} "
                     f"{self._fmt_ns(self.wall_ns * other / 100):>10s} "
                     f"{other:5.1f}% {'#' * max(0, min(20, round(other / 5)))}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": SCHEMA,
            "wall_ns": self.wall_ns,
            "scopes": {name: {"count": cnt, "total_ns": total,
                              "self_ns": self_ns}
                       for name, (cnt, total, self_ns)
                       in sorted(self.scopes.items())},
            "edges": [[par, child, cnt, total]
                      for (par, child), (cnt, total)
                      in sorted(self.edges.items(),
                                key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "shares": self.shares(),
        }
        doc.update(self.provenance)
        return doc


def aggregate_profiles(docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-run ``ProfileReport.to_json()`` documents into one.

    Counts, totals and wall time add; shares are recomputed against the
    summed wall so they still sum to 100% ± rounding.
    """
    wall = 0
    scopes: Dict[str, Dict[str, int]] = {}
    for doc in docs:
        wall += int(doc.get("wall_ns", 0))
        for name, rec in doc.get("scopes", {}).items():
            agg = scopes.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0})
            for key in agg:
                agg[key] += int(rec.get(key, 0))
    wall = max(1, wall)
    shares = {name: 100.0 * rec["self_ns"] / wall
              for name, rec in sorted(scopes.items())}
    shares[OTHER] = max(0.0, 100.0 - sum(shares.values()))
    return {"schema": SCHEMA, "runs": len(docs), "wall_ns": wall,
            "scopes": scopes, "shares": shares}


def render_share_line(shares: Dict[str, float], top: int = 4) -> str:
    """One-line breakdown, biggest subsystems first (bench output)."""
    ranked = sorted(((v, k) for k, v in shares.items() if k != OTHER),
                    reverse=True)
    parts = [f"{name} {value:.1f}%" for value, name in ranked[:top]]
    parts.append(f"{OTHER} {shares.get(OTHER, 0.0):.1f}%")
    return " | ".join(parts)


# ----------------------------------------------------------------------
# Attachment
# ----------------------------------------------------------------------
def _scoped_signature_cls(profiler: HostProfiler) -> type:
    """A :class:`BulkSignature` subclass whose hot operations open scopes.

    ``BulkSignature`` has ``__slots__``, so its instances cannot take
    per-instance wrappers; the factory hands out this subclass instead.
    """
    from repro.signatures.bulk_signature import BulkSignature

    scoped = profiler.scoped

    class ScopedSignature(BulkSignature):
        __slots__ = ()
        insert = scoped(SIG_INSERT, BulkSignature.insert)
        insert_many = scoped(SIG_INSERT, BulkSignature.insert_many)
        contains = scoped(SIG_MEMBER, BulkSignature.contains)
        intersects = scoped(SIG_INTERSECT, BulkSignature.intersects)

    return ScopedSignature


def attach_profiler(machine: Any,
                    profiler: Optional[HostProfiler] = None) -> HostProfiler:
    """Attach ``profiler`` (or a fresh one) to every profiled hot path.

    Call before ``machine.run()``.  Each hot path gets a per-instance
    wrapper; signatures the factory hands out from now on are scoped.
    The profiler reads the host clock and writes only its own state:
    simulation behaviour is unchanged whether or not one is attached.
    """
    if profiler is None:
        profiler = HostProfiler()
    scoped = profiler.scoped
    sim = machine.sim

    def dispatch_scope(callback: Callable[[], None]) -> Callable[[], None]:
        return scoped(ENGINE_DISPATCH, callback,
                      lambda: profiler.exit_dispatch(sim.now))

    schedule_at = sim.schedule_at

    def scheduled(time: int, callback: Callable[[], None],
                  tag: Any = None) -> Any:
        return schedule_at(time, dispatch_scope(callback), tag=tag)

    sim.schedule_at = scheduled
    for event in sim._heap:          # events queued before attach
        event.callback = dispatch_scope(event.callback)

    network = machine.network
    network._send = scoped(NOC_TRANSIT, network._send)
    machine.sig_factory._signature_cls = _scoped_signature_cls(profiler)
    for directory in machine.directories:
        directory._dispatch = scoped(DIR_HANDLER, directory._dispatch)
        collides = getattr(directory, "_collides", None)
        if collides is not None:     # ScalableBulk directories only
            directory._collides = scoped(CST_CONFLICT, collides)
    machine.prewarm = scoped(MACHINE_PREWARM, machine.prewarm)
    profiler.start()
    return profiler


def make_profiler(config: Any = None, *, metrics_interval: Optional[int] = None,
                  metrics_out: Any = None,
                  keep_snapshots: bool = False) -> HostProfiler:
    """Build a profiler, optionally with a provenance-stamped metrics stream.

    ``metrics_interval`` (simulated cycles) without ``metrics_out``
    streams to an in-memory sink (snapshots still drive the bounded
    registry and, with ``keep_snapshots``, the Perfetto tracks).
    """
    from repro.provenance import provenance
    prov = provenance(config)
    stream = None
    if metrics_interval:
        import io
        sink = str(metrics_out) if metrics_out else io.StringIO()
        stream = MetricsStream(sink, metrics_interval,
                               registry=MetricsRegistry(), provenance=prov,
                               keep=keep_snapshots)
    return HostProfiler(stream=stream, provenance=prov)


# ----------------------------------------------------------------------
# CLI: ``python -m repro profile``
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="run one app with the host-time self-profiler attached "
                    "(see docs/performance.md, 'Profiling the simulator')")
    parser.add_argument("app", help="application profile (see `repro apps`)")
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--protocol", default="scalablebulk")
    parser.add_argument("--chunks", type=int, default=3,
                        help="chunks per partition")
    parser.add_argument("--partitions", type=int, default=None,
                        help="total partitions (fixes total work; large "
                             "values make long fixed-footprint runs)")
    parser.add_argument("--metrics-interval", type=int, metavar="CYCLES",
                        help="stream a bounded metrics snapshot every "
                             "CYCLES simulated cycles")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="JSONL destination for metrics snapshots "
                             "(default: in-memory)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the attribution report as JSON")
    parser.add_argument("--perfetto", metavar="PATH",
                        help="write profiler counter/slice tracks as a "
                             "Perfetto trace (needs --metrics-interval)")
    args = parser.parse_args(argv)

    if args.perfetto and not args.metrics_interval:
        parser.error("--perfetto needs --metrics-interval (the snapshots "
                     "become the counter samples)")

    from repro.config import ProtocolKind, SystemConfig
    from repro.harness.runner import run_app

    proto = {p.value.lower(): p for p in ProtocolKind}[args.protocol.lower()]
    config = SystemConfig(n_cores=args.cores, protocol=proto)
    profiler = make_profiler(config, metrics_interval=args.metrics_interval,
                             metrics_out=args.metrics_out,
                             keep_snapshots=bool(args.perfetto))
    result = run_app(args.app, n_cores=args.cores, protocol=proto,
                     chunks_per_partition=args.chunks,
                     n_partitions=args.partitions, profile=profiler)

    wall_s = profiler.wall_ns / 1e9
    print(f"{args.app} on {args.cores} cores ({proto.value}): "
          f"{result.total_cycles:,} cycles, "
          f"{result.chunks_committed} chunks committed, "
          f"{result.total_cycles / max(wall_s, 1e-9):,.0f} cycles/sec "
          f"(profiled)")
    print()
    report = profiler.report()
    print(report.render())

    stream = profiler.stream
    if stream is not None:
        registry_size = stream.registry.size()
        print(f"\nmetrics: {stream.snapshots_written} snapshots every "
              f"{stream.interval} cycles ({registry_size[0]} counters, "
              f"{registry_size[1]} fixed histograms — bounded)"
              + (f" -> {args.metrics_out}" if args.metrics_out else
                 " (in-memory sink)"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"report JSON -> {args.json}")
    if args.perfetto:
        from repro.obs.export import to_perfetto_profile, validate_perfetto
        assert stream is not None
        doc = to_perfetto_profile(stream.snapshots, args.perfetto)
        problems = validate_perfetto(doc)
        print(f"perfetto profile tracks ({len(doc['traceEvents'])} events) "
              f"-> {args.perfetto}"
              + (f" [INVALID: {problems[0]}]" if problems else ""))
        if problems:
            return 1
    return 0


__all__ = ["CST_CONFLICT", "DIR_HANDLER", "ENGINE_DISPATCH", "HOT_SCOPES",
           "HostProfiler", "MACHINE_PREWARM", "NOC_TRANSIT", "OTHER",
           "ProfileReport", "SCHEMA", "SIG_INSERT", "SIG_INTERSECT",
           "SIG_MEMBER", "ScopeStats", "aggregate_profiles",
           "attach_profiler", "main", "make_profiler", "render_share_line"]


if __name__ == "__main__":
    sys.exit(main())
