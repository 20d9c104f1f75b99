"""Machine assembly and single-run execution.

A :class:`Machine` owns every simulated component, wired exactly like
Figure 1 of the paper: one tile per core with a private L1/L2 and a
directory module, all on a 2D torus, plus whatever central agent the
selected protocol needs.  :func:`run_app` is the one-call entry point used
by examples, tests and benchmarks.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.core import Core
from repro.engine.events import Simulator
from repro.memory.directory import DirectoryModule
from repro.memory.page_map import PageMapper
from repro.network.message import core_node, dir_node
from repro.network.noc import Network
from repro.obs.bus import NULL_BUS, NullBus, wire
from repro.protocols import make_protocol
from repro.signatures.bulk_signature import SignatureFactory
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import AppProfile, get_profile

#: Hard cap on simulator events per run — a livelocked protocol bug fails
#: loudly instead of hanging the suite.
DEFAULT_EVENT_GUARD = 200_000_000

#: prewarm page-memo sentinel ("not looked up yet" vs "unmapped page")
_UNRESOLVED = object()


@dataclass
class RunResult:
    """Everything a figure needs from one simulation run."""

    app: str
    protocol: ProtocolKind
    n_cores: int
    active_cores: int
    total_cycles: int

    useful_cycles: int
    miss_stall_cycles: int
    commit_stall_cycles: int
    squash_cycles: int

    chunks_committed: int
    squashes_conflict: int
    squashes_alias: int
    read_nacks: int

    mean_commit_latency: float
    mean_dirs_per_commit: float
    mean_write_dirs_per_commit: float
    bottleneck_ratio: float
    mean_queue_length: float

    traffic_by_class: Dict[str, int]
    total_messages: int

    machine: Optional["Machine"] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def breakdown_fractions(self) -> Dict[str, float]:
        """Useful/CacheMiss/Commit/Squash as fractions of accounted cycles."""
        total = (self.useful_cycles + self.miss_stall_cycles
                 + self.commit_stall_cycles + self.squash_cycles)
        if total == 0:
            return {"Useful": 0.0, "Cache Miss": 0.0, "Commit": 0.0,
                    "Squash": 0.0}
        return {
            "Useful": self.useful_cycles / total,
            "Cache Miss": self.miss_stall_cycles / total,
            "Commit": self.commit_stall_cycles / total,
            "Squash": self.squash_cycles / total,
        }

    def normalized_time(self, baseline_cycles: int) -> float:
        """Execution time normalized to a baseline run (Figs. 7/8 bars)."""
        return self.total_cycles / baseline_cycles if baseline_cycles else 0.0

    def speedup(self, baseline_cycles: int) -> float:
        return baseline_cycles / self.total_cycles if self.total_cycles else 0.0


class Machine:
    """A fully wired simulated multicore (Figure 1)."""

    def __init__(self, config: SystemConfig,
                 workload: Optional[SyntheticWorkload] = None,
                 next_spec=None) -> None:
        if workload is None and next_spec is None:
            raise ValueError("need a workload or a next_spec callback")
        self.config = config
        #: the instruments' fan-out (repro.obs); instruments that emit
        #: (watchdog, sanitizer) emit here
        self.obs: NullBus = NULL_BUS
        self.sim = Simulator()
        self.network = Network(config, self.sim)
        self.page_mapper = PageMapper(config.page_bytes, config.n_directories)
        self.sig_factory = SignatureFactory(
            total_bits=config.signature_bits, n_banks=config.signature_banks,
            seed=config.seed)
        self.workload = workload
        spec_source = next_spec or workload.next_spec
        if workload is not None:
            workload.premap_pages(self.page_mapper)

        self.protocol = make_protocol(config, self.sim, self.network,
                                      self.page_mapper, self.sig_factory)
        self.protocol.setup_agents()

        self.directories = []
        for d in range(config.n_directories):
            module = self.protocol.create_directory(d)
            self.network.register(dir_node(d), module.handle_message)
            self.directories.append(module)

        self.cores = []
        for c in range(config.n_cores):
            core = Core(c, config, self.sim, self.network, self.page_mapper,
                        self.sig_factory, spec_source)
            engine = self.protocol.create_engine(core)
            self.network.register(core_node(c), engine.handle_message)
            self.cores.append(core)

    # ------------------------------------------------------------------
    def prewarm(self) -> int:
        """Install the steady-state working sets (see the workload's
        ``prewarm_plan``), registering each fill as a sharer at the line's
        home directory so commit-time invalidation stays conservative."""
        if self.workload is None:
            return 0
        runs_source = getattr(self.workload, "prewarm_runs", None)
        if runs_source is not None:
            runs = runs_source()
        else:
            # Workloads without a run-level plan (e.g. trace files) fall
            # back to unit runs; the flattened fill sequence is identical.
            runs = ((core, line, 1)
                    for core, line in self.workload.prewarm_plan())
        filled = 0
        lines_per_page = self.config.page_bytes // self.config.line_bytes
        directories = self.directories
        lookup = self.page_mapper.lookup
        # page -> its home directory (None if unmapped); pages hold many
        # lines, so memoizing the home lookup per page takes the mapper
        # out of the per-line loop
        homes: Dict[int, Optional[DirectoryModule]] = {}
        # Pass 1: directory registration in plan order (the line-table
        # insertion order is observable downstream, so it must not change),
        # collecting each core's fill runs for the bulk pass.
        per_core_fills: List[List[range]] = [[] for _ in self.cores]
        for core_id, start, count in runs:
            end = start + count
            per_core_fills[core_id].append(range(start, end))
            filled += count
            line = start
            while line < end:
                page = line // lines_per_page
                # a run usually sits inside one page; a shared-slice run
                # can straddle a boundary, so register page segments
                seg_end = min(end, (page + 1) * lines_per_page)
                home = homes.get(page, _UNRESOLVED)
                if home is _UNRESOLVED:
                    home_id = lookup(page)
                    home = None if home_id is None else directories[home_id]
                    homes[page] = home
                if home is not None:
                    home.add_sharer(range(line, seg_end), core_id)
                line = seg_end
        # Pass 2: bulk-fill each L2.  Caches are per-core, so splitting the
        # interleaved plan by core preserves every cache's fill order (and
        # therefore residency, LRU state and eviction count) exactly.
        for core_id, fills in enumerate(per_core_fills):
            if fills:
                self.cores[core_id].hierarchy.l2.fill_many(
                    chain.from_iterable(fills))
        return filled

    def run(self, max_events: int = DEFAULT_EVENT_GUARD,
            prewarm: bool = True,
            instruments: Sequence[NullBus] = ()) -> None:
        """Run to completion, watched by ``instruments`` (see repro.obs).

        The instruments are wired and attached in list order before
        anything runs; each one's ``finish`` is called afterwards, last
        attached first, whether the run raised or not.
        """
        wire(self, instruments)
        with ExitStack() as finishing:
            for instrument in instruments:
                instrument.attach(self)
                finishing.push(
                    lambda _t, error, _tb, inst=instrument:
                    inst.finish(self, error))
            if prewarm:
                self.prewarm()
            for core in self.cores:
                core.start()
            self.sim.run(max_events=max_events)
            unfinished = [c.core_id for c in self.cores if not c.finished]
            if unfinished:
                raise RuntimeError(
                    f"simulation quiesced with unfinished cores {unfinished} "
                    f"at cycle {self.sim.now}")

    # ------------------------------------------------------------------
    def result(self, app: str, active_cores: int,
               keep_machine: bool = False) -> RunResult:
        stats = self.protocol.stats
        traffic = self.network.stats
        active = [c for c in self.cores if c.stats.chunks_started > 0]
        finish = max((c.stats.finish_time for c in self.cores), default=0)
        return RunResult(
            app=app,
            protocol=self.config.protocol,
            n_cores=self.config.n_cores,
            active_cores=active_cores,
            total_cycles=finish,
            useful_cycles=sum(c.stats.useful_cycles for c in active),
            miss_stall_cycles=sum(c.stats.miss_stall_cycles for c in active),
            commit_stall_cycles=sum(c.stats.commit_stall_cycles for c in active),
            squash_cycles=sum(c.stats.squash_cycles for c in active),
            chunks_committed=sum(c.stats.chunks_committed for c in active),
            squashes_conflict=sum(c.stats.squashes_conflict for c in active),
            squashes_alias=sum(c.stats.squashes_alias for c in active),
            read_nacks=sum(c.stats.read_nacks for c in active),
            mean_commit_latency=stats.mean_commit_latency(),
            mean_dirs_per_commit=stats.mean_dirs_per_commit(),
            mean_write_dirs_per_commit=stats.mean_write_dirs_per_commit(),
            bottleneck_ratio=stats.bottleneck_ratio(),
            mean_queue_length=stats.mean_queue_length(),
            traffic_by_class={
                tc.value: n for tc, n in traffic.messages_by_class.items()},
            total_messages=traffic.total_messages,
            machine=self if keep_machine else None,
        )


class SimulationRunner:
    """Convenience wrapper: profile + parameters -> RunResult."""

    def __init__(self, app: str, config: SystemConfig, *,
                 active_cores: Optional[int] = None,
                 chunks_per_partition: int = 4,
                 n_partitions: Optional[int] = None,
                 access_scale: float = 1.0) -> None:
        self.profile: AppProfile = get_profile(app)
        self.config = config
        self.active_cores = active_cores or config.n_cores
        self.workload = SyntheticWorkload(
            self.profile, config, active_cores=self.active_cores,
            chunks_per_partition=chunks_per_partition,
            n_partitions=n_partitions, access_scale=access_scale)

    def run(self, keep_machine: bool = False,
            max_events: int = DEFAULT_EVENT_GUARD,
            instruments: Sequence[NullBus] = ()) -> RunResult:
        machine = Machine(self.config, workload=self.workload)
        machine.run(max_events=max_events, instruments=instruments)
        return machine.result(self.profile.name, self.active_cores,
                              keep_machine=keep_machine)


def run_app(app: str, *, n_cores: int = 16,
            protocol: ProtocolKind = ProtocolKind.SCALABLEBULK,
            active_cores: Optional[int] = None, chunks_per_partition: int = 4,
            n_partitions: Optional[int] = None, access_scale: float = 1.0,
            keep_machine: bool = False,
            instruments: Sequence[NullBus] = (),
            **config_overrides) -> RunResult:
    """One-call experiment: build the Table 2 machine and run one app.

    ``instruments`` watch the run (``Machine.run``): e.g.
    ``[InstrumentationBus()]`` records a trace, ``[InvalidationOracle()]``
    raises at the end of the run if any commit missed a conflicting chunk
    (and refuses any protocol but ScalableBulk before the run starts),
    ``[HostProfiler()]`` attributes host time, ``[FaultEngine(plan),
    LivenessWatchdog(window=w)]`` injects faults and watches progress.
    Observers leave the simulated run byte-identical.
    """
    config = SystemConfig(n_cores=n_cores, protocol=protocol,
                          **config_overrides)
    runner = SimulationRunner(
        app, config, active_cores=active_cores,
        chunks_per_partition=chunks_per_partition,
        n_partitions=n_partitions, access_scale=access_scale)
    return runner.run(keep_machine=keep_machine, instruments=instruments)


__all__ = ["DEFAULT_EVENT_GUARD", "Machine", "RunResult", "SimulationRunner",
           "run_app"]
