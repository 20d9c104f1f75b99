"""Realize a :class:`FaultPlan` against a freshly built machine.

:class:`FaultEngine` is the instrument (``Machine.run(instruments=...)``)
that turns the plan's specs into live hooks when it attaches:

* the three network faults (``latency-spike``, ``link-hotspot``,
  ``dir-stall``) compose into a single ``Network.delay_hook`` — chained
  via :func:`repro.network.noc.compose_delay_hooks` onto whatever hook is
  already installed (e.g. a schedule-exploration controller), never
  replacing it.  The NoC applies its per-(src, dst) FIFO clamp *after*
  the hook, so no fault can reorder a flow;
* ``squash-storm`` wraps each ScalableBulk directory's admission step
  (``_maybe_advance``): while the window is open, a ready, unheld group
  is failed with the storm's probability — exactly the legal
  genuine-collision path (``_fail_group``), so safety is preserved while
  starvation pressure builds.  The module's reserved chunk is always
  spared, as the reservation rule requires;
* ``core-jitter`` wraps one core's ``request_commit``: initial commit
  requests issued inside the window are deferred by a drawn number of
  cycles (the chunk stays COMMITTING; the deferred send is skipped if the
  chunk was squashed or displaced meanwhile).

Every random draw comes from a substream of the plan seed (one per fault,
labelled by index and kind), so the same plan takes the same decisions in
any process.  An empty plan installs nothing at all: the machine stays on
the exact seed code path, byte for byte.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.cpu.chunk import ChunkState
from repro.engine.rng import DeterministicRng
from repro.faults.plan import FaultPlan, FaultSpec
from repro.network.message import Message, dir_node
from repro.network.noc import compose_delay_hooks
from repro.obs.bus import NullBus

#: per-message extra-delay contribution of one network fault
_NetFault = Callable[[Message], int]


def _in_window(now: int, spec: FaultSpec) -> bool:
    start = int(spec["start"])
    return start <= now < start + int(spec["duration"])


class FaultEngine(NullBus):
    """The instrument that installs a plan's injectors on the machine it
    attaches to."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.machine: Any = None
        self._root = DeterministicRng(plan.seed, "faults")
        #: count of injector activations, by fault index (diagnostics)
        self.activations: List[int] = [0] * len(plan.faults)

    def attach(self, machine: Any) -> None:
        self.machine = machine
        net_faults: List[_NetFault] = []
        for index, spec in enumerate(self.plan.faults):
            rng = self._root.split(f"{index}:{spec.kind}")
            if spec.kind == "latency-spike":
                net_faults.append(self._latency_spike(index, spec, rng))
            elif spec.kind == "link-hotspot":
                net_faults.append(self._link_hotspot(index, spec))
            elif spec.kind == "dir-stall":
                net_faults.append(self._dir_stall(index, spec))
            elif spec.kind == "squash-storm":
                self._install_storm(index, spec, rng)
            elif spec.kind == "core-jitter":
                self._install_jitter(index, spec, rng)
            else:  # pragma: no cover - FaultSpec.make already validates
                raise ValueError(f"unknown fault kind {spec.kind!r}")
        if net_faults:
            network = self.machine.network

            def fault_delays(msg: Message, latency: int) -> int:
                del latency
                return sum(f(msg) for f in net_faults)

            network.delay_hook = compose_delay_hooks(network.delay_hook,
                                                     fault_delays)

    # ------------------------------------------------------------------
    # Network faults (delay_hook contributions)
    # ------------------------------------------------------------------
    def _latency_spike(self, index: int, spec: FaultSpec,
                       rng: DeterministicRng) -> _NetFault:
        sim = self.machine.sim
        extra = int(spec["extra"])
        jitter = int(spec["jitter"])

        def fault(msg: Message) -> int:
            del msg
            if not _in_window(sim.now, spec):
                return 0
            self.activations[index] += 1
            return extra + (rng.randint(0, jitter) if jitter > 0 else 0)

        return fault

    def _link_hotspot(self, index: int, spec: FaultSpec) -> _NetFault:
        sim = self.machine.sim
        network = self.machine.network
        tile = int(spec["tile"]) % network.topology.n_tiles
        extra = int(spec["extra"])

        def fault(msg: Message) -> int:
            if not _in_window(sim.now, spec):
                return 0
            if tile not in (network.tile_of(msg.src),
                            network.tile_of(msg.dst)):
                return 0
            self.activations[index] += 1
            return extra

        return fault

    def _dir_stall(self, index: int, spec: FaultSpec) -> _NetFault:
        sim = self.machine.sim
        target = dir_node(int(spec["dir"])
                          % self.machine.config.n_directories)
        extra = int(spec["extra"])

        def fault(msg: Message) -> int:
            if msg.dst != target or not _in_window(sim.now, spec):
                return 0
            self.activations[index] += 1
            return extra

        return fault

    # ------------------------------------------------------------------
    # Squash storm (ScalableBulk directories only)
    # ------------------------------------------------------------------
    def _install_storm(self, index: int, spec: FaultSpec,
                       rng: DeterministicRng) -> None:
        # Imported here so the baseline-protocol path never touches the
        # ScalableBulk engine module.
        from repro.core.directory_engine import ScalableBulkDirectory
        sim = self.machine.sim
        prob = float(spec["prob"])
        for directory in self.machine.directories:
            if not isinstance(directory, ScalableBulkDirectory):
                continue
            self._wrap_storm(directory, spec, rng, prob, sim, index)

    def _wrap_storm(self, directory: Any, spec: FaultSpec,
                    rng: DeterministicRng, prob: float, sim: Any,
                    index: int) -> None:
        inner = directory._maybe_advance

        def advance(entry: Any) -> None:
            if (_in_window(sim.now, spec)
                    and entry.ready() and not entry.held
                    and self._storm_eligible(directory, entry)
                    and rng.bernoulli(prob)):
                self.activations[index] += 1
                directory._fail_group(entry)
                return
            inner(entry)

        directory._maybe_advance = advance

    @staticmethod
    def _storm_eligible(directory: Any, entry: Any) -> bool:
        """Never storm the module's reserved chunk: the reservation rule
        guarantees it wins here, and the storm must not break that."""
        tag = entry.cid[0]
        return directory.reserved_for != (tag.core, tag.seq)

    # ------------------------------------------------------------------
    # Core-side jitter
    # ------------------------------------------------------------------
    def _install_jitter(self, index: int, spec: FaultSpec,
                        rng: DeterministicRng) -> None:
        core_id = int(spec["core"]) % self.machine.config.n_cores
        core = self.machine.cores[core_id]
        engine = core.engine
        sim = self.machine.sim
        max_extra = max(1, int(spec["max_extra"]))
        inner = engine.request_commit

        def request(chunk: Any) -> None:
            if not _in_window(sim.now, spec):
                inner(chunk)
                return
            self.activations[index] += 1
            delay = rng.randint(1, max_extra)

            def fire() -> None:
                # Skip if the chunk was squashed (it re-requests via the
                # respec path) or is no longer the committing head.
                if (chunk.state is ChunkState.COMMITTING
                        and core.committing_head is chunk):
                    inner(chunk)

            sim.schedule(delay, fire)

        engine.request_commit = request


__all__ = ["FaultEngine"]
