"""Run one perturbation against one scenario: the checkers' inner loop.

A :class:`Perturbation` is one serializable value: a :class:`Schedule`
(tie-break and delivery-delay decisions) plus a seeded
:class:`~repro.faults.plan.FaultPlan` (timing faults).  ``repro explore``
generates schedules, ``repro chaos`` generates plans, ``repro lint
--confirm`` probes with randomized schedules; all three run them through
:func:`run_perturbation`, which builds a fresh machine, applies the
mutation, and runs it with the schedule controller, the fault engine,
any extra instruments, the invariant monitor and an optional liveness
watchdog as its instruments.  The
result carries the *realized* perturbation, so any run (exhaustive,
random, chaos or replayed) reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore.controller import Schedule, ScheduleController
from repro.analysis.explore.invariants import ExploreViolation, InvariantMonitor
from repro.analysis.explore.mutations import Mutation
from repro.analysis.explore.scenarios import Scenario, build_machine
from repro.engine.rng import DeterministicRng
from repro.faults.injectors import FaultEngine
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import LivenessWatchdog
from repro.obs.bus import NullBus

#: invariant codes that mean "serializability / protocol soundness broke"
SAFETY_CODES = frozenset({"SB401", "SB402", "SB405", "SB406"})
#: the failure label of a run only the liveness watchdog flagged
WATCHDOG = "watchdog"

#: one shrinkable part: ("tie", choice point, pick), ("delay", send,
#: extra) or ("fault", index, FaultSpec)
Part = Tuple[str, int, Any]


@dataclass
class Perturbation:
    """Schedule decisions plus timing faults: everything a run varies."""

    schedule: Schedule = field(default_factory=Schedule)
    plan: FaultPlan = field(default_factory=FaultPlan.empty)

    def parts(self) -> List[Part]:
        """The non-default decisions and the faults: what shrinking drops."""
        ties = [("tie", k, pick)
                for k, pick in enumerate(self.schedule.ties) if pick]
        delays = [("delay", idx, extra)
                  for idx, extra in sorted(self.schedule.delays.items())
                  if extra]
        faults = [("fault", i, spec) for i, spec in enumerate(self.plan.faults)]
        return ties + delays + faults

    def with_parts(self, parts: List[Part]) -> "Perturbation":
        """The same plan identity, keeping only ``parts``."""
        ties: List[int] = []
        delays: Dict[int, int] = {}
        faults = []
        for kind, key, value in parts:
            if kind == "tie":
                ties.extend([0] * (key + 1 - len(ties)))
                ties[key] = value
            elif kind == "delay":
                delays[key] = value
            else:
                faults.append(value)
        return Perturbation(Schedule(ties=ties, delays=delays),
                            self.plan.with_faults(faults))


@dataclass
class PerturbationResult:
    """Everything one perturbed run produced."""

    scenario: Scenario
    perturbation: Perturbation         #: realized schedule + the plan run
    violations: List[ExploreViolation] = field(default_factory=list)
    watchdog: Optional[int] = None     #: watchdog window, if one watched
    watchdog_fires: List[Dict[str, Any]] = field(default_factory=list)
    choice_counts: List[int] = field(default_factory=list)
    sends: int = 0                     #: messages injected
    activations: List[int] = field(default_factory=list)  #: per fault
    cycles: int = 0                    #: cycle the machine finished at
    commits: int = 0
    mutation: Optional[str] = None     #: mutation name, if one was applied

    @property
    def schedule(self) -> Schedule:
        return self.perturbation.schedule

    @property
    def plan(self) -> FaultPlan:
        return self.perturbation.plan

    @property
    def codes(self) -> List[str]:
        """Violation rule codes, first occurrence order, deduplicated."""
        return list(dict.fromkeys(v.code for v in self.violations))

    @property
    def labels(self) -> List[str]:
        """The codes, then :data:`WATCHDOG` if the watchdog fired: what a
        shrink must keep and a replay must reproduce."""
        return self.codes + ([WATCHDOG] if self.watchdog_fires else [])

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.watchdog_fires)

    @property
    def safety_codes(self) -> List[str]:
        return [c for c in self.codes if c in SAFETY_CODES]


def run_perturbation(scenario: Scenario,
                     perturbation: Optional[Perturbation] = None,
                     mutation: Optional[Mutation] = None, *,
                     watchdog: Optional[int] = None,
                     tie_rng: Optional[DeterministicRng] = None,
                     delay_rng: Optional[DeterministicRng] = None,
                     delay_prob: float = 0.15,
                     max_delay: int = 24,
                     instruments: Sequence[NullBus] = ()
                     ) -> PerturbationResult:
    """Build, mutate, perturb, watch, run, and collect what happened.

    The mutation is applied to the built machine; everything else
    attaches through ``Machine.run``'s instrument list.
    ``tie_rng``/``delay_rng`` extend the schedule past its prescribed
    decisions (random exploration).  ``watchdog`` attaches a liveness
    watchdog with that window.  ``instruments`` (e.g. a recorder, so the
    run can be traced and its commit critical path analyzed) attach
    after the perturbation and before the invariant monitor.
    """
    perturbation = perturbation or Perturbation()
    machine = build_machine(scenario)
    if mutation is not None:
        mutation.apply(machine)
    controller = ScheduleController(
        perturbation.schedule, tie_rng=tie_rng, delay_rng=delay_rng,
        delay_prob=delay_prob, max_delay=max_delay)
    faults = FaultEngine(perturbation.plan)
    monitor = InvariantMonitor(expected_per_core=scenario.chunks_per_core)
    dog = LivenessWatchdog(window=watchdog) if watchdog else None
    try:
        machine.run(max_events=scenario.max_events, prewarm=False,
                    instruments=[controller, faults, *instruments, monitor,
                                 *([dog] if dog else [])])
    except RuntimeError:
        pass  # the monitor's finish recorded it as SB403/SB404
    cores = machine.cores
    # A finished machine ends when its last core does, not at a trailing
    # watchdog check; an unfinished one where the run stopped.
    finished = all(c.finished for c in cores)
    return PerturbationResult(
        scenario=scenario,
        perturbation=Perturbation(controller.realized.trimmed(),
                                  perturbation.plan),
        violations=list(monitor.violations),
        watchdog=watchdog,
        watchdog_fires=[f.to_json() for f in dog.fires] if dog else [],
        choice_counts=list(controller.choice_counts),
        sends=controller.sends,
        activations=list(faults.activations),
        cycles=(max(int(c.stats.finish_time) for c in cores) if finished
                else int(machine.sim.now)),
        commits=sum(int(c.stats.chunks_committed) for c in cores),
        mutation=mutation.name if mutation is not None else None,
    )


__all__ = ["Part", "Perturbation", "PerturbationResult",
           "SAFETY_CODES", "WATCHDOG", "run_perturbation"]
