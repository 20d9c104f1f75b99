"""Chaos campaigns: the seeded plan rotation and the campaign worker.

One *campaign* is ``--plans N`` generated :class:`FaultPlan`\\ s, rotated
over a scenario set covering all four protocols.  Each plan runs through
the one perturbation harness
(:func:`repro.analysis.explore.driver.run_perturbation`) on a fresh machine with the liveness watchdog and the full invariant
monitor (oracle SB402, conformance SB405, co-held / doomed SB401,
accounting SB406, deadlock SB403, livelock SB404) attached.  Faults are
timing-level, so **every** plan must come back clean: a single safety or
liveness code, or a watchdog fire, is a finding, and the failing plan
ships as a shrunk, replayable artifact
(:func:`repro.analysis.explore.trace.counterexample`).

Workers are plain top-level functions over JSON payloads, so campaigns
fan out over ``harness.parallel.run_ordered`` (``--jobs N``) with
verdicts (and exit codes) identical to a serial run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.explore.driver import Perturbation, run_perturbation
from repro.analysis.explore.scenarios import SCENARIOS, Scenario
from repro.analysis.explore.trace import counterexample
from repro.analysis.mutations import MUTATIONS
from repro.config import ProtocolKind
from repro.engine.rng import DeterministicRng
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.watchdog import DEFAULT_WINDOW

#: the default campaign rotation: every protocol, both access patterns
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "cross3", "mixed3", "nack3", "mixed4", "tcc3", "bulksc3", "seq3",
)
#: shrink budget per failing plan (chaos runs are long; keep it small)
SHRINK_RUNS = 32


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def generate_plan(rng: DeterministicRng, name: str,
                  scenario: Scenario) -> FaultPlan:
    """Draw one random plan sized for ``scenario`` from ``rng``."""
    kinds = sorted(FAULT_KINDS)
    if scenario.protocol is not ProtocolKind.SCALABLEBULK:
        kinds.remove("squash-storm")  # a no-op on baseline machines
    seed = rng.randint(0, 2**31 - 1)
    faults: List[FaultSpec] = []
    for _ in range(rng.randint(1, 4)):
        faults.append(_draw_fault(rng, rng.choice(kinds), scenario))
    return FaultPlan(name=name, seed=seed, faults=tuple(faults))


def _draw_fault(rng: DeterministicRng, kind: str,
                scenario: Scenario) -> FaultSpec:
    start = rng.randint(0, 2_000)
    duration = rng.randint(500, 6_000)
    if kind == "latency-spike":
        return FaultSpec.make(kind, start=start, duration=duration,
                              extra=rng.randint(5, 40),
                              jitter=rng.randint(0, 20))
    if kind == "link-hotspot":
        return FaultSpec.make(kind, start=start, duration=duration,
                              tile=rng.randint(0, scenario.n_cores - 1),
                              extra=rng.randint(10, 60))
    if kind == "dir-stall":
        return FaultSpec.make(kind, start=start, duration=duration,
                              dir=rng.randint(0, scenario.n_cores - 1),
                              extra=rng.randint(10, 60))
    if kind == "squash-storm":
        return FaultSpec.make(kind, start=start, duration=duration,
                              prob=rng.randint(30, 80) / 100)
    if kind == "core-jitter":
        return FaultSpec.make(kind, start=start, duration=duration,
                              core=rng.randint(0, scenario.n_cores - 1),
                              max_extra=rng.randint(5, 50))
    raise ValueError(f"unknown fault kind {kind!r}")


def generate_campaign(seed: int, n_plans: int,
                      scenario_names: Sequence[str] = DEFAULT_SCENARIOS
                      ) -> List[Tuple[str, FaultPlan]]:
    """The campaign's (scenario name, plan) list, fully seed-determined."""
    root = DeterministicRng(seed, "chaos")
    out: List[Tuple[str, FaultPlan]] = []
    for i in range(n_plans):
        scenario_name = scenario_names[i % len(scenario_names)]
        rng = root.split(f"plan{i:04d}")
        out.append((scenario_name,
                    generate_plan(rng, f"plan-{i:04d}",
                                  SCENARIOS[scenario_name])))
    return out


def chaos_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign plan -> plain verdict dict (plus artifact on failure).

    ``payload["scenario"]`` is the scenario's JSON form, so a campaign's
    event budget travels with it.  ``payload["mutation"]`` (optional)
    names a seeded mutation to apply first: the campaign CLI never
    sets it, but tests use it to drive the failure/shrink path.
    """
    scenario = Scenario.from_json(payload["scenario"])
    plan = FaultPlan.from_json(payload["plan"])
    mutation = (MUTATIONS[payload["mutation"]]
                if payload.get("mutation") else None)
    result = run_perturbation(
        scenario, Perturbation(plan=plan), mutation,
        watchdog=payload.get("watchdog", DEFAULT_WINDOW))
    out: Dict[str, Any] = {
        "scenario": scenario.name,
        "plan_name": plan.name,
        "n_faults": len(plan.faults),
        "codes": result.codes,
        "labels": result.labels,
        "safety_codes": result.safety_codes,
        "watchdog_fires": len(result.watchdog_fires),
        "cycles": result.cycles,
        "commits": result.commits,
        "ok": not result.failed,
    }
    if result.failed:
        out["artifact"] = counterexample(
            result, mutation, minimize=payload.get("minimize", True),
            max_runs=SHRINK_RUNS)
    return out


__all__ = ["DEFAULT_SCENARIOS", "SHRINK_RUNS", "chaos_worker",
           "generate_campaign", "generate_plan"]
