"""Exploration strategies: exhaustive DFS and seeded random sampling.

*Exhaustive* walks the tie-break decision tree depth-first by prefix
extension: run the empty schedule, learn the branching factor at every
choice point it encountered, then for each choice point within ``depth``
enqueue the non-default alternatives.  Each decision vector is generated
by exactly one parent prefix, so the walk never runs a schedule twice.
Delays stay off: tie-breaks already cover every same-cycle ordering, and
the tree stays small enough to finish within the CI budget.

*Random* draws both tie-breaks and (optionally) bounded delivery delays
from per-iteration :class:`DeterministicRng` streams, so any iteration of
any seed is independently reproducible; the realized schedule in the
result replays without the RNG.

The *mutation check* (:func:`check_mutation`) runs both generators'
views of one seeded bug: nominal exploration, and one run under the
storm-heavy stress fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.driver import (Perturbation, PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.mutations import MUTATIONS, Mutation
from repro.analysis.explore.scenarios import SCENARIOS, Scenario
from repro.engine.rng import DeterministicRng
from repro.faults.plan import stress_plan
from repro.faults.watchdog import DEFAULT_WINDOW

#: exploration knobs: ``repro explore``'s defaults, and the nominal
#: budget of ``repro chaos --mutation-check``
DEFAULT_KNOBS: Dict[str, Any] = {
    "mode": "exhaustive", "schedules": 200, "depth": 12, "seed": 0}


@dataclass
class ExplorationReport:
    """Outcome of one exploration sweep over one scenario."""

    schedules_run: int
    violation: Optional[PerturbationResult] = None   #: first failing run, if any

    @property
    def clean(self) -> bool:
        return self.violation is None


def explore_exhaustive(scenario: Scenario,
                       mutation: Optional[Mutation] = None, *,
                       max_schedules: int = 512,
                       depth: int = 12) -> ExplorationReport:
    """DFS over tie-break vectors, bounded by depth and schedule count.

    ``depth`` caps which choice points may deviate from the default order;
    ``max_schedules`` caps total runs so a mutated protocol with a huge
    tree still fails fast in CI.
    """
    frontier: List[List[int]] = [[]]
    runs = 0
    while frontier and runs < max_schedules:
        ties = frontier.pop()
        result = run_perturbation(
            scenario, Perturbation(Schedule(ties=list(ties))), mutation)
        runs += 1
        if result.failed:
            return ExplorationReport(runs, result)
        # Extend only at choice points at/after this vector's length: each
        # deeper vector then has a unique generating prefix (no dup runs).
        horizon = min(len(result.choice_counts), depth)
        for k in range(len(ties), horizon):
            for alt in range(result.choice_counts[k] - 1, 0, -1):
                frontier.append(ties + [0] * (k - len(ties)) + [alt])
    return ExplorationReport(runs)


def explore_random(scenario: Scenario,
                   mutation: Optional[Mutation] = None, *,
                   n_schedules: int = 64,
                   seed: int = 0,
                   with_delays: bool = False,
                   delay_prob: float = 0.15,
                   max_delay: int = 24) -> ExplorationReport:
    """Seeded random sampling; ``with_delays`` adds delay-bounded jitter."""
    for i in range(n_schedules):
        root = DeterministicRng(seed, f"explore/{i}")
        tie_rng = root.split("ties")
        delay_rng = root.split("delays") if with_delays else None
        result = run_perturbation(
            scenario, None, mutation, tie_rng=tie_rng, delay_rng=delay_rng,
            delay_prob=delay_prob, max_delay=max_delay)
        if result.failed:
            return ExplorationReport(i + 1, result)
    return ExplorationReport(n_schedules)


def explore(scenario: Scenario, mutation: Optional[Mutation],
            knobs: Dict[str, Any]) -> ExplorationReport:
    """One sweep in ``knobs["mode"]``: exhaustive, random or delay."""
    if knobs["mode"] == "exhaustive":
        return explore_exhaustive(scenario, mutation,
                                  max_schedules=knobs["schedules"],
                                  depth=knobs["depth"])
    return explore_random(scenario, mutation,
                          n_schedules=knobs["schedules"], seed=knobs["seed"],
                          with_delays=knobs["mode"] == "delay")


def check_mutation(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The mutation check for one mutation (a pool worker over plain data).

    The mutation is explored nominally with ``payload["knobs"]`` and run
    once under the storm-heavy stress plan seeded by ``knobs["seed"]``.
    A nominal mutation passes when exploration catches it; a
    ``chaos_only`` one when the stress plan catches it and exploration
    demonstrably does not.
    """
    mutation = MUTATIONS[payload["mutation"]]
    scenario = SCENARIOS[mutation.scenario]
    knobs = payload["knobs"]
    expected = set(mutation.expected.split("/"))
    report = explore(scenario, mutation, knobs)
    nominal = report.violation.codes if report.violation else []
    chaos = run_perturbation(
        scenario, Perturbation(plan=stress_plan(knobs["seed"])), mutation,
        watchdog=DEFAULT_WINDOW).codes
    nominal_caught = bool(expected & set(nominal))
    chaos_caught = bool(expected & set(chaos))
    return {
        "mutation": mutation.name, "scenario": mutation.scenario,
        "chaos_only": mutation.chaos_only, "expected": mutation.expected,
        "schedules_run": report.schedules_run,
        "nominal_codes": nominal, "chaos_codes": chaos,
        "nominal_caught": nominal_caught, "chaos_caught": chaos_caught,
        "passed": (chaos_caught and not nominal_caught) if mutation.chaos_only
        else nominal_caught,
    }


__all__ = ["DEFAULT_KNOBS", "ExplorationReport", "check_mutation", "explore",
           "explore_exhaustive", "explore_random"]
