"""Schedule exploration: a stateless model checker for the real engines.

The packages under here drive the *actual* protocol implementations (not an
abstract model) through systematically varied message interleavings on tiny
configurations, checking serializability, invalidation completeness,
deadlock/livelock freedom and commit accounting on every schedule.

One perturbation harness serves every checker that varies a run: a
:class:`Perturbation` (schedule decisions plus a seeded fault plan) runs
through :func:`run_perturbation`, shrinks with :func:`shrink`, and ships
as one JSON artifact that ``python -m repro explore --replay`` and
``python -m repro chaos --replay`` both replay deterministically.

See ``docs/verification.md`` for the exploration modes, the SB4xx rule
codes and the artifact format.
"""

from __future__ import annotations

from repro.analysis.explore.controller import Schedule, ScheduleController
from repro.analysis.explore.driver import (Perturbation, PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.invariants import ExploreViolation, InvariantMonitor
from repro.analysis.explore.minimize import ddmin, shrink
from repro.analysis.explore.mutations import MUTATIONS, Mutation
from repro.analysis.explore.scenarios import SCENARIOS, Scenario, build_machine
from repro.analysis.explore.strategies import (
    ExplorationReport,
    explore_exhaustive,
    explore_random,
)
from repro.analysis.explore.trace import (artifact_json, load_artifact,
                                          replay_artifact, save_artifact)

__all__ = [
    "ExplorationReport",
    "ExploreViolation",
    "InvariantMonitor",
    "MUTATIONS",
    "Mutation",
    "Perturbation",
    "PerturbationResult",
    "SCENARIOS",
    "Scenario",
    "Schedule",
    "ScheduleController",
    "artifact_json",
    "build_machine",
    "ddmin",
    "explore_exhaustive",
    "explore_random",
    "load_artifact",
    "replay_artifact",
    "run_perturbation",
    "save_artifact",
    "shrink",
]
