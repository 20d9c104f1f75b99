"""Perturbation artifacts: the one JSON counterexample format and replayer.

An artifact is self-contained: it embeds the scenario (event budget
included), the mutation name (if any), the realized schedule, the fault
plan and the watchdog window, so ``repro explore --replay`` and
``repro chaos --replay`` need nothing but the file, and either replays
what the other wrote.  ``version`` guards the format: version 1 explore
traces (no ``plan``) and version 1 chaos artifacts (no ``schedule``)
still load, a missing ``schedule``, ``plan`` or ``watchdog`` reading as
empty.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.driver import (WATCHDOG, Perturbation,
                                           PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.minimize import shrink
from repro.analysis.explore.mutations import MUTATIONS, Mutation
from repro.analysis.explore.scenarios import Scenario
from repro.faults.plan import FaultPlan
from repro.obs.bus import InstrumentationBus, NullBus

ARTIFACT_VERSION = 2
#: every version :func:`load_artifact` reads
READABLE_VERSIONS = (1, 2)


def artifact_json(result: PerturbationResult) -> Dict[str, Any]:
    """The serializable, replayable record of one (usually failing) run."""
    return {
        "version": ARTIFACT_VERSION,
        "scenario": result.scenario.to_json(),
        "mutation": result.mutation,
        "schedule": result.schedule.to_json(),
        "plan": result.plan.to_json(),
        "watchdog": result.watchdog,
        "violations": [v.to_json() for v in result.violations],
        "watchdog_fires": list(result.watchdog_fires),
        "stats": {
            "choice_points": len(result.choice_counts),
            "sends": result.sends,
            "cycles": result.cycles,
            "commits": result.commits,
            "activations": list(result.activations),
        },
    }


def counterexample(result: PerturbationResult,
                   mutation: Optional[Mutation], *,
                   minimize: bool = True,
                   max_runs: int = 200) -> Dict[str, Any]:
    """The artifact a failing run ships: shrunk (unless ``minimize`` is
    off) while its primary failure label still reproduces."""
    if minimize and result.perturbation.parts():
        target = result.labels[0]
        result = shrink(result.scenario, result.perturbation, mutation,
                        lambda r: target in r.labels, max_runs,
                        watchdog=result.watchdog)
    return artifact_json(result)


def save_artifact(artifact: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = data.get("version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"artifact {path} has version {version!r}; this build reads "
            f"versions {', '.join(map(str, READABLE_VERSIONS))}")
    return data


def expected_labels(data: Dict[str, Any]) -> List[str]:
    """The failure labels an artifact records, as a replay reports them."""
    codes = dict.fromkeys(str(v["code"]) for v in data.get("violations", ()))
    return list(codes) + ([WATCHDOG] if data.get("watchdog_fires") else [])


def replay_artifact(data: Dict[str, Any], *,
                    instruments: Sequence[NullBus] = ()
                    ) -> PerturbationResult:
    """Re-run a loaded artifact's perturbation on its scenario (and
    mutation), watched by its watchdog window and ``instruments``."""
    scenario = Scenario.from_json(data["scenario"])
    name = data.get("mutation")
    mutation = None
    if name is not None:
        mutation = MUTATIONS.get(str(name))
        if mutation is None:
            raise ValueError(f"artifact names unknown mutation {name!r}")
    plan = data.get("plan")
    perturbation = Perturbation(
        Schedule.from_json(data.get("schedule") or {}),
        FaultPlan.from_json(plan) if plan else FaultPlan.empty())
    return run_perturbation(scenario, perturbation, mutation,
                            watchdog=data.get("watchdog"),
                            instruments=instruments)


def replay_command(path: str, trace_out: Optional[str] = None) -> int:
    """``--replay PATH`` for both CLIs: exit 0 iff the replay reproduces
    the artifact's primary failure label (or, for a clean artifact, runs
    clean).  The replay is instrumented and its commit critical path
    reported; ``trace_out`` also writes a Perfetto trace of it."""
    from repro.obs.critical_path import analyze_commit_paths
    data = load_artifact(path)
    # the critical path needs no message events; a Perfetto trace does
    bus = InstrumentationBus(record_messages=trace_out is not None)
    result = replay_artifact(data, instruments=[bus])
    want = expected_labels(data)
    got = result.labels
    print(f"replay of {path}: expected {want or 'clean'}, "
          f"got {got or 'clean'} ({result.commits} commits, "
          f"{result.cycles:,} cycles, {len(result.watchdog_fires)} "
          f"watchdog fires)")
    print(analyze_commit_paths(bus).render())
    if trace_out:
        from repro.obs.export import to_perfetto
        doc = to_perfetto(bus, trace_out)
        print(f"trace: {len(doc['traceEvents'])} events -> {trace_out} "
              f"(open in ui.perfetto.dev)")
    ok = (want[0] in got) if want else not got
    return 0 if ok else 1


__all__ = ["ARTIFACT_VERSION", "READABLE_VERSIONS", "artifact_json",
           "counterexample", "expected_labels", "load_artifact",
           "replay_artifact", "replay_command", "save_artifact"]
