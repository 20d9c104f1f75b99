"""Shrink a failing perturbation to its smallest failing core.

Classic ddmin over the perturbation's parts: the schedule's non-default
decisions (tie-break picks other than 0, nonzero delays) and the fault
plan's faults, in one list.  Try removing chunks of parts, keep any
reduction for which the caller's predicate still holds, then finish with
a one-at-a-time greedy pass.  The returned result is the run of the
shrunk perturbation, the one that actually ships.

``repro explore`` and ``repro chaos`` shrink toward a run that keeps the
failure's primary label; ``repro lint --confirm`` shrinks toward a run
that still exhibits a race witness.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.analysis.explore.driver import (Part, Perturbation,
                                           PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.scenarios import Scenario
from repro.analysis.mutations import Mutation
from repro.obs.bus import NullBus

_Item = TypeVar("_Item")


def ddmin(items: List[_Item],
          reproduces: Callable[[List[_Item]], bool]) -> List[_Item]:
    """Shrink ``items`` to a small sublist for which ``reproduces`` holds.

    The caller owns the run budget: ``reproduces`` must simply return
    False once its budget is exhausted, and the best list found so far is
    returned.  The input list is assumed to reproduce; the result always
    does (it is never grown, only shrunk).
    """
    current = list(items)
    # ddmin proper: remove complement chunks at increasing granularity.
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate != current and reproduces(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    # Greedy single-item sweep to catch stragglers.
    i = 0
    while i < len(current):
        candidate = current[:i] + current[i + 1:]
        if reproduces(candidate):
            current = candidate
        else:
            i += 1
    return current


def shrink(scenario: Scenario, perturbation: Perturbation,
           mutation: Optional[Mutation],
           predicate: Callable[[PerturbationResult], bool],
           max_runs: int = 200, *,
           watchdog: Optional[int] = None,
           instruments: Callable[[], Sequence[NullBus]] = tuple
           ) -> PerturbationResult:
    """ddmin ``perturbation``'s parts while ``predicate`` holds.

    ``perturbation`` must satisfy ``predicate``; at most ``max_runs``
    candidates are tried, each on a fresh machine watched like the
    original run (same ``watchdog`` window, a fresh ``instruments()``
    list).  Returns the run of the shrunk perturbation; if no part could
    be dropped, that is one more run of the original.
    """
    runs = 0
    best: Optional[PerturbationResult] = None

    def run(parts: List[Part]) -> PerturbationResult:
        return run_perturbation(scenario, perturbation.with_parts(parts),
                                mutation, watchdog=watchdog,
                                instruments=instruments())

    def reproduces(parts: List[Part]) -> bool:
        nonlocal runs, best
        if runs >= max_runs:
            return False
        runs += 1
        result = run(parts)
        if not predicate(result):
            return False
        best = result  # ddmin keeps exactly the last list that reproduced
        return True

    kept = ddmin(perturbation.parts(), reproduces)
    return best if best is not None else run(kept)


__all__ = ["ddmin", "shrink"]
