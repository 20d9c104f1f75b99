"""Label static race findings CONFIRMED or UNOBSERVED at runtime.

A static SB5xx finding is a *may* statement: the late write may race the
message's reaction, the leaked attribute may go unreconciled.  This pass
hunts for a run that actually exhibits the access pattern: it replays the
explore scenarios under randomized schedules with the
:class:`~repro.analysis.races.sanitizer.AccessSanitizer` attached and
evaluates a per-rule witness predicate against the recorded spans and the
message stream:

* **SB502** — one span both put the flagged message type on the wire and
  mutated tracked state: the send-then-update window executed.
* **SB504** — the flagged attribute grew during the run, was never
  released, and is still non-empty at quiesce: the leak is live.

A hit is shrunk by the perturbation harness
(:func:`~repro.analysis.explore.minimize.shrink` over the realized
schedule's non-default decisions, re-checking the predicate, not a
violation code) and shipped as a replayable
:class:`~repro.analysis.explore.controller.Schedule` in JSON form.  A
finding whose predicate never fires within the budget stays UNOBSERVED —
which is *evidence of absence only for the scenarios tried*, not a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.driver import (Perturbation, PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.minimize import shrink
from repro.analysis.explore.scenarios import SCENARIOS, Scenario
from repro.analysis.findings import Finding
from repro.analysis.mutations import Mutation
from repro.analysis.races.sanitizer import AccessSanitizer
from repro.engine.rng import DeterministicRng
from repro.network.message import MessageType
from repro.obs.bus import MSG_SEND

CONFIRMED = "CONFIRMED"
UNOBSERVED = "UNOBSERVED"

#: scenarios probed per finding, chosen by the file the finding anchors to
_SCENARIOS_BY_SOURCE: Dict[str, Tuple[str, ...]] = {
    "baselines/tcc.py": ("tcc3",),
    "baselines/bulksc.py": ("bulksc3",),
    "baselines/seq.py": ("seq3",),
}
_DEFAULT_SCENARIOS: Tuple[str, ...] = ("cross3", "mixed3", "nack3")


@dataclass
class Witness:
    """The runtime verdict for one static finding."""

    key: str
    code: str
    status: str                              #: CONFIRMED | UNOBSERVED
    scenario: Optional[str] = None
    schedule: Optional[Dict[str, Any]] = None  #: replayable Schedule JSON
    runs: int = 0                            #: probe runs spent
    detail: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {"key": self.key, "code": self.code, "status": self.status,
                "scenario": self.scenario, "schedule": self.schedule,
                "runs": self.runs, "detail": self.detail}


@dataclass
class _Probe:
    """One sanitized schedule run: the sanitizer and the run's result."""

    sanitizer: AccessSanitizer
    result: Any


#: per-probe event cap: a livelocked probe (many seeded bugs wedge the
#: protocol) must not burn the scenario's full exploration budget with
#: fingerprinting enabled — the access pattern shows long before that.
PROBE_MAX_EVENTS = 30_000


class _Prober:
    """Hands every probe run a fresh access sanitizer as its instrument
    and pairs the last one with that run's result."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = replace(
            scenario, max_events=min(scenario.max_events, PROBE_MAX_EVENTS))
        self.sanitizer = AccessSanitizer()

    def instruments(self) -> List[AccessSanitizer]:
        self.sanitizer = AccessSanitizer()
        return [self.sanitizer]

    def probe(self, result: PerturbationResult) -> _Probe:
        return _Probe(sanitizer=self.sanitizer, result=result)


def _run_probe(scenario: Scenario, schedule: Optional[Schedule],
               mutation: Optional[Mutation], seed: Optional[int]) -> _Probe:
    prober = _Prober(scenario)
    tie_rng = DeterministicRng(seed, "confirm-ties") if seed is not None \
        else None
    delay_rng = DeterministicRng(seed + 1, "confirm-delays") \
        if seed is not None else None
    result = run_perturbation(
        prober.scenario, Perturbation(schedule or Schedule()), mutation,
        tie_rng=tie_rng, delay_rng=delay_rng,
        instruments=prober.instruments())
    return prober.probe(result)


def _mtype_values(names: Sequence[str]) -> set:
    return {MessageType[n].value for n in names
            if n in MessageType.__members__}


# ----------------------------------------------------------------------
# Per-rule witness predicates
# ----------------------------------------------------------------------
def _predicate_for(finding: Finding
                   ) -> Optional[Callable[[_Probe], bool]]:
    if finding.code == "SB504":
        cls, attr = finding.anchor.split(":")[:2]

        def leak(probe: _Probe) -> bool:
            return bool(probe.sanitizer.leaked_at(cls, attr))
        return leak

    if finding.code == "SB502":
        qual, _, mtypes = finding.anchor.partition("->")
        cls = qual.split(".", 1)[0]
        values = _mtype_values(mtypes.split("/"))

        def send_then_write(probe: _Probe) -> bool:
            for span in probe.sanitizer.spans:
                if span.cls != cls or not span.records:
                    continue
                sent = probe.sanitizer.messages[span.start_event:
                                                span.end_event]
                for kind, src, _dst, mtype in sent:
                    if (kind == MSG_SEND and mtype in values
                            and src == span.src_node):
                        return True
            return False
        return send_then_write

    return None


def _scenarios_for(finding: Finding) -> Tuple[str, ...]:
    for suffix, names in _SCENARIOS_BY_SOURCE.items():
        if finding.path.endswith(suffix):
            return names
    return _DEFAULT_SCENARIOS


# ----------------------------------------------------------------------
# The confirm loop
# ----------------------------------------------------------------------
def confirm_finding(finding: Finding, *,
                    mutation: Optional[Mutation] = None,
                    scenarios: Optional[Sequence[str]] = None,
                    runs_per_scenario: int = 8,
                    base_seed: int = 2112,
                    shrink_budget: int = 40) -> Witness:
    """Probe one finding; CONFIRMED comes with a shrunk replay schedule."""
    predicate = _predicate_for(finding)
    if predicate is None:
        return Witness(key=finding.key, code=finding.code, status=UNOBSERVED,
                       detail="no runtime predicate for this rule")
    names = tuple(scenarios) if scenarios else _scenarios_for(finding)
    runs = 0
    for name in names:
        scenario = SCENARIOS[name]
        for i in range(runs_per_scenario):
            # probe 0 is the nominal schedule; later probes randomize
            seed = None if i == 0 else base_seed + 997 * i
            probe = _run_probe(scenario, None, mutation, seed)
            runs += 1
            if not predicate(probe):
                continue
            shrunk = probe.result.schedule
            if shrunk.decision_count():
                prober = _Prober(scenario)
                shrunk = shrink(prober.scenario, Perturbation(shrunk),
                                mutation,
                                lambda r: predicate(prober.probe(r)),
                                shrink_budget,
                                instruments=prober.instruments).schedule
            return Witness(
                key=finding.key, code=finding.code, status=CONFIRMED,
                scenario=name, schedule=shrunk.to_json(), runs=runs,
                detail=(f"witness on scenario {name!r} after {runs} "
                        f"probe(s); schedule shrunk to "
                        f"{shrunk.decision_count()} non-default "
                        f"decision(s)"))
    return Witness(key=finding.key, code=finding.code, status=UNOBSERVED,
                   runs=runs,
                   detail=f"predicate never fired in {runs} probe(s) over "
                          f"{'/'.join(names)}")


def confirm_findings(findings: Sequence[Finding], *,
                     mutation: Optional[Mutation] = None,
                     scenarios: Optional[Sequence[str]] = None,
                     runs_per_scenario: int = 8,
                     base_seed: int = 2112) -> List[Witness]:
    """One witness per SB5xx finding, in finding-key order."""
    out = [confirm_finding(f, mutation=mutation, scenarios=scenarios,
                           runs_per_scenario=runs_per_scenario,
                           base_seed=base_seed)
           for f in sorted(findings, key=lambda f: f.key)
           if f.code.startswith("SB5")]
    return out


__all__ = ["CONFIRMED", "UNOBSERVED", "Witness", "confirm_finding",
           "confirm_findings"]
