"""Label static race findings CONFIRMED or UNOBSERVED at runtime.

A static SB5xx finding is a *may* statement: the handler pair may
interleave, the leaked attribute may go unreconciled.  This pass hunts for
a run that actually exhibits the access pattern: it replays the explore
scenarios under randomized schedules with the
:class:`~repro.analysis.races.sanitizer.AccessSanitizer` attached and
evaluates a per-rule witness predicate against the recorded spans and the
message stream:

* **SB501** — a handler span wrote tracked state while another message
  bound for the *same module* (dispatching to a *different* handler) was
  in flight: the unordered pair was live simultaneously.
* **SB502** — one span both put the flagged message type on the wire and
  mutated tracked state: the send-then-update window executed.
* **SB503** — the flagged handler ran twice at one module for the same
  chunk (attempts collapse onto their base tag) and mutated state: the
  causal cycle closed.
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

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.driver import (Perturbation, PerturbationResult,
                                           run_perturbation)
from repro.analysis.explore.minimize import shrink
from repro.analysis.explore.mutations import Mutation
from repro.analysis.explore.scenarios import SCENARIOS, Scenario
from repro.analysis.findings import Finding
from repro.analysis.races.sanitizer import AccessSanitizer, MessageEvent
from repro.engine.rng import DeterministicRng
from repro.network.message import MessageType
from repro.obs.bus import MSG_RECV, MSG_SEND, ctag_str

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
    #: (send_idx, recv_idx, dst_node, mtype value) into
    #: ``sanitizer.messages``; unmatched sends stay open
    intervals: List[Tuple[int, int, str, str]] = field(default_factory=list)


def starvation_pressure(mutation: Optional[Mutation] = None,
                        threshold: int = 1) -> Mutation:
    """Compose ``mutation`` with per-directory starvation pressure.

    The reservation machinery only engages after
    ``starvation_max_squashes`` genuine failures of one chunk — far more
    than the tiny explore scenarios produce, which is why the runtime
    ``reservation-leak`` bug is chaos-only.  Lowering the threshold on the
    *instances* (the shared :class:`~repro.config.SystemConfig` stays
    frozen and untouched) makes reservations form on the first genuine
    collision, so the sanitizer can watch the leak inside the bounded
    confirm budget.
    """
    def _apply(machine: Any) -> None:
        if mutation is not None:
            mutation.apply(machine)
        for directory in machine.directories:
            if hasattr(directory, "reserved_for"):
                directory.config = replace(
                    directory.config, starvation_max_squashes=threshold)
    return Mutation(
        name=mutation.name if mutation else "starvation-pressure",
        description="lowered per-directory reservation threshold",
        scenario="", expected="", apply=_apply,
        chaos_only=mutation.chaos_only if mutation else False)


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
        return _Probe(sanitizer=self.sanitizer, result=result,
                      intervals=_inflight_intervals(self.sanitizer.messages))


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


def _inflight_intervals(messages: List[MessageEvent]
                        ) -> List[Tuple[int, int, str, str]]:
    """Pair sends and receives into per-flow FIFO flight intervals."""
    open_sends: Dict[Tuple[str, str, str], List[int]] = {}
    out: List[Tuple[int, int, str, str]] = []
    for idx, (kind, src, dst, mtype) in enumerate(messages):
        if kind == MSG_SEND:
            open_sends.setdefault((src, dst, mtype), []).append(idx)
        elif kind == MSG_RECV:
            pending = open_sends.get((src, dst, mtype))
            if pending:
                out.append((pending.pop(0), idx, dst, mtype))
    end = len(messages)
    for (_, dst, mtype), pending in open_sends.items():
        for send_idx in pending:
            out.append((send_idx, end, dst, mtype))
    out.sort()
    return out


def _chunk_base(ctag: Any) -> Optional[str]:
    """Attempts of one chunk collapse onto the base tag: re-entry for the
    *same chunk* must not be satisfied by an ordinary retry."""
    text = ctag_str(ctag)
    return text.split("#")[0] if text else None


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

    if finding.code == "SB503":
        qual = finding.anchor[:-len(":cycle")]
        cls, method = qual.split(".", 1)

        def reenter(probe: _Probe) -> bool:
            seen: Dict[Tuple[str, str], int] = {}
            hit = False
            for span in probe.sanitizer.spans:
                if span.cls != cls or span.handler != method:
                    continue
                base = _chunk_base(span.ctag)
                if base is None:
                    continue
                seen[(span.src, base)] = seen.get((span.src, base), 0) + 1
                if seen[(span.src, base)] >= 2 and span.records:
                    hit = True
            return hit
        return reenter

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

    if finding.code == "SB501":
        cls = finding.anchor.split(":")[0]

        def concurrent(probe: _Probe) -> bool:
            san = probe.sanitizer
            for span in san.spans:
                if span.cls != cls or not span.records:
                    continue
                for send_idx, recv_idx, dst, mtype in probe.intervals:
                    if dst != span.src_node:
                        continue
                    # sent before the span began, received after
                    if not send_idx < span.start_event <= recv_idx:
                        continue
                    other = san.handler_for(cls, MessageType(mtype).name)
                    if other is not None and other != span.handler:
                        return True
            return False
        return concurrent

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
           "confirm_findings", "starvation_pressure"]
