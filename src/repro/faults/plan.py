"""Serializable fault plans: what to break, where, and when.

A :class:`FaultPlan` is a pure value — a seed plus an ordered list of
:class:`FaultSpec` entries — with a JSON form that is a *fixed point*
under serialize → deserialize → serialize (property-tested).  Plans are
the unit the chaos campaign generates, fans out to worker processes,
shrinks with ddmin, and writes into replayable failure artifacts, so
everything about them must survive a round trip unchanged.

Every fault is **timing-level**: it may delay messages, stall directory
service, force extra (legal) group failures or defer commit requests, but
it may never corrupt state or drop a message.  Safety must therefore hold
under any plan; the campaign gates that through the explore invariant
monitor (oracle, conformance, accounting).

The five injector kinds (realized in :mod:`repro.faults.injectors`):

===============  ======================================================
kind             parameters
===============  ======================================================
latency-spike    ``start, duration, extra, jitter`` — every message sent
                 in the window is delayed ``extra + U[0, jitter]`` cycles
link-hotspot     ``tile, start, duration, extra`` — messages touching the
                 tile (src or dst) are delayed while the window is open
dir-stall        ``dir, start, duration, extra`` — messages *to* one
                 directory module are delayed (a slow / busy module)
squash-storm     ``start, duration, prob`` — a ready, unheld group is
                 failed (a legal genuine collision) with probability
                 ``prob`` instead of being admitted; the module's
                 reserved chunk is always spared (ScalableBulk only)
core-jitter      ``core, start, duration, max_extra`` — the core's commit
                 requests are deferred ``U[1, max_extra]`` cycles
===============  ======================================================

All randomness inside injectors comes from named substreams of
:class:`repro.engine.rng.DeterministicRng` derived from ``plan.seed``
alone, so two runs of the same plan — in-process or across ``--jobs``
worker processes — take identical decisions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

PLAN_VERSION = 1

#: injector kind -> required parameter names
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "latency-spike": ("start", "duration", "extra", "jitter"),
    "link-hotspot": ("tile", "start", "duration", "extra"),
    "dir-stall": ("dir", "start", "duration", "extra"),
    "squash-storm": ("start", "duration", "prob"),
    "core-jitter": ("core", "start", "duration", "max_extra"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: a kind plus its (validated) parameters."""

    kind: str
    params: Tuple[Tuple[str, Any], ...]  #: sorted (name, value) pairs

    @classmethod
    def make(cls, kind: str, **params: Any) -> "FaultSpec":
        required = FAULT_KINDS.get(kind)
        if required is None:
            raise ValueError(
                f"unknown fault kind {kind!r} "
                f"(choices: {', '.join(sorted(FAULT_KINDS))})")
        missing = set(required) - set(params)
        extra = set(params) - set(required)
        if missing or extra:
            raise ValueError(
                f"{kind}: missing params {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def __getitem__(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls.make(str(data["kind"]), **dict(data["params"]))


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, ordered composition of faults."""

    name: str
    seed: int
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def empty(cls, name: str = "empty", seed: int = 0) -> "FaultPlan":
        return cls(name=name, seed=seed)

    def with_faults(self, faults: List[FaultSpec]) -> "FaultPlan":
        """Same identity, different fault list (what ddmin shrinks)."""
        return FaultPlan(name=self.name, seed=self.seed,
                         faults=tuple(faults))

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_json() for f in self.faults],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultPlan":
        version = data.get("version")
        if version != PLAN_VERSION:
            raise ValueError(
                f"fault plan has version {version!r}; this build reads "
                f"version {PLAN_VERSION}")
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),
            faults=tuple(FaultSpec.from_json(f)
                         for f in data.get("faults", ())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_json(json.loads(text))


def stress_plan(seed: int, *, name: str = "stress") -> FaultPlan:
    """The mutation check's storm-heavy plan: a long, aggressive squash
    storm (drives one chunk past the starvation threshold so the
    reservation machinery engages) plus background latency noise."""
    return FaultPlan(name=name, seed=seed, faults=(
        FaultSpec.make("squash-storm", start=0, duration=20_000, prob=0.85),
        FaultSpec.make("latency-spike", start=0, duration=20_000,
                       extra=3, jitter=8),
    ))


__all__ = ["FAULT_KINDS", "FaultPlan", "FaultSpec", "PLAN_VERSION",
           "stress_plan"]
