"""The schedule controller: replayable tie-break and delay decisions.

A :class:`Schedule` is a pure decision vector:

* ``ties[k]`` — at the *k*-th same-cycle choice point, the index (into the
  filtered candidate list, see :func:`reorder_candidates`) of the event to
  run first.  ``0`` is always the default insertion order, so the empty
  schedule reproduces the seed behaviour byte for byte.
* ``delays[i]`` — extra delivery cycles added to the *i*-th message send of
  the run.  Send index — not ``Message.uid`` — keys the decision because
  uids come from a process-global counter and are not stable across the
  many runs a single exploration performs.

:class:`ScheduleController` is the instrument that turns a schedule into
two engine hooks (its own dispatch loop, installed in place of
``Simulator.run``, and a ``Network.delay_hook`` chained onto whatever delay
hook is already there, e.g. a fault engine's) and records the
*realized* schedule — including any decisions drawn from the exploration
RNGs past the end of the prescribed vector — so every run, random or not,
can be replayed exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.events import Event, HeapEntry, Simulator
from repro.engine.rng import DeterministicRng
from repro.network.message import Message
from repro.network.noc import compose_delay_hooks
from repro.obs.bus import NullBus


def reorder_candidates(batch: List[Event]) -> List[int]:
    """Indices of events in ``batch`` that may legally run first.

    ``batch`` is the set of live events due at the current cycle, in
    insertion (seq) order.  Any non-delivery event is a candidate.  Of the
    message deliveries, only the *earliest* per (src, dst) flow is a
    candidate: real links do not reorder packets between the same pair of
    endpoints, and the conformance rules of Tables 4/5 assume exactly that
    FIFO property.

    Index 0 is always a candidate, so picking ``candidates[0]`` is always
    the default insertion order.
    """
    out: List[int] = []
    seen_flows: Set[Tuple[Any, Any]] = set()
    for i, ev in enumerate(batch):
        tag = ev.tag
        if isinstance(tag, Message):     # a message delivery
            flow = (tag.src, tag.dst)
            if flow in seen_flows:
                continue
            seen_flows.add(flow)
        out.append(i)
    return out


@dataclass
class Schedule:
    """One reproducible scheduling decision vector (see module docstring)."""

    ties: List[int] = field(default_factory=list)
    delays: Dict[int, int] = field(default_factory=dict)

    def decision_count(self) -> int:
        """Number of non-default decisions (what minimization shrinks)."""
        return (sum(1 for t in self.ties if t)
                + sum(1 for v in self.delays.values() if v))

    def trimmed(self) -> "Schedule":
        """Drop trailing default picks and zero delays (canonical form)."""
        ties = list(self.ties)
        while ties and ties[-1] == 0:
            ties.pop()
        return Schedule(ties=ties,
                        delays={k: v for k, v in self.delays.items() if v})

    def to_json(self) -> Dict[str, Any]:
        return {
            "ties": list(self.ties),
            "delays": [[k, v] for k, v in sorted(self.delays.items())],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Schedule":
        ties = [int(t) for t in data.get("ties", ())]
        delays = {int(k): int(v) for k, v in data.get("delays", ())}
        return cls(ties=ties, delays=delays)


class ScheduleController(NullBus):
    """Bridges a :class:`Schedule` to the simulator/network hooks.

    Decisions beyond the prescribed schedule come from the optional
    exploration RNGs (random / delay-bounded sampling); with no RNGs the
    controller extends the schedule with defaults.  Either way every
    decision taken is appended to :attr:`realized`.
    """

    def __init__(self, schedule: Optional[Schedule] = None, *,
                 tie_rng: Optional[DeterministicRng] = None,
                 delay_rng: Optional[DeterministicRng] = None,
                 delay_prob: float = 0.15, max_delay: int = 24) -> None:
        self.schedule = schedule if schedule is not None else Schedule()
        self.tie_rng = tie_rng
        self.delay_rng = delay_rng
        self.delay_prob = delay_prob
        self.max_delay = max_delay
        #: every decision actually taken this run (replayable)
        self.realized = Schedule()
        #: candidate count at each choice point (DFS branching factors)
        self.choice_counts: List[int] = []
        self._sends = 0

    # ------------------------------------------------------------------
    def attach(self, machine: Any) -> None:
        """Install both hooks on a freshly built machine."""
        sim = machine.sim
        sim.run = partial(self.run, sim)  # type: ignore[method-assign]
        network = machine.network
        network.delay_hook = compose_delay_hooks(network.delay_hook,
                                                 self.delay)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def run(self, sim: Simulator, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Drain ``sim`` as :meth:`Simulator.run` does, letting
        :meth:`tie_break` pick among the live events due at each cycle.

        Every entry due at the current cycle is popped and its live events
        are offered in ``(time, seq)`` order.  The pick fires; every other
        entry goes back unchanged, so the next pick sees the rest of the
        cycle plus whatever the fired callback scheduled for it.  A
        cancelled event is never offered and is dropped only when it
        reaches the top, as in :meth:`Simulator.run`, so under the default
        pick an attached bus samples the same queue depths.  ``until``,
        ``max_events`` and the livelock error match the production loop's.
        """
        heap = sim._heap
        processed = 0
        while heap:
            t, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and t > until:
                sim.now = max(sim.now, until)
                return
            due: List[HeapEntry] = []
            while heap and heap[0][0] == t:
                due.append(heapq.heappop(heap))
            batch = [entry[2] for entry in due if not entry[2].cancelled]
            chosen = batch[self.tie_break(batch)] if len(batch) > 1 else head
            for entry in due:
                if entry[2] is not chosen:
                    heapq.heappush(heap, entry)
            sim.fire(chosen)
            processed += 1
            if max_events is not None and processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events} at "
                    f"cycle {sim.now}; possible livelock"
                )
        if until is not None and until > sim.now:
            sim.now = until

    def tie_break(self, batch: List[Event]) -> int:
        cands = reorder_candidates(batch)
        if len(cands) <= 1:
            # Not a choice point: every reordering is FIFO-equivalent.
            return cands[0]
        k = len(self.choice_counts)
        self.choice_counts.append(len(cands))
        if k < len(self.schedule.ties):
            pick = self.schedule.ties[k]
        elif self.tie_rng is not None:
            pick = self.tie_rng.randint(0, len(cands) - 1)
        else:
            pick = 0
        if not 0 <= pick < len(cands):
            pick = 0  # schedule from a different prefix: clamp to default
        self.realized.ties.append(pick)
        return cands[pick]

    # ------------------------------------------------------------------
    # Network.delay_hook
    # ------------------------------------------------------------------
    def delay(self, msg: Message, latency: int) -> int:
        idx = self._sends
        self._sends += 1
        extra = self.schedule.delays.get(idx)
        if extra is None:
            if (self.delay_rng is not None
                    and self.max_delay > 0
                    and self.delay_rng.bernoulli(self.delay_prob)):
                extra = self.delay_rng.randint(1, self.max_delay)
            else:
                extra = 0
        if extra:
            self.realized.delays[idx] = extra
        return extra

    @property
    def sends(self) -> int:
        """Messages injected this run (the delay-decision key space)."""
        return self._sends


__all__ = ["Schedule", "ScheduleController", "reorder_candidates"]
