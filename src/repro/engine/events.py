"""Time-ordered event queue: the heart of the cycle-level simulator.

Components never busy-wait; they schedule a callback at an absolute or
relative cycle count.  Ties are broken by insertion order, which makes every
simulation fully deterministic for a given seed and configuration.

Schedule exploration (``repro.analysis.explore``) installs a *tie-breaker*
hook: when several events are due at the same cycle, the hook picks which
one runs next instead of the default insertion order.  With no hook
installed the simulator behaves exactly as before — the hook exists so the
model checker can systematically reorder same-cycle deliveries without
touching default determinism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.obs.bus import NULL_BUS, NullBus

#: A tie-breaker receives the batch of live events due at the current
#: minimal time (in insertion order) and returns the index of the event to
#: run now; the rest are re-queued untouched.
TieBreaker = Callable[["List[Event]"], int]


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so that heap ordering is total and
    deterministic.  ``cancelled`` supports O(1) cancellation (the event stays
    in the heap but is skipped when popped).  ``tag`` is optional metadata
    (e.g. which message delivery this is) that schedule exploration uses to
    decide which same-cycle reorderings are physically meaningful; it never
    affects ordering.
    """

    time: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    tag: Any = field(default=None, compare=False)
    #: Owning simulator, so cancellation can maintain its O(1) live-event
    #: counter without a heap scan.
    owner: Optional["Simulator"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._live_events -= 1


class Simulator:
    """A deterministic discrete-event simulator with integer cycle time.

    Usage::

        sim = Simulator()
        sim.schedule(10, lambda: print("fires at cycle 10"))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._events_processed: int = 0
        #: Count of not-yet-cancelled queued events, maintained on
        #: schedule/cancel/execute so ``pending_events`` (and therefore
        #: ``quiescent()``, called on conservation-check hot paths) is O(1)
        #: instead of a full heap scan.
        self._live_events: int = 0
        #: Exploration hook: picks among same-cycle events (None = default
        #: insertion order, the fully deterministic seed behaviour).
        self.tie_breaker: Optional[TieBreaker] = None
        #: Instrumentation sink (repro.obs); the null bus makes every hook
        #: a guarded no-op, so the default run schedules nothing extra.
        self.obs: NullBus = NULL_BUS

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None],
                 tag: Any = None) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), callback, tag=tag)

    def schedule_at(self, time: int, callback: Callable[[], None],
                    tag: Any = None) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        ev = Event(time=int(time), seq=self._seq, callback=callback, tag=tag,
                   owner=self)
        self._seq += 1
        self._live_events += 1
        heapq.heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty.

        :meth:`run` dispatches through here only while a tie-breaker is
        installed; otherwise it drains whole cycles in its batched loop.
        """
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if self.tie_breaker is not None:
                ev = self._tie_break(ev)
            self.now = ev.time
            self._live_events -= 1
            # An executed event is no longer live: flagging it here makes a
            # late ``cancel()`` (e.g. from its own callback) a no-op instead
            # of a second counter decrement.
            ev.cancelled = True
            if self.obs.enabled:
                self.obs.sim_step(ev.time, len(self._heap))
            ev.callback()
            self._events_processed += 1
            return True
        return False

    def _tie_break(self, first: Event) -> Event:
        """Collect every live event due at ``first.time`` and let the
        tie-breaker choose; everything else popped (cancelled events
        included) is re-queued with its original (time, seq), so relative
        order is preserved and the heap holds exactly what the batched
        loop's would."""
        popped = [first]
        while self._heap and self._heap[0].time == first.time:
            popped.append(heapq.heappop(self._heap))
        batch = [ev for ev in popped if not ev.cancelled]
        chosen = first
        if len(batch) > 1:
            assert self.tie_breaker is not None
            idx = self.tie_breaker(batch)
            if not 0 <= idx < len(batch):
                raise IndexError(f"tie-breaker chose {idx} of {len(batch)}")
            chosen = batch[idx]
        for ev in popped:
            if ev is not chosen:
                heapq.heappush(self._heap, ev)
        return chosen

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock once the next event would fire after that
        cycle; ``max_events`` bounds total work (guards against protocol
        livelock bugs in tests).

        When ``until`` is given the clock always advances to ``until`` —
        including when the queue is empty or drains before that cycle — so
        callers see the same "time has passed" semantics whether or not
        anything was scheduled in the window.

        Dispatch is *batched*: all live events due at the current cycle are
        drained in one inner loop (one heap pop + one callback each)
        instead of re-entering :meth:`step`'s peek/pop dance per event.
        New events a callback schedules for the same cycle always carry a
        higher ``seq``, so they sort after the in-flight batch and the
        total (time, seq) execution order is identical to stepwise.  An
        attached bus's ``sim_step`` fires after each pop, so it sees the
        same heap length :meth:`step` would.  Only the tie-breaker falls
        back to :meth:`step` per event: it must see the whole same-cycle
        batch before anything runs.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            head = heap[0]
            if head.cancelled:
                pop(heap)
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            if self.tie_breaker is not None:
                if not self.step():
                    break
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events} at "
                        f"cycle {self.now}; possible livelock"
                    )
                continue
            # Fast path: drain the whole cycle.  Events are popped one at a
            # time (not batch-collected), so a callback that raises leaves
            # the rest of the cycle queued exactly as step() would, and a
            # callback that cancels a later same-cycle event is honoured by
            # the per-event cancelled check.
            t = head.time
            self.now = t
            while heap and heap[0].time == t:
                if self.tie_breaker is not None:
                    break  # a callback installed a hook: resume stepwise
                ev = pop(heap)
                if ev.cancelled:
                    continue
                self._live_events -= 1
                # An executed event is no longer live: flagging it here
                # makes a late cancel() a no-op (see step()).
                ev.cancelled = True
                if self.obs.enabled:
                    self.obs.sim_step(t, len(heap))
                ev.callback()
                self._events_processed += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events} at "
                        f"cycle {self.now}; possible livelock"
                    )
        if until is not None and until > self.now:
            self.now = until

    def _peek_time(self) -> Optional[int]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live_events

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def quiescent(self) -> bool:
        """True when no live events remain (used by conservation checks)."""
        return self.pending_events == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"


def drain(sim: Simulator, guard: int = 50_000_000) -> None:
    """Run ``sim`` to quiescence with a livelock guard (test helper)."""
    sim.run(max_events=guard)


__all__ = ["Event", "Simulator", "TieBreaker", "drain"]
