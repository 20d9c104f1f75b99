"""Time-ordered event queue: the heart of the cycle-level simulator.

Components never busy-wait; they schedule a callback at an absolute or
relative cycle count.  Ties are broken by insertion order, which makes every
simulation fully deterministic for a given seed and configuration.
Schedule exploration reorders same-cycle events with a loop of its own
(``ScheduleController.run``) that dispatches through :meth:`Simulator.fire`.

The heap holds ``(time, seq, event)`` tuples, not events: ``seq`` is
unique per simulator, so ``heapq`` orders entries by comparing two ints in
C and never reaches the event.  An entry's ``(time, seq)`` is its event's,
and a cancelled event keeps its entry until the entry reaches the top.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.obs.bus import NULL_BUS, NullBus


class Event:
    """A scheduled callback.

    Queued under the heap entry ``(time, seq, event)``, so heap ordering is
    total and deterministic; events themselves compare by identity.
    ``cancelled`` supports O(1) cancellation (the event stays in the heap
    but is skipped when popped).  ``tag`` is optional metadata (a message
    delivery is tagged with its ``Message``) that schedule exploration uses
    to decide which same-cycle reorderings are physically meaningful; it
    never affects ordering.  ``owner`` is the scheduling simulator, so
    cancellation can maintain its O(1) live-event counter without a heap
    scan.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "tag", "owner")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 tag: Any = None, owner: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.tag = tag
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Event(time={self.time}, seq={self.seq}, "
                f"cancelled={self.cancelled}, tag={self.tag!r})")


#: A heap entry: the event's ``(time, seq)`` first, so ``heapq`` compares
#: plain ints.
HeapEntry = Tuple[int, int, Event]


class Simulator:
    """A deterministic discrete-event simulator with integer cycle time.

    Usage::

        sim = Simulator()
        sim.schedule(10, lambda: print("fires at cycle 10"))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[HeapEntry] = []
        self._seq: int = 0
        self._events_processed: int = 0
        #: Count of not-yet-cancelled queued events, maintained on
        #: schedule/cancel/execute so ``pending_events`` (and therefore
        #: ``quiescent()``, called on conservation-check hot paths) is O(1)
        #: instead of a full heap scan.
        self._live_events: int = 0
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
        time = int(time)
        seq = self._seq
        ev = Event(time, seq, callback, tag, self)
        self._seq = seq + 1
        self._live_events += 1
        heappush(self._heap, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        while self._heap:
            ev = heappop(self._heap)[2]
            if not ev.cancelled:
                self.fire(ev)
                return True
        return False

    def fire(self, ev: Event) -> None:
        """Run ``ev``, a live event already popped from the heap."""
        self.now = ev.time
        self._live_events -= 1
        # An executed event is no longer live: flagging it here makes a
        # late ``cancel()`` (e.g. from its own callback) a no-op instead of
        # a second counter decrement.
        ev.cancelled = True
        if self.obs.enabled:
            self.obs.sim_step(ev.time, len(self._heap))
        ev.callback()
        self._events_processed += 1

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock once the next event would fire after that
        cycle; ``max_events`` bounds total work (guards against protocol
        livelock bugs in tests): the run raises right after its
        ``max_events``-th event.

        When ``until`` is given the clock always advances to ``until`` —
        including when the queue is empty or drains before that cycle — so
        callers see the same "time has passed" semantics whether or not
        anything was scheduled in the window.  An ``until`` already in the
        past leaves the clock where it is: it never moves backwards.

        One pop per event in ``(time, seq)`` order, exactly as under
        :meth:`step`: a callback that raises leaves the rest queued, a
        cancelled event is skipped when popped, and a bus's ``sim_step``
        sees the heap length :meth:`step` would.  The executed-event count
        is published when the loop exits, however it exits.
        """
        heap = self._heap
        pop = heappop
        obs = self.obs
        stop = sys.maxsize if until is None else until   # later than any event
        limit = -1 if max_events is None else max(1, max_events)
        processed = 0
        try:
            while heap:
                entry = pop(heap)
                ev = entry[2]
                if ev.cancelled:
                    continue
                time = entry[0]
                if time > stop:
                    heappush(heap, entry)
                    break
                self.now = time
                self._live_events -= 1
                # An executed event is no longer live: flagging it here
                # makes a late cancel() a no-op (see fire()).
                ev.cancelled = True
                if obs.enabled:
                    obs.sim_step(time, len(heap))
                ev.callback()
                processed += 1
                if processed == limit:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events} at "
                        f"cycle {time}; possible livelock")
        finally:
            self._events_processed += processed
        if until is not None and until > self.now:
            self.now = until

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


__all__ = ["Event", "Simulator"]
