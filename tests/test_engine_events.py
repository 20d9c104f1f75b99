"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.analysis.explore import ScheduleController
from repro.engine.events import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(5, lambda n=name: order.append(n))
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_schedule_relative_to_now(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(8, lambda: seen.append(sim.now))

        sim.schedule(5, first)
        sim.run()
        assert seen == [13]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_zero_delay_fires(self):
        sim = Simulator()
        hits = []
        sim.schedule(0, lambda: hits.append(1))
        sim.run()
        assert hits == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(10, lambda: hits.append(1))
        ev.cancel()
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(10, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        ev = sim.schedule(20, lambda: None)
        ev.cancel()
        assert sim.pending_events == 1

    def test_pending_counter_matches_heap_scan(self):
        """The O(1) live-event counter must track the ground truth (a full
        heap scan) through schedule / cancel / double-cancel / execution."""
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in range(10)]
        events[3].cancel()
        events[3].cancel()  # double-cancel must not decrement twice
        events[7].cancel()
        scan = sum(1 for _, _, ev in sim._heap if not ev.cancelled)
        assert sim.pending_events == scan == 8
        sim.run(until=4)  # executes t=0..4 minus the cancelled t=3
        scan = sum(1 for _, _, ev in sim._heap if not ev.cancelled)
        assert sim.pending_events == scan == 4
        sim.run()
        assert sim.pending_events == 0
        assert sim.quiescent()

    def test_cancel_after_execution_window_is_safe(self):
        sim = Simulator()
        ev = sim.schedule(1, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        ev.cancel()  # already executed; must not drive the counter negative
        assert sim.pending_events == 0


class TestEventContract:
    def test_keyword_and_positional_construction_agree(self):
        sim = Simulator()
        cb = lambda: None  # noqa: E731
        kw = Event(time=3, seq=1, callback=cb, tag="t", owner=sim)
        pos = Event(3, 1, cb, "t", sim)
        for ev in (kw, pos):
            assert (ev.time, ev.seq, ev.callback, ev.tag, ev.owner) == \
                (3, 1, cb, "t", sim)
            assert ev.cancelled is False
        bare = Event(time=0, seq=0, callback=cb)
        assert bare.tag is None and bare.owner is None
        assert not hasattr(bare, "__dict__")

    def test_schedule_at_builds_the_queued_event(self):
        sim = Simulator()
        ev = sim.schedule_at(7, lambda: None, tag="x")
        assert sim._heap == [(7, 0, ev)]
        assert (ev.time, ev.seq, ev.tag, ev.owner) == (7, 0, "x", sim)

    def test_schedule_delegates_to_the_instance_schedule_at(self):
        """``schedule`` goes through ``self.schedule_at``, so a wrapper
        installed on the instance sees every relative schedule too."""
        sim = Simulator()
        sim.run(until=10)
        seen = []
        inner = sim.schedule_at

        def wrapped(time, callback, tag=None):
            seen.append((time, tag))
            return inner(time, callback, tag=tag)

        sim.schedule_at = wrapped
        sim.schedule(5, lambda: None, tag="r")
        assert seen == [(15, "r")]

    def test_cancel_keeps_pending_exact_around_execution(self):
        sim = Simulator()
        ran = sim.schedule(1, lambda: None)
        later = sim.schedule(9, lambda: None)
        other = sim.schedule(9, lambda: None)
        sim.run(until=1)
        assert sim.pending_events == 2
        ran.cancel()              # already ran: a no-op
        assert sim.pending_events == 2
        later.cancel()
        later.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        other.cancel()            # ran as well
        assert sim.pending_events == 0 and sim.quiescent()


class TestRunControl:
    def test_until_stops_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, lambda: hits.append("early"))
        sim.schedule(100, lambda: hits.append("late"))
        sim.run(until=50)
        assert hits == ["early"]
        assert sim.now == 50
        sim.run()
        assert hits == ["early", "late"]

    def test_until_advances_clock_on_empty_queue(self):
        """Regression: an empty queue used to leave ``now`` untouched while
        a non-empty one advanced to ``until`` — time must pass either way."""
        sim = Simulator()
        sim.run(until=40)
        assert sim.now == 40

    def test_until_advances_clock_when_queue_drains_early(self):
        sim = Simulator()
        hits = []
        sim.schedule(5, lambda: hits.append("only"))
        sim.run(until=40)
        assert hits == ["only"]
        assert sim.now == 40

    def test_until_idempotent_and_monotonic(self):
        sim = Simulator()
        sim.run(until=10)
        sim.run(until=10)
        assert sim.now == 10
        sim.run(until=30)
        assert sim.now == 30

    def test_until_in_the_past_never_moves_the_clock_back(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(("a", sim.now)))
        sim.run(until=10)
        sim.schedule(5, lambda: fired.append(("late", sim.now)))
        sim.run(until=2)  # a live event is queued past the window
        assert sim.now == 10
        sim.schedule(0, lambda: fired.append(("now", sim.now)))
        sim.run()
        assert fired == [("a", 10), ("now", 10), ("late", 15)]

    def test_max_events_guard_raises(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_max_events_raises_after_exactly_n_events(self, n):
        sim = Simulator()
        fired = []
        for i in range(40):
            sim.schedule(i % 3, lambda i=i: fired.append(i))
        with pytest.raises(RuntimeError, match=f"max_events={n}"):
            sim.run(max_events=n)
        assert len(fired) == sim.events_processed == n
        assert sim.pending_events == 40 - n

    def test_max_events_equal_to_the_work_still_raises(self):
        """The bound counts events, not what is left: the N-th event
        trips it even when the queue is then empty."""
        sim = Simulator()
        for i in range(3):
            sim.schedule(i, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(max_events=3)
        assert sim.events_processed == 3 and sim.quiescent()

    def test_events_processed_exact_after_a_raising_callback(self):
        sim = Simulator()
        fired = []

        def boom():
            raise KeyError("boom")

        for t in range(3):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.schedule(3, boom)
        sim.schedule(4, lambda: fired.append(4))
        with pytest.raises(KeyError):
            sim.run()
        # the raising event is not counted; the rest stay queued
        assert fired == [0, 1, 2] and sim.events_processed == 3
        assert sim.now == 3 and sim.pending_events == 1
        sim.run()
        assert fired == [0, 1, 2, 4] and sim.events_processed == 4

    def test_quiescent_after_drain(self):
        sim = Simulator()
        sim.schedule(3, lambda: None)
        sim.run(max_events=50_000_000)
        assert sim.quiescent()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_cascading_events_same_cycle(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0, lambda: order.append("inner"))

        sim.schedule(1, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1


class TestExecutionOrderProperty:
    """Seeded random schedules: same-cycle ties, cancels before the run and
    from inside callbacks, callbacks that schedule at ``now``.  Whatever
    drives the queue, the executed order is the sorted ``(time, seq)`` of
    every event that was still live when its turn came."""

    MAX_EVENTS = 240

    def _drive(self, seed, drive):
        rng = random.Random(seed)
        sim = Simulator()
        events = []        # every event ever scheduled
        killed = set()     # seqs cancelled before they ran
        executed = []      # (time, seq) in execution order
        ran = set()        # seqs that have run

        def cancel(ev):
            if ev.seq not in ran:
                killed.add(ev.seq)
            ev.cancel()

        def schedule(delay):
            holder = []

            def callback():
                ev = holder[0]
                executed.append((sim.now, ev.seq))
                ran.add(ev.seq)
                assert sim.now == ev.time
                room = self.MAX_EVENTS - len(events)
                for _ in range(min(room, rng.choice((0, 0, 1, 2, 3)))):
                    # delay 0 schedules into the cycle being drained
                    schedule(rng.choice((0, 0, 1, 2, 5)))
                if events and rng.random() < 0.3:
                    cancel(rng.choice(events))

            ev = sim.schedule(delay, callback)
            holder.append(ev)
            events.append(ev)

        for _ in range(60):
            schedule(rng.randrange(12))    # ~5 events per cycle: ties
        for ev in rng.sample(events, 12):  # cancels before the run
            cancel(ev)
        drive(sim, random.Random(seed + 1))
        assert sim.quiescent()
        live = sorted((ev.time, ev.seq) for ev in events
                      if ev.seq not in killed)
        assert executed == live
        assert len(events) > 100 and killed
        return executed

    @staticmethod
    def _run(sim, rng):
        sim.run()

    @staticmethod
    def _step_loop(sim, rng):
        while sim.step():
            pass

    @staticmethod
    def _run_until_split(sim, rng):
        while not sim.quiescent():
            sim.run(until=sim.now + rng.randrange(4))

    @staticmethod
    def _controller_default(sim, rng):
        class Checked(ScheduleController):
            def tie_break(self, batch):
                assert len({ev.time for ev in batch}) == 1
                assert [ev.seq for ev in batch] == sorted(
                    ev.seq for ev in batch)
                assert not any(ev.cancelled for ev in batch)
                return super().tie_break(batch)

        controller = Checked()
        controller.run(sim)
        assert controller.choice_counts

    @pytest.mark.parametrize("seed", range(6))
    def test_every_dispatch_loop_runs_live_events_in_time_seq_order(self, seed):
        orders = [self._drive(seed, drive) for drive in (
            self._run, self._step_loop, self._run_until_split,
            self._controller_default)]
        assert all(order == orders[0] for order in orders)
