"""Batched same-cycle dispatch must be invisible.

``Simulator.run`` drains all events due at the current cycle in one inner
loop (an attached bus's ``sim_step`` fires inside it).  A
``ScheduleController`` replaces that loop with its own, which picks one
event per step through ``Simulator.fire``.  These tests pin the two loops
to each other: an empty-schedule controller (exactly the default policy,
but dispatching event by event) must reproduce the batched run
bit-for-bit — at the simulator level, for full protocol runs of all four
protocols, and for the per-event ``sim_queue`` samples a bus records.
"""

from functools import partial

import pytest

from repro.analysis.explore import ScheduleController
from repro.config import ProtocolKind, SystemConfig
from repro.engine.events import Simulator
from repro.harness.runner import Machine
from repro.obs.bus import InstrumentationBus
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


def _protocol_result(protocol: ProtocolKind, controller=None, bus=None):
    config = SystemConfig(n_cores=4, seed=7, protocol=protocol)
    workload = SyntheticWorkload(get_profile("Radix"), config,
                                 active_cores=4, chunks_per_partition=2)
    machine = Machine(config, workload=workload)
    instruments = [inst for inst in (bus, controller) if inst is not None]
    machine.run(instruments=instruments)
    return machine.result("Radix", 4), machine.sim.now


class TestBatchedMatchesStepwise:
    @pytest.mark.parametrize("proto", list(ProtocolKind))
    def test_run_result_identical_under_empty_schedule_controller(self, proto):
        """An empty-schedule controller routes the whole run through its
        own loop without changing the policy; any divergence from the
        default (batched) run is a batching bug."""
        batched, cycles_batched = _protocol_result(proto)
        controller = ScheduleController()
        stepwise, cycles_stepwise = _protocol_result(proto, controller)
        assert controller.choice_counts, "no choice point; vacuous run"
        assert cycles_stepwise == cycles_batched
        assert stepwise == batched

    @pytest.mark.parametrize("proto", list(ProtocolKind))
    def test_bus_sim_step_samples_identical_to_stepwise(self, proto):
        """With a bus attached the batched loop emits ``sim_step`` after
        each pop: every (time, queue depth) sample must match the one
        the controller's loop records under the default order."""
        buses = [InstrumentationBus(gauge_capacity=1 << 20) for _ in range(2)]
        batched, _ = _protocol_result(proto, bus=buses[0])
        controller = ScheduleController()
        stepwise, _ = _protocol_result(proto, controller, bus=buses[1])
        assert controller.choice_counts, "no choice point; vacuous run"
        batched_q, stepwise_q = (b.gauges.get("sim_queue") for b in buses)
        assert batched_q.dropped_samples == 0
        assert batched_q.total_samples > 0
        assert batched_q.samples() == stepwise_q.samples()
        assert stepwise == batched

    def test_cascade_order_identical(self):
        """Same-cycle events that schedule more same-cycle events must run
        in the same total order on both paths (new events carry a higher
        seq, so they sort after the in-flight batch)."""

        def cascade(sim):
            order = []

            def spawn(tag, depth):
                order.append(tag)
                if depth:
                    sim.schedule(0, lambda: spawn(tag + ".a", depth - 1))
                    sim.schedule(0, lambda: spawn(tag + ".b", depth - 1))

            sim.schedule(0, lambda: spawn("x", 2))
            sim.schedule(0, lambda: spawn("y", 2))
            sim.schedule(3, lambda: order.append("later"))
            sim.run()
            return order

        batched_sim = Simulator()
        stepwise_sim = Simulator()
        controller = ScheduleController()
        stepwise_sim.run = partial(controller.run, stepwise_sim)
        batched = cascade(batched_sim)
        stepwise = cascade(stepwise_sim)
        assert controller.choice_counts, "no choice point; vacuous run"
        assert batched == stepwise
        assert batched[-1] == "later"
        assert len(batched) == 15  # 2 roots * (1 + 2 + 4) + "later"

    def test_same_cycle_cancellation_honoured_mid_batch(self):
        """An event cancelled by an earlier same-cycle event must not fire
        even though both were already due when the batch began."""
        sim = Simulator()
        fired = []
        victim_holder = {}
        sim.schedule(0, lambda: victim_holder["ev"].cancel())
        victim_holder["ev"] = sim.schedule(0, lambda: fired.append("victim"))
        sim.schedule(0, lambda: fired.append("survivor"))
        sim.run()
        assert fired == ["survivor"]
        assert sim.quiescent()

    def test_exception_mid_batch_leaves_queue_consistent(self):
        """A raising callback must leave the rest of the cycle queued
        exactly as the stepwise path would: the failed event consumed,
        later events intact and runnable."""
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append("before"))

        def boom():
            raise RuntimeError("hostile callback")

        sim.schedule(0, boom)
        sim.schedule(0, lambda: fired.append("after"))
        with pytest.raises(RuntimeError, match="hostile callback"):
            sim.run()
        assert fired == ["before"]
        assert sim.pending_events == 1
        sim.run()  # the surviving event is still dispatchable
        assert fired == ["before", "after"]
        assert sim.quiescent()

    def test_max_events_guard_fires_mid_batch(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.pending_events == 2

    def test_until_semantics_with_batches(self):
        sim = Simulator()
        fired = []
        sim.schedule(2, lambda: fired.append("a"))
        sim.schedule(2, lambda: fired.append("b"))
        sim.schedule(9, lambda: fired.append("late"))
        sim.run(until=5)
        assert fired == ["a", "b"]
        assert sim.now == 5
        sim.run()
        assert fired == ["a", "b", "late"]
        assert sim.now == 9
