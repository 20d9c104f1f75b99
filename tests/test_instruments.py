"""The one instrument interface: every checker, tracer, watchdog, profiler
and perturbation attaches through ``Machine.run(instruments=[...])``.

* Observers leave ``RunResult`` byte-identical under every combination,
  for all four protocols.
* Observers read the protocol's hook points; attaching them patches no
  method of any simulator component.
* Perturbers compose in either list order.
"""

import pytest

from instrument_matrix import assert_transparent

from repro.analysis.explore.controller import Schedule, ScheduleController
from repro.analysis.explore.invariants import InvariantMonitor
from repro.analysis.explore.scenarios import SCENARIOS, build_machine
from repro.config import ProtocolKind
from repro.engine.rng import DeterministicRng
from repro.faults.injectors import FaultEngine
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.watchdog import LivenessWatchdog
from repro.obs.bus import NULL_BUS, FanOut, InstrumentationBus, NullBus
from repro.obs.profile import HostProfiler
from repro.validation.oracle import InvalidationOracle
from repro.validation.orderings import ProtocolConformanceChecker

SB = ProtocolKind.SCALABLEBULK


def _everything(protocol):
    observers = [InstrumentationBus(), LivenessWatchdog(window=2_000),
                 HostProfiler()]
    return observers + ([InvalidationOracle()] if protocol is SB else [])


#: instrument lists every protocol must run unperturbed under
COMBOS = {
    "none": lambda protocol: [],
    "recorder": lambda protocol: [InstrumentationBus()],
    "profiler": lambda protocol: [HostProfiler()],
    "watchdog": lambda protocol: [LivenessWatchdog(window=2_000)],
    "empty-faults": lambda protocol: [FaultEngine(FaultPlan.empty())],
    "everything": _everything,
}


class TestByteIdentityMatrix:
    @pytest.mark.parametrize("combo", list(COMBOS))
    @pytest.mark.parametrize("protocol", list(ProtocolKind),
                             ids=[p.value for p in ProtocolKind])
    def test_run_result_identical(self, protocol, combo):
        assert_transparent(protocol, COMBOS[combo](protocol))


def _callables(obj):
    return {name: value for name, value in vars(obj).items()
            if callable(value)}


class TestObserversDoNotPatch:
    def test_no_component_gains_or_changes_a_method(self):
        machine = build_machine(SCENARIOS["cross3"])
        parts = [machine.sim, machine.network, machine.protocol,
                 *machine.cores, *machine.directories,
                 *machine.protocol.engines]
        before = [_callables(part) for part in parts]
        oracle = InvalidationOracle()
        checker = ProtocolConformanceChecker()
        monitor = InvariantMonitor(
            expected_per_core=SCENARIOS["cross3"].chunks_per_core)
        machine.run(prewarm=False, instruments=[
            InstrumentationBus(), oracle, checker, monitor,
            LivenessWatchdog(window=500)])
        after = [_callables(part) for part in parts]
        assert after == before
        assert oracle.commits_checked > 0 and not oracle.violations
        assert checker.messages_checked > 0 and not checker.violations
        assert monitor.violations == []
        assert all(part.obs is machine.obs for part in parts
                   if hasattr(part, "obs") and part is not machine.protocol)

    def test_profiler_only_run_keeps_the_null_bus(self):
        machine = build_machine(SCENARIOS["cross3"])
        profiler = HostProfiler()
        machine.run(prewarm=False, instruments=[profiler])
        assert machine.sim.obs is NULL_BUS
        assert machine.network.obs is NULL_BUS
        assert machine.obs is NULL_BUS
        assert profiler.scopes

    def test_hooks_a_component_does_not_emit_keep_it_on_the_null_bus(self):
        """The monitor reads no ``sim_step``: the event loop stays on its
        untraced path while the NoC feeds the conformance rules."""
        scenario = SCENARIOS["cross3"]
        monitor = InvariantMonitor(expected_per_core=scenario.chunks_per_core)
        machine = build_machine(scenario)
        machine.run(prewarm=False, instruments=[monitor])
        assert monitor.violations == []
        assert machine.sim.obs is NULL_BUS
        assert machine.obs is not NULL_BUS
        assert machine.network.obs is machine.obs


class TestFanOut:
    def test_each_hook_resolves_once(self):
        calls = []

        class Squashes(NullBus):
            def __init__(self, name):
                self.name = name

            def squash(self, time, core, tag, reason):
                calls.append(self.name)

        one = Squashes("one")
        fan = FanOut([one, HostProfiler()])
        assert fan.hooks == {"squash"}
        assert fan.squash == one.squash          # one subscriber: bound
        assert "exec_start" not in vars(fan)     # none: the no-op
        both = FanOut([one, Squashes("two")])
        both.squash(0, 0, "t", "conflict")
        assert calls == ["one", "two"]           # several: list order

    def test_finish_runs_whether_or_not_the_run_raised(self):
        seen = []

        class Finisher(NullBus):
            def finish(self, machine, error):
                seen.append(type(error).__name__ if error else None)

        machine = build_machine(SCENARIOS["cross3"])
        with pytest.raises(RuntimeError, match="max_events"):
            machine.run(max_events=50, prewarm=False,
                        instruments=[Finisher()])
        machine = build_machine(SCENARIOS["cross3"])
        machine.run(prewarm=False, instruments=[Finisher()])
        assert seen == ["RuntimeError", None]


class TestAttachOrderIndependence:
    """The schedule controller chains its delay hook onto one already
    installed, like the fault engine does, so neither order drops the
    other's delays."""

    PLAN = FaultPlan(name="mixed", seed=4, faults=(
        FaultSpec.make("latency-spike", start=0, duration=6_000, extra=9,
                       jitter=7),
        FaultSpec.make("dir-stall", dir=1, start=200, duration=3_000,
                       extra=25),
    ))

    def _run(self, faults_first):
        machine = build_machine(SCENARIOS["cross3"])
        root = DeterministicRng(17, "attach-order")
        controller = ScheduleController(
            Schedule(), tie_rng=root.split("ties"),
            delay_rng=root.split("delays"))
        faults = FaultEngine(self.PLAN)
        order = [faults, controller] if faults_first else [controller,
                                                           faults]
        machine.run(prewarm=False, instruments=order)
        return (controller.realized.to_json(), list(faults.activations),
                machine.sim.now)

    def test_both_orders_realize_the_same_run(self):
        faults_first = self._run(True)
        controller_first = self._run(False)
        assert faults_first == controller_first
        schedule, activations, _ = faults_first
        assert schedule["delays"], "the controller drew no delays"
        assert all(activations), activations
