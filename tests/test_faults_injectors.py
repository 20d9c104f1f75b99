"""Fault injectors: empty-plan transparency, determinism, safety."""

import pytest

from instrument_matrix import assert_transparent, result_fields, run_radix

from repro.config import ProtocolKind
from repro.analysis.explore.driver import Perturbation, run_perturbation
from repro.faults.injectors import FaultEngine
from repro.faults.plan import FaultPlan, FaultSpec, stress_plan
from repro.faults.watchdog import DEFAULT_WINDOW, LivenessWatchdog

ALL_PROTOCOLS = list(ProtocolKind)


def _faulted(plan):
    return result_fields(run_radix(ProtocolKind.SCALABLEBULK,
                                   [FaultEngine(plan)]))


class TestEmptyPlanIsTransparent:
    """Issue 5 satellite: an empty FaultPlan (with the watchdog attached)
    must produce a byte-identical RunResult to a plain run, for every
    protocol — chaos infrastructure has zero cost when it injects nothing.
    """

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS,
                             ids=[p.value for p in ALL_PROTOCOLS])
    def test_empty_plan_run_identical_to_plain_run(self, protocol):
        assert_transparent(protocol, [
            FaultEngine(FaultPlan.empty()),
            LivenessWatchdog(window=DEFAULT_WINDOW)])


class TestSeededPlanDeterminism:
    """Issue 5 satellite: two runs of the same seeded plan are identical —
    all injector randomness derives from the plan seed alone."""

    def _noisy_plan(self, seed):
        return FaultPlan(name="noisy", seed=seed, faults=(
            FaultSpec.make("latency-spike", start=0, duration=4_000,
                           extra=8, jitter=12),
            FaultSpec.make("core-jitter", core=1, start=0, duration=4_000,
                           max_extra=20),
        ))

    def test_same_plan_same_result(self):
        assert _faulted(self._noisy_plan(11)) == _faulted(self._noisy_plan(11))

    def test_different_plan_seed_diverges(self):
        """The jittered injectors actually consume their substreams."""
        assert _faulted(self._noisy_plan(11)) != _faulted(self._noisy_plan(12))

    def test_faults_actually_slow_the_run(self):
        plain = run_radix(ProtocolKind.SCALABLEBULK)
        faulted = _faulted(FaultPlan(name="slow", seed=0, faults=(
            FaultSpec.make("latency-spike", start=0, duration=10**9,
                           extra=30, jitter=0),)))
        assert faulted["total_cycles"] > plain.total_cycles


class TestSafetyUnderFaults:
    """Timing-level faults must never break the oracle or conformance:
    run_perturbation gates every chaos execution through the invariant
    monitor."""

    @pytest.mark.parametrize("scenario_name",
                             ["cross3", "mixed3", "tcc3", "bulksc3", "seq3"])
    def test_aggressive_plan_stays_safe(self, scenario_name):
        from repro.analysis.explore.scenarios import SCENARIOS
        scenario = SCENARIOS[scenario_name]
        faults = [
            FaultSpec.make("latency-spike", start=0, duration=8_000,
                           extra=15, jitter=25),
            FaultSpec.make("dir-stall", dir=scenario.n_cores - 1, start=100,
                           duration=5_000, extra=40),
            FaultSpec.make("core-jitter", core=0, start=0, duration=8_000,
                           max_extra=30),
        ]
        if scenario.protocol is ProtocolKind.SCALABLEBULK:
            faults.append(FaultSpec.make("squash-storm", start=0,
                                         duration=6_000, prob=0.6))
        plan = FaultPlan(name="aggressive", seed=9, faults=tuple(faults))
        result = run_perturbation(scenario, Perturbation(plan=plan))
        assert result.safety_codes == [], result.violations
        assert result.commits == scenario.n_cores * scenario.chunks_per_core

    def test_stress_plan_nominal_protocol_survives(self):
        """The mutation check's storm plan is survivable when the
        reservation machinery works: starvation avoidance is exactly what
        guarantees progress under a squash storm."""
        from repro.analysis.explore.scenarios import SCENARIOS
        result = run_perturbation(SCENARIOS["cross3"],
                                  Perturbation(plan=stress_plan(0)))
        assert result.violations == [], result.violations

    def test_storm_counts_activations(self):
        from repro.analysis.explore.scenarios import SCENARIOS
        plan = FaultPlan(name="storm", seed=3, faults=(
            FaultSpec.make("squash-storm", start=0, duration=10_000,
                           prob=0.7),))
        result = run_perturbation(SCENARIOS["cross3"],
                                  Perturbation(plan=plan))
        assert result.activations[0] > 0
