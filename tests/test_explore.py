"""The schedule-exploration model checker (repro.analysis.explore).

Covers the two engine hooks (default path byte-identical to the seed
behaviour, perturbed path deterministic per explorer seed), the clean
sweep over unmutated scenarios, mutation detection with shrink/replay,
and the artifact format round-trip.
"""

import json

import pytest

from repro.analysis.explore import (
    SCENARIOS,
    Schedule,
    ScheduleController,
    build_machine,
    run_perturbation,
    shrink,
)
from repro.analysis.explore.controller import reorder_candidates
from repro.analysis.explore.scenarios import SMOKE_SCENARIOS
from repro.analysis.explore.strategies import explore_exhaustive, explore_random
from repro.analysis.explore.trace import (artifact_json, load_artifact,
                                          replay_artifact, save_artifact)
from repro.analysis.mutations import MUTATIONS
from repro.config import ProtocolKind, SystemConfig
from repro.engine.events import Event, Simulator
from repro.engine.rng import DeterministicRng
from repro.harness.runner import Machine
from repro.obs.bus import (COMMIT_COMPLETE, COMMIT_REQUEST, GROUP_FAILED,
                           GROUP_FORMED, SQUASH, InstrumentationBus)
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile
from teeth import assert_cell

#: the ScalableBulk runtime bugs nominal exploration must catch, shrink
#: and replay
NOMINAL = ["collision-wrong-winner", "drop-commit-nack",
           "skip-w-intersection"]


def _timeline(machine: Machine, *instruments):
    bus = InstrumentationBus(record_messages=False)
    machine.run(instruments=[*instruments, bus])
    return [e.to_json() for e in bus.of_kind(
        COMMIT_REQUEST, COMMIT_COMPLETE, SQUASH, GROUP_FORMED,
        GROUP_FAILED)], machine.sim.now


def _workload_machine(seed: int = 7) -> Machine:
    config = SystemConfig(n_cores=4, seed=seed,
                          protocol=ProtocolKind.SCALABLEBULK)
    workload = SyntheticWorkload(get_profile("Radix"), config,
                                 active_cores=4, chunks_per_partition=2)
    return Machine(config, workload=workload)


class TestHookDefaultPath:
    def test_empty_schedule_is_byte_identical(self):
        """Attached hooks with the empty schedule == no hooks at all."""
        bare, bare_cycles = _timeline(_workload_machine())
        hooked, hooked_cycles = _timeline(_workload_machine(),
                                          ScheduleController(Schedule()))
        assert bare, "run produced no commit events"
        assert bare_cycles == hooked_cycles
        assert bare == hooked

    def test_all_default_picks_realize_to_empty_schedule(self):
        controller = ScheduleController(Schedule())
        _workload_machine().run(instruments=[controller])
        assert controller.realized.trimmed().ties == []
        assert controller.realized.trimmed().delays == {}


class TestHookPerturbedPath:
    def _perturbed(self, seed: int):
        root = DeterministicRng(seed, "test/explore")
        controller = ScheduleController(
            None, tie_rng=root.split("ties"), delay_rng=root.split("delays"))
        timeline, cycles = _timeline(_workload_machine(), controller)
        return timeline, cycles, controller.realized.trimmed()

    def test_same_explorer_seed_reproduces(self):
        one, cycles_a, sched_a = self._perturbed(3)
        two, cycles_b, sched_b = self._perturbed(3)
        assert cycles_a == cycles_b
        assert one == two
        assert sched_a.ties == sched_b.ties
        assert sched_a.delays == sched_b.delays

    def test_different_explorer_seed_diverges(self):
        _, _, sched_a = self._perturbed(3)
        _, _, sched_b = self._perturbed(4)
        assert (sched_a.ties, sched_a.delays) != (sched_b.ties, sched_b.delays)

    def test_realized_schedule_replays_identically(self):
        """A random run's realized schedule reproduces it without the RNG."""
        scenario = SCENARIOS["mixed3"]
        root = DeterministicRng(5, "test/replay")
        random_run = run_perturbation(scenario, None,
                                      tie_rng=root.split("ties"),
                                      delay_rng=root.split("delays"))
        replayed = run_perturbation(scenario, random_run.perturbation)
        assert replayed.cycles == random_run.cycles
        assert replayed.schedule.ties == random_run.schedule.ties
        assert replayed.schedule.delays == random_run.schedule.delays


class TestReorderCandidates:
    def _ev(self, tag):
        return Event(time=0, seq=0, callback=lambda: None, tag=tag)

    def test_same_flow_deliveries_keep_fifo(self):
        batch = [self._ev(("deliver", "a", "b", 1)),
                 self._ev(("deliver", "a", "b", 2)),
                 self._ev(("deliver", "c", "b", 3))]
        assert reorder_candidates(batch) == [0, 2]

    def test_non_delivery_events_always_candidates(self):
        batch = [self._ev(None), self._ev(("deliver", "a", "b", 1)),
                 self._ev(None)]
        assert reorder_candidates(batch) == [0, 1, 2]

    def test_tie_breaker_defaults_to_seq_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append("first"))
        sim.schedule(0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]


class TestScheduleFormat:
    def test_json_round_trip(self):
        schedule = Schedule(ties=[0, 2, 1], delays={3: 7, 11: 2})
        again = Schedule.from_json(
            json.loads(json.dumps(schedule.to_json())))
        assert again.ties == schedule.ties
        assert again.delays == schedule.delays

    def test_trimmed_drops_defaults(self):
        schedule = Schedule(ties=[0, 1, 0, 0], delays={2: 0, 5: 4})
        trimmed = schedule.trimmed()
        assert trimmed.ties == [0, 1]
        assert trimmed.delays == {5: 4}

    def test_scenario_round_trip(self):
        for scenario in SCENARIOS.values():
            clone = type(scenario).from_json(scenario.to_json())
            assert clone == scenario


class TestUnmutatedClean:
    @pytest.mark.parametrize("name", SMOKE_SCENARIOS)
    def test_exhaustive_smoke_is_clean(self, name):
        report = explore_exhaustive(SCENARIOS[name], max_schedules=25,
                                    depth=8)
        assert report.clean, report.violation.violations

    def test_delay_sampling_is_clean(self):
        report = explore_random(SCENARIOS["nack3"], n_schedules=12, seed=7,
                                with_delays=True)
        assert report.clean, report.violation.violations


class TestMutationsCaught:
    @pytest.mark.parametrize("name", NOMINAL)
    def test_mutation_detected_and_replayable(self, name, tmp_path):
        mutation = MUTATIONS[name]
        scenario = SCENARIOS[mutation.scenario]
        report = explore_exhaustive(scenario, mutation, max_schedules=60,
                                    depth=8)
        assert not report.clean, f"{name} survived exploration"
        found = report.violation
        primary = found.codes[0]
        assert primary in mutation.caught["explore"]

        minimized = shrink(scenario, found.perturbation, mutation,
                           lambda r: primary in r.codes, max_runs=40)
        assert primary in minimized.codes
        assert (minimized.schedule.decision_count()
                <= found.schedule.decision_count())

        path = tmp_path / f"{name}.json"
        save_artifact(artifact_json(minimized), str(path))
        replay = replay_artifact(load_artifact(str(path)))
        assert primary in replay.codes

    def test_mutation_requires_scalablebulk(self):
        with pytest.raises(ValueError):
            MUTATIONS["drop-commit-nack"].apply(
                build_machine(SCENARIOS["tcc3"]))

    def test_chaos_only_mutation_survives_nominal_exploration(self):
        """reservation-leak is why the chaos campaign exists: without
        fault injection the reservation machinery never engages in these
        micro-scenarios, so nominal exploration cannot reach the bug.
        ``python -m repro chaos --mutation-check`` proves chaos catches
        it (see docs/robustness.md)."""
        assert "explore" not in MUTATIONS["reservation-leak"].caught
        assert_cell("reservation-leak", "explore")


class TestTraceFormat:
    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_clean_run_round_trips(self, tmp_path):
        result = run_perturbation(SCENARIOS["pair"])
        path = tmp_path / "clean.json"
        save_artifact(artifact_json(result), str(path))
        replay = replay_artifact(load_artifact(str(path)))
        assert not replay.failed
        assert replay.cycles == result.cycles
