"""The schedule-exploration model checker (repro.analysis.explore).

Covers the two engine hooks (default path byte-identical to the seed
behaviour, perturbed path deterministic per explorer seed), the clean
sweep over unmutated scenarios, mutation detection with shrink/replay,
and the artifact format round-trip.
"""

import json
from functools import partial

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
from repro.network.message import Message, MessageType, dir_node
from repro.obs.bus import (COMMIT_COMPLETE, COMMIT_REQUEST, GROUP_FAILED,
                           GROUP_FORMED, SQUASH, InstrumentationBus, NullBus)
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
    """A delivery event's tag is the delivered ``Message``; its flow is
    ``(tag.src, tag.dst)``."""

    def _ev(self, tag):
        return Event(time=0, seq=0, callback=lambda: None, tag=tag)

    def _delivery(self, src, dst):
        return self._ev(Message(MessageType.G, dir_node(src), dir_node(dst)))

    def test_same_flow_deliveries_keep_fifo(self):
        batch = [self._delivery(0, 1), self._delivery(0, 1),
                 self._delivery(2, 1)]
        assert reorder_candidates(batch) == [0, 2]

    def test_non_delivery_events_always_candidates(self):
        batch = [self._ev(None), self._delivery(0, 1), self._ev(None)]
        assert reorder_candidates(batch) == [0, 1, 2]

    def test_default_order_is_seq_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, lambda: fired.append("first"))
        sim.schedule(0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]


class _Spy(ScheduleController):
    """Records the seqs of every batch offered to ``tie_break``."""

    def __init__(self, schedule=None):
        super().__init__(schedule)
        self.offered = []

    def tie_break(self, batch):
        self.offered.append([ev.seq for ev in batch])
        return super().tie_break(batch)


class _Depths(NullBus):
    """Records the queue depth of every ``sim_step``."""

    enabled = True

    def __init__(self):
        self.depths = []

    def sim_step(self, time, queue_depth):
        self.depths.append((time, queue_depth))


class TestControllerLoop:
    """``ScheduleController.run`` keeps ``Simulator.run``'s contract."""

    @staticmethod
    def _same_cycle(n, fired):
        sim = Simulator()
        events = [sim.schedule(0, partial(fired.append, i)) for i in range(n)]
        return sim, events

    def test_max_events_fires_mid_batch(self):
        errors = []
        for run in (Simulator.run, ScheduleController().run):
            sim, _ = self._same_cycle(5, [])
            with pytest.raises(RuntimeError, match="max_events") as err:
                run(sim, max_events=3)
            assert sim.events_processed == 3
            assert sim.pending_events == 2
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_until_advances_clock_over_empty_window(self):
        sim = Simulator()
        controller = ScheduleController()
        controller.run(sim, until=7)
        assert sim.now == 7
        fired = []
        sim.schedule(2, lambda: fired.append("a"))
        sim.schedule(2, lambda: fired.append("b"))
        sim.schedule(9, lambda: fired.append("late"))
        controller.run(sim, until=12)
        assert fired == ["a", "b"]
        assert sim.now == 12
        controller.run(sim)
        assert fired == ["a", "b", "late"]
        assert sim.now == 16
        controller.run(sim, until=30)
        assert sim.now == 30

    def test_until_in_the_past_never_moves_the_clock_back(self):
        sim = Simulator()
        controller = ScheduleController()
        fired = []
        sim.schedule(10, lambda: fired.append(("a", sim.now)))
        controller.run(sim, until=10)
        sim.schedule(5, lambda: fired.append(("late", sim.now)))
        controller.run(sim, until=2)  # a live event is queued past it
        assert sim.now == 10
        sim.schedule(0, lambda: fired.append(("now", sim.now)))
        controller.run(sim)
        assert fired == [("a", 10), ("now", 10), ("late", 15)]

    def test_cancelled_event_never_offered_nor_fired(self):
        sim = Simulator()
        fired = []
        victim = []
        sim.schedule(0, lambda: (fired.append("killer"), victim[0].cancel()))
        sim.schedule(0, lambda: fired.append("bystander"))
        victim.append(sim.schedule(0, lambda: fired.append("victim")))
        sim.schedule(0, lambda: fired.append("last"))
        spy = _Spy()
        spy.run(sim)
        assert fired == ["killer", "bystander", "last"]
        assert spy.offered[0] == [0, 1, 2, 3]
        assert all(2 not in seqs for seqs in spy.offered[1:])
        assert sim.quiescent()

    def test_queue_depths_match_production_loop(self):
        """A cancelled entry stays queued until it reaches the top, so an
        attached bus samples the depths the production loop would."""
        samples = []
        for run in (Simulator.run, ScheduleController().run):
            sim, events = self._same_cycle(4, [])
            sim.schedule(1, lambda: None)
            events[1].cancel()
            sim.obs = _Depths()
            run(sim)
            samples.append(sim.obs.depths)
        assert samples[0] == samples[1] == [(0, 4), (0, 2), (0, 1), (1, 0)]

    def test_non_default_pick_runs_first(self):
        fired = []
        sim, _ = self._same_cycle(4, fired)
        sim.schedule(1, lambda: fired.append("next"))
        spy = _Spy(Schedule(ties=[2]))
        spy.run(sim)
        assert fired == [2, 0, 1, 3, "next"]
        assert spy.offered == [[0, 1, 2, 3], [0, 1, 3], [1, 3]]
        assert spy.realized.ties == [2, 0, 0]


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
