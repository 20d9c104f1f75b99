"""Liveness watchdog: fires on stalls, stays silent on progress."""

import pytest

from repro.analysis.explore.mutations import MUTATIONS
from repro.analysis.explore.scenarios import SCENARIOS, build_machine
from repro.analysis.explore.driver import Perturbation, run_perturbation
from repro.faults.plan import stress_plan
from repro.faults.watchdog import LivenessWatchdog, machine_snapshot
from repro.obs.bus import WATCHDOG_FIRE, InstrumentationBus


def _run(machine, instruments, max_events=150_000):
    try:
        machine.run(max_events=max_events, prewarm=False,
                    instruments=instruments)
    except RuntimeError:
        pass


class TestQuietOnProgress:
    def test_no_fires_on_clean_run(self):
        machine = build_machine(SCENARIOS["mixed3"])
        dog = LivenessWatchdog(window=500)
        _run(machine, [dog])
        assert dog.fires == []
        assert dog.checks >= 1

    def test_watchdog_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            LivenessWatchdog(window=0)


class TestFiresOnStall:
    def _wedged_machine(self):
        """reservation-leak + a forced permanent reservation: directory 2
        defers every group for an identity that committed long ago."""
        scenario = SCENARIOS["cross3"]
        machine = build_machine(scenario)
        MUTATIONS["reservation-leak"].apply(machine)
        from repro.core.directory_engine import ScalableBulkDirectory
        for directory in machine.directories:
            if isinstance(directory, ScalableBulkDirectory):
                directory.reserved_for = (99, 99)  # never matches, never fails
        return machine

    def test_fires_are_bounded_and_run_terminates(self):
        # The deferred groups keep the cores' retry loop alive, so this
        # wedge surfaces as livelock (max_events) rather than a drained
        # heap; either way the watchdog stops at max_fires.
        machine = self._wedged_machine()
        dog = LivenessWatchdog(window=2_000, max_fires=3)
        with pytest.raises(RuntimeError,
                           match="max_events|unfinished cores"):
            machine.run(max_events=200_000, prewarm=False,
                        instruments=[dog])
        assert len(dog.fires) == 3
        # Fires carry the live CST state for post-mortem debugging.
        snap = dog.fires[-1].snapshot
        assert snap["dirs"], snap
        assert any(d["reserved_for"] == [99, 99] for d in snap["dirs"])
        assert any(not c["finished"] for c in snap["cores"])

    def test_fire_json_round_trips(self):
        machine = self._wedged_machine()
        dog = LivenessWatchdog(window=2_000, max_fires=1)
        with pytest.raises(RuntimeError):
            machine.run(max_events=10**6, prewarm=False, instruments=[dog])
        import json
        blob = json.dumps([f.to_json() for f in dog.fires], sort_keys=True)
        assert json.loads(blob)[0]["commits"] == dog.fires[0].commits

    def test_fires_reach_the_obs_bus(self):
        """A recorder anywhere in the instrument list hears the fires."""
        for recorder_first in (True, False):
            machine = self._wedged_machine()
            bus = InstrumentationBus()
            dog = LivenessWatchdog(window=2_000, max_fires=2)
            with pytest.raises(RuntimeError):
                machine.run(max_events=10**6, prewarm=False,
                            instruments=[bus, dog] if recorder_first
                            else [dog, bus])
            hooks = [e for e in bus.events if e.kind == WATCHDOG_FIRE]
            assert len(hooks) == 2
            assert hooks[0].fields["snapshot"]["dirs"]


class TestSnapshot:
    def test_snapshot_is_read_only_and_jsonable(self):
        import json
        machine = build_machine(SCENARIOS["cross3"])
        machine.run(max_events=150_000, prewarm=False)
        snap = machine_snapshot(machine)
        json.dumps(snap)  # must not raise
        assert snap["time"] == int(machine.sim.now)
        assert len(snap["cores"]) == 3
        assert all(c["finished"] for c in snap["cores"])

    def test_run_plan_surfaces_watchdog_fires(self):
        """run_perturbation wires the watchdog verdict into the result."""
        scenario = SCENARIOS["cross3"]
        result = run_perturbation(scenario, watchdog=500)
        assert result.watchdog_fires == []
        assert not result.failed

    def test_run_plan_detects_leak_under_storm(self):
        """The headline behaviour: reservation-leak wedges the machine
        under a squash storm, and both the watchdog and the liveness
        invariants see it."""
        scenario = SCENARIOS["cross3"]
        result = run_perturbation(scenario,
                                  Perturbation(plan=stress_plan(0)),
                                  MUTATIONS["reservation-leak"],
                                  watchdog=5_000)
        assert set(result.codes) & {"SB403", "SB404"}, result.codes
        assert result.watchdog_fires
