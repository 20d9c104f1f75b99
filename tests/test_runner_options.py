"""Tests for runner options and the ScalableBulk protocol object."""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.harness.runner import Machine, SimulationRunner, run_app
from repro.validation.oracle import InvalidationOracle
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


class TestPriorityOffsetClock:
    def _protocol(self, interval):
        config = SystemConfig(n_cores=9, seed=3,
                              priority_rotation_interval=interval)
        machine = Machine(config, next_spec=lambda c: None)
        return machine

    def test_offset_zero_without_rotation(self):
        m = self._protocol(0)
        m.sim.schedule(5000, lambda: None)
        m.sim.run()
        assert m.protocol.priority_offset() == 0

    def test_offset_advances_with_time(self):
        m = self._protocol(100)
        assert m.protocol.priority_offset() == 0
        m.sim.schedule(250, lambda: None)
        m.sim.run()
        assert m.protocol.priority_offset() == 2

    def test_offset_wraps_at_module_count(self):
        m = self._protocol(10)
        m.sim.schedule(10 * 9 + 5, lambda: None)
        m.sim.run()
        assert m.protocol.priority_offset() == 0


class TestPrewarmToggle:
    def test_cold_run_slower_than_prewarmed(self):
        def run(prewarm):
            config = SystemConfig(n_cores=4, seed=3)
            w = SyntheticWorkload(get_profile("LU"), config, active_cores=4,
                                  chunks_per_partition=2)
            m = Machine(config, workload=w)
            m.run(prewarm=prewarm)
            return m.sim.now

        assert run(prewarm=False) > run(prewarm=True)

    def test_prewarm_returns_fill_count(self):
        config = SystemConfig(n_cores=4, seed=3)
        w = SyntheticWorkload(get_profile("LU"), config, active_cores=4,
                              chunks_per_partition=1)
        m = Machine(config, workload=w)
        assert m.prewarm() > 0

    def test_prewarm_without_workload_is_zero(self):
        config = SystemConfig(n_cores=4, seed=3)
        m = Machine(config, next_spec=lambda c: None)
        assert m.prewarm() == 0


class TestRunnerValidation:
    def test_machine_needs_a_source(self):
        with pytest.raises(ValueError):
            Machine(SystemConfig(n_cores=4))

    def test_unfinished_machine_raises(self):
        config = SystemConfig(n_cores=4, seed=3)
        m = Machine(config, next_spec=lambda c: None)
        # wedge core 0: replace its finish check so it never completes
        m.cores[0]._maybe_finish = lambda: None
        with pytest.raises(RuntimeError, match="unfinished"):
            m.run()

    def test_run_app_rejects_unknown_app(self):
        with pytest.raises(KeyError):
            run_app("Quake", n_cores=4)

    def test_runner_respects_access_scale(self):
        config = SystemConfig(n_cores=4, seed=3)
        small = SimulationRunner("LU", config, chunks_per_partition=1,
                                 access_scale=0.5)
        big = SimulationRunner("LU", config, chunks_per_partition=1,
                               access_scale=1.0)
        s_spec = small.workload.generate_chunk(0, 0)
        b_spec = big.workload.generate_chunk(0, 0)
        assert s_spec.n_accesses < b_spec.n_accesses


class TestResultAggregation:
    def test_inactive_cores_excluded_from_breakdown(self):
        r = run_app("LU", n_cores=4, active_cores=2, chunks_per_partition=1)
        # the idle cores contribute no useful cycles; fractions still sum
        assert sum(r.breakdown_fractions().values()) == pytest.approx(1.0)
        assert r.chunks_committed == 4

    def test_traffic_dict_is_plain(self):
        r = run_app("LU", n_cores=4, chunks_per_partition=1)
        assert all(isinstance(k, str) for k in r.traffic_by_class)


class TestOracleOption:
    def test_oracle_run_is_clean_on_small_app(self):
        oracle = InvalidationOracle()
        r = run_app("LU", n_cores=4, chunks_per_partition=1,
                    instruments=[oracle])
        assert r.chunks_committed > 0
        assert oracle.commits_checked > 0

    def test_oracle_default_off_matches_oracle_on(self):
        """The oracle is an observer: enabling it must not change the run."""
        plain = run_app("LU", n_cores=4, chunks_per_partition=1)
        checked = run_app("LU", n_cores=4, chunks_per_partition=1,
                          instruments=[InvalidationOracle()])
        assert plain.total_cycles == checked.total_cycles
        assert plain.chunks_committed == checked.chunks_committed

    def test_oracle_refuses_baseline_protocols(self, monkeypatch):
        """The oracle checks ScalableBulk group confirmations only: on any
        other protocol it would pass vacuously, so the run is refused
        before a single event executes."""
        from repro.engine.events import Simulator

        def no_run(self, *args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(Simulator, "run", no_run)
        for protocol in (ProtocolKind.TCC, ProtocolKind.SEQ,
                         ProtocolKind.BULKSC):
            with pytest.raises(ValueError, match="ScalableBulk"):
                run_app("Radix", n_cores=8, chunks_per_partition=2,
                        protocol=protocol,
                        instruments=[InvalidationOracle()])
