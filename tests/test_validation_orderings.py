"""Runs the Tables 4/5 conformance checker over stress machines."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine
from repro.validation.orderings import ProtocolConformanceChecker
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


def conforming_run(app: str, seed: int, n_cores: int = 9, chunks: int = 2):
    config = SystemConfig(n_cores=n_cores, seed=seed,
                          protocol=ProtocolKind.SCALABLEBULK)
    workload = SyntheticWorkload(get_profile(app), config,
                                 active_cores=n_cores,
                                 chunks_per_partition=chunks)
    machine = Machine(config, workload=workload)
    checker = ProtocolConformanceChecker()
    machine.run(instruments=[checker])
    return machine, checker


class TestConformanceOnWorkloads:
    @pytest.mark.parametrize("app", ["Radix", "Barnes", "Canneal"])
    def test_workload_conforms(self, app):
        machine, checker = conforming_run(app, seed=41)
        assert checker.messages_checked > 0
        checker.assert_clean()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_seeds_conform(self, seed):
        machine, checker = conforming_run("Barnes", seed=seed, chunks=1)
        checker.assert_clean()


class TestConformanceUnderConflicts:
    def test_collision_storm_conforms(self):
        config = SystemConfig(n_cores=9, seed=5,
                              protocol=ProtocolKind.SCALABLEBULK)
        lines = [32 * 128 * (700 + i) for i in range(3)]
        mk = lambda c: [ChunkSpec(250, [
            ChunkAccess(1, lines[i % 3], True),
            ChunkAccess(1, lines[(i + 1) % 3], False)]) for i in range(4)]
        remaining = {c: mk(c) for c in range(6)}

        def next_spec(core_id):
            lst = remaining.get(core_id)
            return lst.pop(0) if lst else None

        machine = Machine(config, next_spec=next_spec)
        checker = ProtocolConformanceChecker()
        machine.run(instruments=[checker])
        # conflicts force failures and retries; the orderings must hold
        assert machine.protocol.stats.commit_failures >= 1
        checker.assert_clean()

    def test_checker_detects_forged_g_success(self):
        """Non-vacuity: an out-of-protocol message trips the checker."""
        from repro.network.message import MessageType, dir_node
        config = SystemConfig(n_cores=9, seed=5,
                              protocol=ProtocolKind.SCALABLEBULK)
        machine = Machine(config, next_spec=lambda c: None)
        checker = ProtocolConformanceChecker()
        # dir 3 (not a leader of anything) multicasts a rogue g_success
        machine.sim.schedule(0, lambda: machine.network.unicast(
            MessageType.G_SUCCESS, dir_node(3), dir_node(4),
            ctag=("rogue", 0)))
        machine.run(instruments=[checker])
        assert any(v.rule == "g_success from non-leader"
                   for v in checker.violations)
