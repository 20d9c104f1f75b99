"""Cross-seed determinism: same (config, seed) twice => identical timelines.

The runtime witness behind the static determinism lint (SB301-SB304): if a
nondeterminism source ever reaches event scheduling, the commit/squash
timeline of a re-run diverges and this test fails before the lint rule is
even written.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.harness.runner import Machine
from repro.obs.bus import (COMMIT_COMPLETE, COMMIT_REQUEST, GROUP_FAILED,
                           GROUP_FORMED, SQUASH, InstrumentationBus)
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


def committed_timeline(app: str, seed: int, protocol: ProtocolKind,
                       n_cores: int = 4):
    """(commit/squash/group events, total cycles) for one fresh run."""
    config = SystemConfig(n_cores=n_cores, seed=seed, protocol=protocol)
    workload = SyntheticWorkload(get_profile(app), config,
                                 active_cores=n_cores,
                                 chunks_per_partition=2)
    machine = Machine(config, workload=workload)
    bus = InstrumentationBus(record_messages=False)
    machine.run(instruments=[bus])
    events = [e.to_json() for e in bus.of_kind(
        COMMIT_REQUEST, COMMIT_COMPLETE, SQUASH, GROUP_FORMED, GROUP_FAILED)]
    return events, machine.sim.now


class TestCrossSeedDeterminism:
    @pytest.mark.parametrize("app", ["Radix", "Barnes"])
    def test_same_seed_identical_timeline(self, app):
        first, cycles_a = committed_timeline(app, seed=7,
                                             protocol=ProtocolKind.SCALABLEBULK)
        second, cycles_b = committed_timeline(app, seed=7,
                                              protocol=ProtocolKind.SCALABLEBULK)
        assert first, "run produced no commit events; workload misconfigured"
        assert cycles_a == cycles_b
        assert first == second

    def test_same_seed_identical_across_protocols(self):
        for proto in (ProtocolKind.BULKSC, ProtocolKind.SEQ):
            first, _ = committed_timeline("LU", seed=11, protocol=proto)
            second, _ = committed_timeline("LU", seed=11, protocol=proto)
            assert first == second, f"{proto} timeline diverged across reruns"

    def test_different_seed_diverges(self):
        """Guard against a vacuous witness: the seed must matter."""
        one, _ = committed_timeline("Radix", seed=7,
                                    protocol=ProtocolKind.SCALABLEBULK)
        other, _ = committed_timeline("Radix", seed=8,
                                      protocol=ProtocolKind.SCALABLEBULK)
        assert one != other
