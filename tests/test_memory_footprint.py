"""Per-line memory state stays out of the garbage collector's sight.

A prewarmed 64-core machine holds hundreds of thousands of tracked lines.
The directories store the common line states as ints and the caches store
clean and committed-dirty lines as atoms, so the cyclic collector, which
rescans every tracked object on each full collection, never sees them.
"""

import gc

import pytest

from repro.config import SystemConfig
from repro.harness.runner import Machine, SimulationRunner, run_app
from repro.memory.cache import CacheLine


@pytest.mark.parametrize("app", ["LU", "Raytrace"])
def test_prewarm_adds_almost_no_tracked_objects(app):
    config = SystemConfig(n_cores=64, seed=2010)
    runner = SimulationRunner(app, config, chunks_per_partition=1)
    machine = Machine(config, workload=runner.workload)
    gc.collect()
    before = len(gc.get_objects())
    assert machine.prewarm() > 100_000
    gc.collect()
    assert len(gc.get_objects()) - before < 1_000


def test_committed_run_leaves_no_cache_line_objects():
    """Once every chunk has committed, no line is speculative, so no
    cache set holds a CacheLine."""
    result = run_app("LU", n_cores=4, chunks_per_partition=2,
                     keep_machine=True)
    machine = result.machine
    assert result.chunks_committed == machine.workload.n_partitions * 2
    for core in machine.cores:
        for cache in (core.hierarchy.l1, core.hierarchy.l2):
            held = gc.get_referents(*cache._sets.values())
            assert cache.occupancy > 0
            assert not [v for v in held if isinstance(v, CacheLine)]
