"""Unit tests for the core FSM: bursts, commit queue, squash, accounting.

These use a real small Machine (4 cores, ScalableBulk) with hand-built
chunk specs, so core behaviour is tested against the full substrate.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec, ChunkState
from repro.harness.runner import Machine, run_app
from repro.obs.bus import NullBus


def spec_of(accesses, n_instr=100):
    return ChunkSpec(n_instructions=n_instr, accesses=accesses)


def make_machine(specs_by_core, n_cores=4, protocol=ProtocolKind.SCALABLEBULK,
                 **overrides):
    """Machine fed by explicit per-core chunk spec lists."""
    config = SystemConfig(n_cores=n_cores, protocol=protocol, seed=3,
                          **overrides)
    remaining = {c: list(s) for c, s in specs_by_core.items()}

    def next_spec(core_id):
        lst = remaining.get(core_id)
        return lst.pop(0) if lst else None

    return Machine(config, next_spec=next_spec)


class TestBasicExecution:
    def test_single_chunk_commits(self):
        m = make_machine({0: [spec_of([ChunkAccess(1, 320, False)])]})
        m.run()
        assert m.cores[0].stats.chunks_committed == 1
        assert m.cores[0].finished

    def test_all_cores_finish_empty_workload(self):
        m = make_machine({})
        m.run()
        assert all(c.finished for c in m.cores)

    def test_useful_cycles_equal_instructions(self):
        m = make_machine({0: [spec_of([ChunkAccess(1, 320, False)], 100)]})
        m.run()
        assert m.cores[0].stats.useful_cycles == 100

    def test_multiple_chunks_in_order(self):
        specs = [spec_of([ChunkAccess(1, 320 + 32 * i, False)]) for i in range(4)]
        m = make_machine({0: specs})
        m.run()
        assert m.cores[0].stats.chunks_committed == 4
        # committed tags must be sequential
        tags = [rec.ctag.seq for rec in m.protocol.stats.commits
                if rec.core == 0]
        assert tags == sorted(tags)

    def test_chunk_with_no_accesses_commits_trivially(self):
        m = make_machine({0: [spec_of([], 50)]})
        m.run()
        assert m.cores[0].stats.chunks_committed == 1
        rec = m.protocol.stats.commits[0]
        assert rec.n_dirs == 0

    def test_miss_stall_accounted(self):
        m = make_machine({0: [spec_of([ChunkAccess(1, 320, False)])]})
        m.run()
        # single cold miss: stall includes the memory round trip
        assert m.cores[0].stats.miss_stall_cycles >= \
            m.config.memory_round_trip_cycles


class TestCommitPipelining:
    def test_two_active_chunks_overlap(self):
        # Both chunks hit only local lines; commit of chunk 0 overlaps
        # execution of chunk 1 (max_active=2).
        specs = [spec_of([ChunkAccess(1, 320, True)], 500),
                 spec_of([ChunkAccess(1, 352, True)], 500)]
        m = make_machine({0: specs})
        m.run()
        assert m.cores[0].stats.chunks_committed == 2
        assert m.cores[0].stats.commit_stall_cycles >= 0

    def test_max_active_one_serializes(self):
        specs = [spec_of([ChunkAccess(1, 320, True)], 200)] * 2
        m = make_machine({0: specs}, max_active_chunks_per_core=1)
        m.run()
        stats = m.cores[0].stats
        assert stats.chunks_committed == 2
        # with no overlap, every commit latency is exposed as stall
        assert stats.commit_stall_cycles > 0

    def test_finish_time_recorded(self):
        m = make_machine({0: [spec_of([ChunkAccess(1, 320, False)])]})
        m.run()
        assert m.cores[0].stats.finish_time == m.sim.now or \
            m.cores[0].stats.finish_time <= m.sim.now


class TestSquashAccounting:
    def _conflicting_machine(self):
        """Cores 0 and 1 write the same line -> one squashes."""
        line = 32 * 1000
        specs0 = [spec_of([ChunkAccess(1, line, True)], 400)]
        specs1 = [spec_of([ChunkAccess(1, line, True),
                           ChunkAccess(390, line + 32, False)], 400)]
        return make_machine({0: specs0, 1: specs1})

    def test_conflicting_writes_one_squashes_then_commits(self):
        m = self._conflicting_machine()
        m.run()
        total = sum(c.stats.chunks_committed for c in m.cores)
        assert total == 2  # both eventually commit
        squashes = sum(c.stats.squashes_conflict + c.stats.squashes_alias
                       for c in m.cores)
        # a squash may or may not occur depending on timing, but if one
        # occurred the wasted cycles must be accounted
        for c in m.cores:
            if c.stats.squashes_conflict or c.stats.squashes_alias:
                assert c.stats.squash_cycles > 0

    def test_no_lost_commit_after_squash(self):
        m = self._conflicting_machine()
        m.run()
        assert all(c.finished for c in m.cores)


class TestAccountingInvariants:
    def test_accounted_cycles_bounded_by_wallclock(self):
        specs = [spec_of([ChunkAccess(1, 320 + 32 * i, i % 2 == 0)], 300)
                 for i in range(3)]
        m = make_machine({0: specs, 1: list(specs)})
        m.run()
        for core in m.cores:
            s = core.stats
            if s.chunks_started:
                assert s.total_accounted <= m.sim.now + 1


class _SignatureAudit(NullBus):
    """Before every event: each active chunk's R/W signatures hold
    exactly the bits of its read/write line sets."""

    def attach(self, machine):
        self.machine = machine
        self.checked = 0

    def sim_step(self, time, queue_depth):
        from_lines = self.machine.sig_factory.from_lines
        for core in self.machine.cores:
            for chunk in core.active_chunks():
                assert chunk.r_sig == from_lines(chunk.read_lines), chunk
                assert chunk.w_sig == from_lines(chunk.write_lines), chunk
                self.checked += 1


class TestBurstFold:
    @pytest.mark.parametrize("protocol", [ProtocolKind.SCALABLEBULK,
                                          ProtocolKind.BULKSC])
    def test_signatures_equal_line_sets_at_every_event(self, protocol):
        """A burst folds its lines into the chunk when it stops, and no
        event runs mid-burst, so no event ever sees the signatures and
        the line sets disagree."""
        audit = _SignatureAudit()
        run_app("Radix", n_cores=8, protocol=protocol,
                chunks_per_partition=2, instruments=[audit])
        assert audit.checked > 0
