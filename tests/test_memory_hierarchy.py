"""Unit tests for the per-core L1+L2 hierarchy with speculative tracking."""

import pytest

from repro.config import SystemConfig
from repro.memory.hierarchy import CacheHierarchy


@pytest.fixture
def hier(small_config):
    return CacheHierarchy(0, small_config)


class TestAccessPath:
    def test_cold_miss_is_remote(self, hier):
        res = hier.access(100, is_write=False, ctag="t")
        assert res.remote

    def test_fill_then_l1_hit(self, hier):
        hier.fill_remote(100)
        res = hier.access(100, is_write=False, ctag="t")
        assert not res.remote and res.stall_cycles == 0

    def test_l2_hit_costs_round_trip(self, hier, small_config):
        hier.fill_remote(100)
        # evict from L1 by filling conflicting lines (same L1 set)
        n_sets = small_config.l1.n_sets
        for i in range(1, small_config.l1.assoc + 1):
            hier.fill_remote(100 + i * n_sets)
        res = hier.access(100, is_write=False, ctag="t")
        assert not res.remote
        assert res.stall_cycles == small_config.l2.round_trip_cycles

    def test_write_marks_speculative(self, hier):
        hier.fill_remote(50)
        hier.access(50, is_write=True, ctag="tag1")
        assert 50 in hier.spec_lines["tag1"]
        assert hier.l2.peek(50).spec_writer == "tag1"

    def test_write_on_remote_fill(self, hier):
        res = hier.access(60, is_write=True, ctag="tag1")
        assert res.remote
        hier.fill_remote(60, is_write=True, ctag="tag1")
        assert 60 in hier.spec_lines["tag1"]


class TestChunkLifecycle:
    def test_commit_promotes_lines(self, hier):
        hier.fill_remote(50)
        hier.access(50, is_write=True, ctag="t")
        hier.commit_chunk("t")
        assert "t" not in hier.spec_lines
        line = hier.l2.peek(50)
        assert line.dirty and line.spec_writer is None

    def test_squash_discards_lines(self, hier):
        hier.fill_remote(50)
        hier.access(50, is_write=True, ctag="t")
        n = hier.squash_chunk("t")
        assert n == 1
        assert not hier.caches_line(50)

    def test_squash_leaves_other_chunks(self, hier):
        hier.fill_remote(50)
        hier.fill_remote(51)
        hier.access(50, is_write=True, ctag="a")
        hier.access(51, is_write=True, ctag="b")
        hier.squash_chunk("a")
        assert hier.caches_line(51)
        assert not hier.caches_line(50)

    def test_commit_unknown_tag_noop(self, hier):
        hier.commit_chunk("ghost")  # must not raise

    def test_invalidate_both_levels(self, hier):
        hier.fill_remote(70)
        assert hier.invalidate(70)
        assert not hier.caches_line(70)
        assert not hier.invalidate(70)

    def test_invalidate_lines_counts_resident_lines_once(self, hier):
        hier.fill_remote(70)
        hier.fill_remote(71)
        assert hier.invalidate_lines({70, 71, 72}) == 2
        assert not hier.caches_line(70) and not hier.caches_line(71)
        assert hier.invalidate_lines({70}) == 0


class TestWriteback:
    def test_dirty_l2_eviction_calls_back(self, small_config):
        written_back = []
        hier = CacheHierarchy(0, small_config, written_back.append)
        hier.fill_remote(10)
        hier.access(10, is_write=True, ctag="t")
        hier.commit_chunk("t")  # line 10 now committed-dirty
        # force eviction: fill the L2 set full of other lines
        n_sets = small_config.l2.n_sets
        for i in range(1, small_config.l2.assoc + 1):
            hier.fill_remote(10 + i * n_sets)
        assert written_back == [10]

    def test_inclusion_l2_eviction_drops_l1(self, small_config):
        hier = CacheHierarchy(0, small_config)
        hier.fill_remote(10)
        n_sets = small_config.l2.n_sets
        for i in range(1, small_config.l2.assoc + 1):
            hier.fill_remote(10 + i * n_sets)
        assert 10 not in hier.l1
        assert 10 not in hier.l2
