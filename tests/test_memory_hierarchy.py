"""Unit tests for the per-core L1+L2 hierarchy with speculative tracking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.memory.cache import Cache
from repro.memory.hierarchy import REMOTE, CacheHierarchy


@pytest.fixture
def hier(small_config):
    return CacheHierarchy(0, small_config)


class TestAccessPath:
    def test_cold_miss_is_remote(self, hier):
        assert hier.access(100, is_write=False, ctag="t") == REMOTE

    def test_fill_then_l1_hit(self, hier):
        hier.fill_remote(100)
        assert hier.access(100, is_write=False, ctag="t") == 0

    def test_l2_hit_costs_round_trip(self, hier, small_config):
        hier.fill_remote(100)
        # evict from L1 by filling conflicting lines (same L1 set)
        n_sets = small_config.l1.n_sets
        for i in range(1, small_config.l1.assoc + 1):
            hier.fill_remote(100 + i * n_sets)
        stall = hier.access(100, is_write=False, ctag="t")
        assert stall == small_config.l2.round_trip_cycles

    def test_write_marks_speculative(self, hier):
        hier.fill_remote(50)
        hier.access(50, is_write=True, ctag="tag1")
        assert 50 in hier.spec_lines["tag1"]
        assert hier.l2.peek(50).spec_writer == "tag1"

    def test_write_on_remote_fill(self, hier):
        assert hier.access(60, is_write=True, ctag="tag1") == REMOTE
        hier.fill_remote(60, is_write=True, ctag="tag1")
        assert 60 in hier.spec_lines["tag1"]


class TestAccessMatchesCacheTouch:
    """``access`` inlines :meth:`Cache.touch` on both levels; it must
    leave the same sets, LRU order, line states and hit/miss counts as
    the Cache methods it stands for."""

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 1),
                              st.booleans()), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_access_is_touch_on_both_levels(self, ops):
        config = SystemConfig(n_cores=4, seed=7)
        hier = CacheHierarchy(0, config)
        l1, l2 = Cache(config.l1), Cache(config.l2)
        for k, j, is_write in ops:
            # every line falls in L2 set j and L1 set j: sets fill up
            line = k * config.l2.n_sets + j
            got = hier.access(line, is_write, "t")
            in_l1, in_l2 = l1.touch(line), l2.touch(line)
            if not (in_l1 or in_l2):
                assert got == REMOTE
                hier.fill_remote(line)
                victim = l2.fill(line).line
                if victim is not None:
                    l1.invalidate(victim.line_addr)
                l1.install(line)
                continue
            assert got == (0 if in_l1 else config.l2.round_trip_cycles)
            if not in_l1:
                l1.install(line)
            if is_write:
                l1.mark_spec_write(line, "t")
                l2.mark_spec_write(line, "t")
            for got_c, want_c in ((hier.l1, l1), (hier.l2, l2)):
                assert (got_c.hits, got_c.misses) == (want_c.hits,
                                                      want_c.misses)
                assert got_c._sets == want_c._sets
                assert ([list(s) for s in got_c._sets.values()]
                        == [list(s) for s in want_c._sets.values()])


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
