"""Unit tests for chunk specs, tags, and runtime chunk state."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.chunk import Chunk, ChunkAccess, ChunkSpec, ChunkState, ChunkTag
from repro.signatures.bulk_signature import SignatureFactory


@pytest.fixture
def factory():
    return SignatureFactory(seed=5)


def make_chunk(factory, tag=None, spec=None):
    spec = spec or ChunkSpec(n_instructions=100, accesses=[
        ChunkAccess(2, 32 * 10, False),
        ChunkAccess(3, 32 * 20, True),
    ])
    return Chunk(tag=tag or ChunkTag(0, 0, 0), spec=spec,
                 sig_factory=factory, line_bytes=32)


class TestChunkTag:
    def test_next_gen_bumps_generation(self):
        t = ChunkTag(3, 7, 0)
        assert t.next_gen() == ChunkTag(3, 7, 1)

    def test_str_format(self):
        assert str(ChunkTag(2, 5, 1)) == "P2.c5.g1"

    def test_tags_hashable_distinct(self):
        assert len({ChunkTag(0, 0, 0), ChunkTag(0, 0, 1), ChunkTag(0, 1, 0)}) == 3


class TestChunkSpec:
    def test_rejects_overcommitted_accesses(self):
        with pytest.raises(ValueError):
            ChunkSpec(n_instructions=3, accesses=[
                ChunkAccess(2, 0, False), ChunkAccess(2, 32, False)])

    def test_n_accesses(self):
        spec = ChunkSpec(10, [ChunkAccess(0, 0, False)] * 3)
        assert spec.n_accesses == 3


class TestRecording:
    def test_read_goes_to_read_set(self, factory):
        c = make_chunk(factory)
        c.record(10, is_write=False, home_dir=2)
        assert 10 in c.read_lines and 10 not in c.write_lines
        assert c.r_sig.contains(10)
        assert c.dirs == {2} and not c.dirs_written

    def test_write_goes_to_write_set(self, factory):
        c = make_chunk(factory)
        c.record(11, is_write=True, home_dir=3)
        assert 11 in c.write_lines
        assert c.w_sig.contains(11)
        assert c.dirs_written == {3}

    def test_g_vec_sorted(self, factory):
        c = make_chunk(factory)
        for line, home in ((1, 5), (2, 1), (3, 3)):
            c.record(line, False, home)
        assert c.g_vec() == (1, 3, 5)


class TestFrozenWriteSet:
    def test_built_once_per_attempt(self, factory):
        c = make_chunk(factory)
        c.record(11, True, 0)
        ws = c.frozen_write_set()
        assert ws == {11} and c.frozen_write_set() is ws

    def test_rebuilt_when_the_write_set_grew(self, factory):
        c = make_chunk(factory)
        c.record(11, True, 0)
        first = c.frozen_write_set()
        c.record(12, True, 0)
        assert c.frozen_write_set() == {11, 12} != first


class TestDisambiguation:
    def test_invalidation_hits_read_set(self, factory):
        c = make_chunk(factory)
        c.record(10, False, 0)
        assert c.hit_by_invalidation([10])

    def test_invalidation_hits_write_set(self, factory):
        c = make_chunk(factory)
        c.record(11, True, 0)
        assert c.hit_by_invalidation([11])

    def test_disjoint_invalidation_usually_misses(self, factory):
        c = make_chunk(factory)
        c.record(10, False, 0)
        hits = sum(bool(c.hit_by_invalidation([10_000 + i]))
                   for i in range(500))
        assert hits < 10  # membership FPs only

    @given(st.sets(st.integers(0, 10**6), min_size=1, max_size=40),
           st.sets(st.integers(0, 10**6), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negative_disambiguation(self, mine, theirs):
        factory = SignatureFactory(seed=5)
        c = make_chunk(factory)
        for line in mine:
            c.record(line, False, 0)
        if mine & theirs:
            assert c.hit_by_invalidation(theirs)

    def test_true_conflict_exact(self, factory):
        c = make_chunk(factory)
        c.record(10, False, 0)
        assert c.true_conflict_with({10})
        assert not c.true_conflict_with({11})


class TestRetry:
    def test_reset_for_retry_fresh_state(self, factory):
        c = make_chunk(factory)
        c.record(10, True, 0)
        c.state = ChunkState.SQUASHED
        fresh = c.reset_for_retry()
        assert fresh.tag == c.tag.next_gen()
        assert not fresh.write_lines and fresh.w_sig.is_empty()
        assert fresh.state is ChunkState.EXECUTING
        assert fresh.spec is c.spec

    def test_is_active_states(self, factory):
        c = make_chunk(factory)
        assert c.is_active
        c.state = ChunkState.COMMITTED
        assert not c.is_active
