"""Unit tests for the set-associative cache with speculative lines."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig, SystemConfig
from repro.memory.cache import Cache, CacheLine, EvictionResult
from repro.memory.hierarchy import CacheHierarchy


def tiny_config(assoc=2, sets=4):
    return CacheConfig(size_bytes=sets * assoc * 32, assoc=assoc,
                       line_bytes=32, round_trip_cycles=2, mshr_entries=8)


def tiny_cache(assoc=2, sets=4):
    return Cache(tiny_config(assoc, sets))


class TestLookupFill:
    def test_miss_then_hit(self):
        c = tiny_cache()
        assert c.lookup(5) is None
        c.fill(5)
        assert c.lookup(5) is not None
        assert c.hits == 1 and c.misses == 1

    def test_fill_same_line_idempotent(self):
        c = tiny_cache()
        c.fill(5)
        result = c.fill(5)
        assert result.line is None
        assert c.occupancy == 1

    def test_lru_eviction_order(self):
        c = tiny_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(1)
        c.lookup(0)        # 0 becomes MRU
        ev = c.fill(2)     # must evict 1
        assert ev.line.line_addr == 1
        assert 0 in c and 2 in c and 1 not in c

    def test_sets_isolate_lines(self):
        c = tiny_cache(assoc=1, sets=4)
        c.fill(0)
        c.fill(1)  # different set (line % 4)
        assert 0 in c and 1 in c

    def test_peek_does_not_touch(self):
        c = tiny_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(1)
        c.peek(0)          # no LRU update
        ev = c.fill(2)
        assert ev.line.line_addr == 0

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded(self, addrs):
        c = tiny_cache(assoc=2, sets=4)
        for a in addrs:
            c.fill(a)
        assert c.occupancy <= 8
        for s in c._sets.values():
            assert len(s) <= 2


class TestSpeculativeLines:
    def test_spec_line_not_evicted_when_alternative(self):
        c = tiny_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(1)
        c.mark_spec_write(0, "chunk-a")  # 0 is LRU but speculative
        ev = c.fill(2)
        assert ev.line.line_addr == 1    # non-spec victim preferred
        assert ev.overflow_ctag is None

    def test_overflow_when_all_ways_spec(self):
        c = tiny_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(1)
        c.mark_spec_write(0, "a")
        c.mark_spec_write(1, "b")
        ev = c.fill(2)
        assert ev.overflow_ctag == "a"   # LRU way's owner reported

    def test_commit_spec_promotes_to_dirty(self):
        c = tiny_cache()
        c.fill(7)
        c.mark_spec_write(7, "t")
        assert c.commit_spec(7, "t")
        line = c.peek(7)
        assert line.dirty and line.spec_writer is None

    def test_commit_spec_wrong_tag_rejected(self):
        c = tiny_cache()
        c.fill(7)
        c.mark_spec_write(7, "t")
        assert not c.commit_spec(7, "other")

    def test_mark_spec_absent_line(self):
        c = tiny_cache()
        assert not c.mark_spec_write(9, "t")

    def test_invalidate_returns_line(self):
        c = tiny_cache()
        c.fill(3)
        assert c.invalidate(3).line_addr == 3
        assert c.invalidate(3) is None

    def test_dirty_victim_reported(self):
        c = tiny_cache(assoc=1, sets=1)
        c.fill(0)
        c.mark_spec_write(0, "t")
        c.commit_spec(0, "t")
        ev = c.fill(1)
        assert ev.wrote_back


class TestShadowInvalidate:
    @given(st.lists(st.integers(0, 40), max_size=30),
           st.lists(st.integers(0, 40), max_size=30),
           st.lists(st.integers(0, 40), max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_shadowed_sets_drop_lines_like_materialized_ones(
            self, fills, kills, later):
        """A bulk-prewarmed cache (unbuilt lines) drops invalidated lines
        like one filled line by line; every set then holds what the
        line-by-line cache holds, in the same LRU order, through later
        fills and evictions too."""
        shadowed, filled = tiny_cache(), tiny_cache()
        shadowed.fill_many(fills)
        for line in fills:
            filled.fill(line)
        for line in kills:
            a, b = shadowed.invalidate(line), filled.invalidate(line)
            assert (a and a.line_addr) == (b and b.line_addr)
        assert list(shadowed.resident_lines()) == list(filled.resident_lines())
        for line in later:
            a, b = shadowed.fill(line), filled.fill(line)
            assert (a.line and a.line.line_addr) == (b.line and b.line.line_addr)

        def sets(c):  # per-set keys in LRU order
            return {i: list(s) for i, s in c._sets.items() if s}
        assert sets(shadowed) == sets(filled)


class EagerCache:
    """Reference model: a :class:`CacheLine` per resident line, built at
    fill time, with the replacement policy spelled out."""

    def __init__(self, assoc, sets):
        self.assoc, self.n_sets = assoc, sets
        self.sets = {}

    def peek(self, line):
        return self.sets.get(line % self.n_sets, {}).get(line)

    def fill(self, line):
        """(victim line or None, overflow tag or None)."""
        s = self.sets.setdefault(line % self.n_sets, {})
        if line in s:
            s[line] = s.pop(line)
            return None, None
        victim = overflow = None
        if len(s) >= self.assoc:
            clean = [a for a, l in s.items() if l.spec_writer is None]
            addr = clean[0] if clean else next(iter(s))
            if not clean:
                overflow = s[addr].spec_writer
            victim = s.pop(addr)
        s[line] = CacheLine(line)
        return victim, overflow

    def lookup(self, line):
        found = self.peek(line)
        if found is not None:
            s = self.sets[line % self.n_sets]
            s[line] = s.pop(line)
        return found

    def mark_spec_write(self, line, tag):
        found = self.peek(line)
        if found is not None:
            found.spec_writer = tag
        return found is not None

    def commit_spec(self, line, tag):
        found = self.peek(line)
        if found is None or found.spec_writer != tag:
            return False
        found.spec_writer, found.dirty = None, True
        return True

    def invalidate(self, line):
        return self.sets.get(line % self.n_sets, {}).pop(line, None)


class EagerLevel(EagerCache):
    """:class:`EagerCache` behind the :class:`Cache` interface that
    :class:`CacheHierarchy` drives (it inlines ``touch`` over ``_sets``)."""

    def __init__(self, config):
        super().__init__(config.assoc, config.n_sets)
        self._sets = self.sets
        self.hits = self.misses = 0

    def fill(self, line):
        victim, overflow = super().fill(line)
        return EvictionResult(victim, overflow)

    def install(self, line):
        super().fill(line)

    def fill_many(self, lines):
        for line in lines:
            self.install(line)


def hierarchy_step(h, op, line, tag):
    """Apply one ``hierarchy_ops`` entry to ``h``; returns what it says."""
    if op in ("read", "write"):
        stall = h.access(line, op == "write", tag)
        if stall >= 0:
            return stall
        return h.fill_remote(line, op == "write", tag)
    if op == "fill":
        return h.fill_remote(line)
    if op == "commit":
        return h.commit_chunk(tag)
    if op == "squash":
        return h.squash_chunk(tag)
    return h.invalidate_lines((line,))


def _state(line):
    return None if line is None else (line.line_addr, line.dirty,
                                      line.spec_writer)


addrs = st.integers(0, 7)
#: (op, line, chunk tag); marks are frequent enough that sets fill up
#: with speculative lines and fills overflow
cache_ops = st.lists(st.tuples(
    st.sampled_from(["fill", "install", "touch", "lookup", "invalidate",
                     "commit", "mark", "mark", "mark"]),
    addrs, st.sampled_from(["a", "b"])), min_size=5, max_size=60)


#: (op, line, chunk tag) on a CacheHierarchy; "write" is a write access
#: (or, on a miss, the remote fill the core then asks for)
hierarchy_ops = st.lists(st.tuples(
    st.sampled_from(["read", "write", "write", "fill", "commit", "squash",
                     "invalidate"]),
    addrs, st.sampled_from(["a", "b"])), min_size=5, max_size=60)


class TestLazyLinesMatchEagerReference:
    @given(st.lists(addrs, max_size=40), cache_ops)
    @example(prewarm=[0, 2, 1], ops=[  # all-speculative sets overflow
        ("mark", 2, "a"), ("mark", 0, "b"), ("fill", 4, "a"),
        ("mark", 1, "a"), ("mark", 4, "b"), ("install", 6, "a"),
        ("install", 3, "a"), ("commit", 1, "a"), ("fill", 5, "b")])
    @example(prewarm=[0, 2], ops=[  # committed, written again, evicted
        ("mark", 0, "a"), ("commit", 0, "a"), ("mark", 0, "b"),
        ("commit", 0, "b"), ("fill", 4, "a"), ("mark", 2, "a"),
        ("commit", 2, "a"), ("mark", 2, "b"), ("invalidate", 2, "a")])
    @example(prewarm=[0, 2], ops=[  # a re-written committed line overflows
        ("mark", 0, "a"), ("commit", 0, "a"), ("mark", 0, "b"),
        ("mark", 2, "b"), ("fill", 4, "a"), ("fill", 6, "a")])
    @settings(max_examples=150, deadline=None)
    def test_same_residency_lru_victims_and_overflows(self, prewarm, ops):
        """A lazy cache (prewarmed with fill_many, lines built on demand)
        and the eager reference agree after every operation: per-set
        keys in LRU order, line states, victims and overflow tags."""
        lazy, eager = tiny_cache(assoc=2, sets=2), EagerCache(2, 2)
        lazy.fill_many(prewarm)
        for line in prewarm:
            eager.fill(line)
        for op, line, tag in ops:
            if op == "fill":
                got = lazy.fill(line)
                victim, overflow = eager.fill(line)
                assert _state(got.line) == _state(victim)
                assert got.overflow_ctag == overflow
            elif op == "install":
                lazy.install(line)
                eager.fill(line)
            elif op == "touch":
                assert lazy.touch(line) == (eager.lookup(line) is not None)
            elif op == "lookup":
                assert _state(lazy.lookup(line)) == _state(eager.lookup(line))
            elif op == "invalidate":
                assert (_state(lazy.invalidate(line))
                        == _state(eager.invalidate(line)))
            elif op == "mark":
                assert (lazy.mark_spec_write(line, tag)
                        == eager.mark_spec_write(line, tag))
            else:
                assert (lazy.commit_spec(line, tag)
                        == eager.commit_spec(line, tag))
            for idx in range(2):
                want = eager.sets.get(idx, {})
                got_set = lazy._sets.get(idx, {})
                assert list(got_set) == list(want)
                assert ([_state(lazy.peek(a)) for a in got_set]
                        == [_state(l) for l in want.values()])

    @given(st.lists(addrs, max_size=40), hierarchy_ops)
    @example(prewarm=[0], ops=[  # written, committed, written again, evicted
        ("write", 0, "a"), ("commit", 0, "a"), ("write", 0, "b"),
        ("commit", 0, "b"), ("fill", 2, "a"), ("fill", 4, "a")])
    @example(prewarm=[0], ops=[  # ... or invalidated, then refilled
        ("write", 0, "a"), ("commit", 0, "a"), ("write", 0, "b"),
        ("invalidate", 0, "a"), ("fill", 0, "a"), ("fill", 2, "a"),
        ("fill", 4, "a")])
    @settings(max_examples=150, deadline=None)
    def test_hierarchy_writebacks_match_eager_reference(self, prewarm, ops):
        """The same CacheHierarchy over lazy caches and over eager ones
        reports the same writebacks (a dirty L2 victim of fill_remote),
        stalls and overflows, and leaves every line in the same state."""
        config = replace(SystemConfig(), l1=tiny_config(1, 2),
                         l2=tiny_config(2, 2))
        logs = {"lazy": [], "eager": []}
        lazy = CacheHierarchy(0, config, logs["lazy"].append)
        eager = CacheHierarchy(0, config, logs["eager"].append)
        eager.l1, eager.l2 = EagerLevel(config.l1), EagerLevel(config.l2)
        lazy.l2.fill_many(prewarm)
        eager.l2.fill_many(prewarm)
        for op, line, tag in ops:
            assert (hierarchy_step(lazy, op, line, tag)
                    == hierarchy_step(eager, op, line, tag))
            assert logs["lazy"] == logs["eager"]
            assert lazy.spec_lines == eager.spec_lines
            for lazy_level, eager_level in ((lazy.l1, eager.l1),
                                            (lazy.l2, eager.l2)):
                for a in range(8):
                    assert (_state(lazy_level.peek(a))
                            == _state(eager_level.peek(a)))


class TestStats:
    def test_hit_rate(self):
        c = tiny_cache()
        c.fill(0)
        c.lookup(0)
        c.lookup(1)
        assert c.hit_rate == 0.5

    def test_resident_lines(self):
        c = tiny_cache()
        for a in (1, 2, 3):
            c.fill(a)
        assert set(c.resident_lines()) == {1, 2, 3}
