"""Tests for the base directory module: read-miss service and state.

Driven over the real NoC via the ProtocolBench stub cores.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import ProtocolKind, SystemConfig
from repro.engine.events import Simulator
from repro.memory.directory import DirectoryModule, LineInfo
from repro.network.message import MessageType, core_node, dir_node
from repro.network.noc import Network
from protocol_bench import ProtocolBench


@pytest.fixture
def bench():
    return ProtocolBench(n_cores=9)


def read(bench, line, requester):
    home = bench.page_mapper.lookup(
        line * bench.config.line_bytes // bench.config.page_bytes)
    bench.network.unicast(MessageType.READ_REQ, core_node(requester),
                          dir_node(home), line=line, requester=requester)
    bench.run()
    return [m for m in bench.core_log[requester]
            if m.mtype in (MessageType.DATA_FROM_MEM,
                           MessageType.DATA_FROM_SHARER,
                           MessageType.DATA_FROM_OWNER,
                           MessageType.READ_NACK)]


class TestReadService:
    def test_cold_line_fetched_from_memory(self, bench):
        line = bench.line_homed_at(3)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_MEM]
        # memory latency dominates the round trip
        assert replies[0].sent_at >= bench.config.memory_round_trip_cycles

    def test_requester_registered_as_sharer(self, bench):
        line = bench.line_homed_at(3)
        read(bench, line, requester=1)
        assert 1 in bench.directories[3].line_info(line).sharers

    def test_clean_remote_copy_forwarded(self, bench):
        line = bench.line_homed_at(3)
        bench.add_sharer(line, proc=5)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_SHARER]

    def test_dirty_owner_forwarded(self, bench):
        line = bench.line_homed_at(3)
        bench.directories[3].apply_commit([line], writer=5)
        replies = read(bench, line, requester=1)
        assert [m.mtype for m in replies] == [MessageType.DATA_FROM_OWNER]

    def test_own_dirty_copy_not_forwarded_to_self(self, bench):
        line = bench.line_homed_at(3)
        bench.directories[3].apply_commit([line], writer=1)
        replies = read(bench, line, requester=1)
        # the requester already owns it: memory path (degenerate re-fetch)
        assert replies[0].mtype is MessageType.DATA_FROM_MEM

    def test_closest_sharer_chosen(self, bench):
        line = bench.line_homed_at(4)
        bench.add_sharer(line, proc=8)   # far corner
        bench.add_sharer(line, proc=1)   # adjacent to requester 0
        read(bench, line, requester=0)
        fwd = [dst for t, dst, m in bench.wire_log
               if m.mtype is MessageType.FWD_READ]
        # FWD went to a core stub; check it targeted core 1
        fwd_msgs = [m for t, dst, m in bench.wire_log
                    if m.mtype is MessageType.FWD_READ]
        assert fwd_msgs and fwd_msgs[0].dst == core_node(1)


class TestWriteback:
    def test_writeback_clears_owner(self, bench):
        line = bench.line_homed_at(3)
        bench.directories[3].apply_commit([line], writer=5)
        bench.network.unicast(MessageType.WRITEBACK, core_node(5),
                              dir_node(3), line=line, writer=5)
        bench.run()
        info = bench.directories[3].line_info(line)
        assert info.owner is None
        assert 5 not in info.sharers

    def test_writeback_from_non_owner_keeps_owner(self, bench):
        line = bench.line_homed_at(3)
        bench.directories[3].apply_commit([line], writer=5)
        bench.add_sharer(line, proc=6)
        bench.network.unicast(MessageType.WRITEBACK, core_node(6),
                              dir_node(3), line=line, writer=6)
        bench.run()
        info = bench.directories[3].line_info(line)
        assert info.owner == 5
        assert 6 not in info.sharers


class TestCommitStateHelpers:
    def test_sharers_to_invalidate_excludes_writer(self, bench):
        line = bench.line_homed_at(2)
        bench.add_sharer(line, 0)
        bench.add_sharer(line, 4)
        victims = bench.directories[2].sharers_to_invalidate([line], writer=0)
        assert victims == {4}

    def test_sharers_to_invalidate_includes_old_owner(self, bench):
        line = bench.line_homed_at(2)
        bench.directories[2].apply_commit([line], writer=7)
        victims = bench.directories[2].sharers_to_invalidate([line], writer=0)
        assert victims == {7}

    def test_apply_commit_sets_owner(self, bench):
        line = bench.line_homed_at(2)
        bench.add_sharer(line, 4)
        bench.directories[2].apply_commit([line], writer=0)
        info = bench.directories[2].line_info(line)
        assert info.owner == 0 and info.sharers == {0}

    def test_unknown_lines_ignored(self, bench):
        assert bench.directories[2].sharers_to_invalidate([999999], 0) == set()


class EagerDirectory:
    """Reference model: a :class:`LineInfo` per tracked line, with the
    read path's choice of data source spelled out."""

    def __init__(self, network):
        self.network = network
        self.lines = {}

    def add_sharer(self, lines, core):
        for line in lines:
            info = self.lines.get(line)
            if info is None:
                self.lines[line] = LineInfo({core})
            else:
                info.sharers.add(core)

    def read(self, line, requester):
        """(data source, the core it is asked of) for one read miss."""
        info = self.lines.setdefault(line, LineInfo())
        if info.owner is not None and info.owner != requester:
            source = ("owner", info.owner)
        else:
            remote = [s for s in info.sharers if s != requester]
            if remote:
                tile_of, hops = self.network.tile_of, self.network.topology
                src = tile_of(core_node(requester))
                source = ("sharer", min(remote, key=lambda s: hops.hop_distance(
                    tile_of(core_node(s)), src)))
            else:
                source = ("memory", requester)
        info.sharers.add(requester)
        return source

    def writeback(self, line, writer):
        info = self.lines.get(line)
        if info is not None:
            if info.owner == writer:
                info.owner = None
            info.sharers.discard(writer)

    def sharers_to_invalidate(self, lines, writer):
        victims = set()
        for line in lines:
            info = self.lines.get(line)
            if info is not None:
                victims |= info.sharers
                if info.owner is not None:
                    victims.add(info.owner)
        victims.discard(writer)
        return victims

    def apply_commit(self, lines, writer):
        for line in lines:
            info = self.lines.setdefault(line, LineInfo())
            info.sharers = {writer}
            info.owner = writer


#: the directory's read replies -> the reference's data source names
_SOURCES = {(MessageType.FWD_READ, True): "owner",
            (MessageType.FWD_READ, False): "sharer",
            (MessageType.DATA_FROM_MEM, None): "memory"}

LINES = range(6)
_cores = st.integers(0, 15)     # 16 cores: sharer sets wrap 8-slot tables
_line = st.sampled_from(LINES)
_line_list = st.lists(_line, max_size=4)
directory_ops = st.lists(st.one_of(
    st.tuples(st.just("prewarm"), _cores, _line_list),
    st.tuples(st.just("read"), _cores, _line),
    st.tuples(st.just("read"), _cores, _line),
    st.tuples(st.just("writeback"), _cores, _line),
    st.tuples(st.just("commit"), _cores, _line_list),
    st.tuples(st.just("invalidate"), _cores, _line_list),
), max_size=40)


def _view(info):
    return None if info is None else (list(info.sharers), info.owner)


class TestCompactStatesMatchEagerReference:
    """The compact line states keep every sharer set's contents and
    iteration order, which the read path's forwarding tie-break reads."""

    @staticmethod
    def _pair():
        config = SystemConfig(n_cores=16)
        network = Network(config, Simulator())
        sent = []
        network.unicast = lambda mtype, src, dst, **kw: sent.append(
            (_SOURCES[mtype, kw.get("dirty")], dst.index))
        sim = SimpleNamespace(schedule=lambda delay, send: send())
        return DirectoryModule(0, config, sim, network), sent, \
            EagerDirectory(network)

    def test_sharer_order_is_set_order_not_ascending(self):
        directory, _, _ = self._pair()
        directory.add_sharer([0], 9)
        directory.add_sharer([0], 2)
        assert list(directory.line_info(0).sharers) == [9, 2]

    @given(directory_ops)
    @example(ops=[("prewarm", 9, [0]), ("read", 2, 0), ("read", 3, 0),
                  ("invalidate", 5, [0])])
    @example(ops=[("prewarm", 9, [1]), ("prewarm", 1, [1]), ("read", 4, 1),
                  ("invalidate", 0, [1, 0])])
    @example(ops=[("commit", 9, [2]), ("read", 1, 2), ("read", 4, 2),
                  ("writeback", 9, 2), ("read", 3, 2), ("commit", 3, [2]),
                  ("writeback", 3, 2), ("read", 3, 2)])
    @settings(max_examples=200, deadline=None)
    def test_same_sharers_owners_and_replies(self, ops):
        directory, sent, eager = self._pair()
        for op, core, arg in ops:
            if op == "prewarm":
                directory.add_sharer(arg, core)
                eager.add_sharer(arg, core)
            elif op == "read":
                directory.handle_message(SimpleNamespace(
                    mtype=MessageType.READ_REQ,
                    payload={"line": arg, "requester": core}))
                assert sent.pop() == eager.read(arg, core)
            elif op == "writeback":
                directory.handle_message(SimpleNamespace(
                    mtype=MessageType.WRITEBACK,
                    payload={"line": arg, "writer": core}))
                eager.writeback(arg, core)
            elif op == "commit":
                directory.apply_commit(arg, core)
                eager.apply_commit(arg, core)
            else:
                assert (list(directory.sharers_to_invalidate(arg, core))
                        == list(eager.sharers_to_invalidate(arg, core)))
            assert list(directory.lines) == list(eager.lines)
            assert (list(directory.home_lines(LINES))
                    == [line for line in LINES if line in eager.lines])
            for line in LINES:
                assert (_view(directory.line_info(line))
                        == _view(eager.lines.get(line)))
