"""Behavioural tests for the BulkSC baseline (central arbiter)."""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine
from repro.network.message import MessageType
from protocol_bench import ProtocolBench


def build(specs_by_core, n_cores=4, **overrides):
    config = SystemConfig(n_cores=n_cores, seed=3,
                          protocol=ProtocolKind.BULKSC, **overrides)
    remaining = {c: list(s) for c, s in specs_by_core.items()}

    def next_spec(core_id):
        lst = remaining.get(core_id)
        return lst.pop(0) if lst else None

    return Machine(config, next_spec=next_spec)


def disjoint_specs(core, n=3):
    base = 32 * (7000 + 300 * core)
    return [ChunkSpec(200, [ChunkAccess(1, base + 32 * i, True)])
            for i in range(n)]


def conflicting_specs(n=3, line=32 * 9000):
    return [ChunkSpec(200, [ChunkAccess(1, line, True)]) for _ in range(n)]


class TestArbiterFlow:
    def test_disjoint_chunks_commit(self):
        m = build({c: disjoint_specs(c) for c in range(4)})
        m.run()
        assert sum(c.stats.chunks_committed for c in m.cores) == 12
        assert m.protocol.arbiter.requests >= 12

    def test_conflicting_chunks_nack_and_retry(self):
        m = build({0: conflicting_specs(), 1: conflicting_specs()})
        m.run()
        assert sum(c.stats.chunks_committed for c in m.cores) == 6
        # overlapping W signatures must have produced at least one NACK
        # or a squash (depending on the interleaving)
        assert (m.protocol.arbiter.nacks
                + sum(c.stats.squashes_conflict for c in m.cores)) >= 1

    def test_arbiter_in_flight_drains(self):
        m = build({c: disjoint_specs(c) for c in range(4)})
        m.run()
        assert not m.protocol.arbiter.in_flight

    def test_requests_serialize_at_arbiter(self):
        """Arbiter decisions are spaced by at least the base service time."""
        m = build({c: disjoint_specs(c, n=2) for c in range(4)})
        decided = []
        orig = m.protocol.arbiter._decide

        def spy(msg):
            decided.append(m.sim.now)
            orig(msg)

        m.protocol.arbiter._decide = spy
        m.run()
        gaps = [b - a for a, b in zip(decided, decided[1:])]
        base = m.config.arbiter_base_service_cycles
        assert all(g >= base for g in gaps if g > 0) and len(decided) >= 8

    def test_commit_latency_counts_request_to_ok(self):
        m = build({0: disjoint_specs(0, n=1)})
        m.run()
        rec = m.protocol.stats.commits[0]
        # round trip to the centre + service; must be positive and modest
        assert 0 < rec.latency < 500


class TestBulkSCDirectory:
    def test_w_to_dir_updates_state(self):
        bench = ProtocolBench(n_cores=9, protocol=ProtocolKind.BULKSC)
        line = bench.line_homed_at(2)
        bench.add_sharer(line, proc=5)
        sig = bench.sig_factory.from_lines([line])
        from repro.network.message import core_node, dir_node
        bench.network.unicast(
            MessageType.BSC_W_TO_DIR, bench.protocol.arbiter.node,
            dir_node(2), ctag=("x", 0), proc=0, w_sig=sig,
            write_lines=frozenset([line]))
        bench.run()
        info = bench.directories[2].line_info(line)
        assert info.owner == 0 and info.sharers == {0}
        invs = [m for m in bench.core_log[5]
                if m.mtype is MessageType.BULK_INV]
        assert len(invs) == 1

    def test_read_blocked_while_applying(self):
        bench = ProtocolBench(n_cores=9, protocol=ProtocolKind.BULKSC)
        line = bench.line_homed_at(2)
        bench.add_sharer(line, proc=5)
        sig = bench.sig_factory.from_lines([line])
        from repro.network.message import dir_node
        bench.network.unicast(
            MessageType.BSC_W_TO_DIR, bench.protocol.arbiter.node,
            dir_node(2), ctag=("x", 0), proc=0, w_sig=sig,
            write_lines=frozenset([line]))
        # step until the sharer has seen the invalidation: the directory is
        # mid-apply at that moment and must block the line
        while not any(m.mtype is MessageType.BULK_INV
                      for m in bench.core_log[5]):
            assert bench.sim.step()
        assert bench.directories[2].read_blocked(line)
        bench.run()
        assert not bench.directories[2].read_blocked(line)
