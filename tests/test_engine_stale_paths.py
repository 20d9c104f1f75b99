"""Stale-message handling in the processor engines.

Protocol messages can outlive the commit attempt they belong to (squash,
retry under a new attempt id).  Every engine must discard them without
corrupting the live conversation.
"""

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine
from repro.network.message import MessageType, core_node, dir_node


def quiet_machine(protocol, n_cores=4):
    config = SystemConfig(n_cores=n_cores, seed=3, protocol=protocol)
    return Machine(config, next_spec=lambda c: None)


class TestScalableBulkEngineStale:
    def test_stale_commit_success_discarded(self):
        m = quiet_machine(ProtocolKind.SCALABLEBULK)
        engine = m.protocol.engines[0]
        m.network.unicast(MessageType.COMMIT_SUCCESS, dir_node(1),
                          core_node(0), ctag=("ghost", 0))
        m.sim.run()
        assert engine._current_cid is None  # untouched

    def test_stale_commit_failure_discarded(self):
        m = quiet_machine(ProtocolKind.SCALABLEBULK)
        m.network.unicast(MessageType.COMMIT_FAILURE, dir_node(1),
                          core_node(0), ctag=("ghost", 0))
        m.sim.run()  # must not raise

    def test_unsolicited_bulk_inv_acked(self):
        m = quiet_machine(ProtocolKind.SCALABLEBULK)
        sig = m.sig_factory.from_lines([5])
        acks = []
        # watch the leader dir for the ack
        d = m.directories[2]
        orig = d._dispatch

        def spy(msg):
            if msg.mtype is MessageType.BULK_INV_ACK:
                acks.append(msg)
            else:
                orig(msg)

        d._dispatch = spy
        m.network.unicast(MessageType.BULK_INV, dir_node(2), core_node(0),
                          ctag=("w", 0), w_sig=sig, write_lines=(5,),
                          winner_order=(2,), leader=2)
        m.sim.run()
        assert len(acks) == 1


class TestSeqEngineStale:
    def test_stale_grant_released(self):
        m = quiet_machine(ProtocolKind.SEQ)
        d = m.directories[2]
        # occupy dir 2 on behalf of a dead attempt
        m.network.unicast(MessageType.SEQ_OCCUPY, core_node(0), dir_node(2),
                          ctag=("dead", 0), proc=0)
        m.sim.run()
        # engine 0 has no current commit: the grant must bounce a release
        assert d.occupant is None

    def test_stale_done_ignored(self):
        m = quiet_machine(ProtocolKind.SEQ)
        m.network.unicast(MessageType.SEQ_DONE, dir_node(2), core_node(0),
                          ctag=("dead", 0), dir_id=2)
        m.sim.run()  # no crash


class TestBulkSCEngineStale:
    def test_stale_ok_discarded(self):
        m = quiet_machine(ProtocolKind.BULKSC)
        m.network.unicast(MessageType.BSC_OK,
                          m.protocol.arbiter.node, core_node(0),
                          ctag=("dead", 0))
        m.sim.run()

    def test_stale_nack_discarded(self):
        m = quiet_machine(ProtocolKind.BULKSC)
        m.network.unicast(MessageType.BSC_NACK,
                          m.protocol.arbiter.node, core_node(0),
                          ctag=("dead", 0))
        m.sim.run()

    def test_dir_done_for_unknown_cid(self):
        m = quiet_machine(ProtocolKind.BULKSC)
        m.network.unicast(MessageType.BSC_DIR_DONE, dir_node(1),
                          m.protocol.arbiter.node, ctag=("dead", 0),
                          dir_id=1)
        m.sim.run()
        assert not m.protocol.arbiter.in_flight


class TestTccEngineStale:
    def test_stale_dir_done_ignored(self):
        m = quiet_machine(ProtocolKind.TCC)
        m.network.unicast(MessageType.TCC_DIR_DONE, dir_node(1),
                          core_node(0), ctag=("dead", 0), dir_id=1)
        m.sim.run()

    def test_stale_grant_resolves_tid_globally(self):
        """The critical TCC liveness property: a grant for a dead attempt
        still converts its TID into skips at every directory."""
        m = quiet_machine(ProtocolKind.TCC)
        m.network.unicast(MessageType.TID_GRANT, m.protocol.vendor.node,
                          core_node(0), ctag=("dead", 0), tid=1)
        m.sim.run()
        for d in m.directories:
            assert d.expected_tid == 2, d.dir_id
