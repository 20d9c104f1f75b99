"""Message-level tests of the ScalableBulk group formation protocol.

These drive directory modules over the real NoC with hand-built commit
requests and check the behaviours of Sections 3.1/3.2 and the message
orderings of Tables 4/5.
"""

import pytest

from repro.core.cst import ChunkCommitState
from repro.network.message import MessageType, dir_node
from protocol_bench import ProtocolBench


@pytest.fixture
def bench():
    return ProtocolBench(n_cores=9)


class TestSuccessfulCommit:
    def test_singleton_group_commits(self, bench):
        w = bench.line_homed_at(3)
        cid, order = bench.send_commit(proc=0, writes=[w])
        bench.run()
        assert bench.outcomes(0) == [("success", cid)]
        assert order == (3,)
        # CST entry deallocated
        assert not bench.directories[3].cst

    def test_multi_dir_group_commits(self, bench):
        lines = [bench.line_homed_at(d) for d in (1, 2, 5)]
        cid, order = bench.send_commit(proc=0, writes=lines)
        bench.run()
        assert order == (1, 2, 5)
        assert bench.outcomes(0) == [("success", cid)]
        for d in (1, 2, 5):
            assert not bench.directories[d].cst

    def test_g_flows_in_ascending_order(self, bench):
        lines = [bench.line_homed_at(d) for d in (1, 2, 5)]
        bench.send_commit(proc=0, writes=lines)
        bench.run()
        # dir 2 gets g from dir 1, dir 5 from dir 2, leader 1 gets it back
        assert len(bench.messages_at(2, MessageType.G)) == 1
        assert len(bench.messages_at(5, MessageType.G)) == 1
        assert len(bench.messages_at(1, MessageType.G)) == 1  # returned

    def test_members_receive_g_success_then_commit_done(self, bench):
        lines = [bench.line_homed_at(d) for d in (1, 2, 5)]
        bench.send_commit(proc=0, writes=lines)
        bench.run()
        for d in (2, 5):
            types = [m.mtype for m in bench.messages_at(d)
                     if m.mtype in (MessageType.G_SUCCESS,
                                    MessageType.COMMIT_DONE)]
            assert types == [MessageType.G_SUCCESS, MessageType.COMMIT_DONE]

    def test_sharers_get_bulk_inv_and_state_updates(self, bench):
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=4)
        cid, _ = bench.send_commit(proc=0, writes=[w])
        bench.run()
        invs = [m for m in bench.core_log[4]
                if m.mtype is MessageType.BULK_INV]
        assert len(invs) == 1
        assert w in invs[0].payload["write_lines"]
        # directory state: writer became owner, sharer dropped
        info = bench.directories[2].line_info(w)
        assert info.owner == 0
        assert info.sharers == {0}

    def test_writer_not_invalidated(self, bench):
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=0)  # the writer itself
        bench.send_commit(proc=0, writes=[w])
        bench.run()
        assert not [m for m in bench.core_log[0]
                    if m.mtype is MessageType.BULK_INV]

    def test_read_only_group_commits(self, bench):
        r = bench.line_homed_at(4)
        cid, _ = bench.send_commit(proc=1, reads=[r])
        bench.run()
        assert bench.outcomes(1) == [("success", cid)]


class TestAccessPrevention:
    """Primitive 1: preventing access to a set of directory entries."""

    def test_load_to_committing_line_blocked(self, bench):
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=7)  # ack round trip keeps the window open
        bench.send_commit(proc=0, writes=[w])
        # before the commit resolves, the directory must block the line
        bench.sim.run(until=25)
        assert bench.directories[2].read_blocked(w)
        bench.run()
        assert not bench.directories[2].read_blocked(w)

    def test_unrelated_load_not_blocked(self, bench):
        w = bench.line_homed_at(2)
        other = bench.line_homed_at(2, index=5)
        bench.send_commit(proc=0, writes=[w])
        bench.sim.run(until=40)
        assert not bench.directories[2].read_blocked(other)


class TestCollisions:
    def test_incompatible_groups_one_wins(self, bench):
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=7)  # keeps the winner's window open
        cid0, _ = bench.send_commit(proc=0, writes=[w], seq=0)
        cid1, _ = bench.send_commit(proc=1, writes=[w], seq=0)
        bench.run()
        results = {cid0: bench.outcomes(0), cid1: bench.outcomes(1)}
        succ = [cid for cid, res in results.items() if ("success", cid) in res]
        fail = [cid for cid, res in results.items() if ("failure", cid) in res]
        assert len(succ) == 1 and len(fail) == 1

    def test_compatible_groups_share_directory(self, bench):
        """The headline property: address-disjoint chunks commit
        concurrently through the same module."""
        w0 = bench.line_homed_at(2, index=0)
        w1 = bench.line_homed_at(2, index=1)
        cid0, _ = bench.send_commit(proc=0, writes=[w0])
        cid1, _ = bench.send_commit(proc=1, writes=[w1])
        bench.run()
        assert bench.outcomes(0) == [("success", cid0)]
        assert bench.outcomes(1) == [("success", cid1)]
        assert bench.protocol.stats.commit_failures == 0

    def test_many_compatible_groups_all_commit(self, bench):
        cids = []
        for p in range(6):
            w = bench.line_homed_at(2, index=p)
            cids.append(bench.send_commit(proc=p, writes=[w], seq=0)[0])
        bench.run()
        for p, cid in enumerate(cids):
            assert ("success", cid) in bench.outcomes(p)

    def test_rw_collision_detected(self, bench):
        shared = bench.line_homed_at(3)
        bench.add_sharer(shared, proc=7)
        cid0, _ = bench.send_commit(proc=0, writes=[shared])
        cid1, _ = bench.send_commit(proc=1, reads=[shared],
                                    writes=[bench.line_homed_at(4)])
        bench.run()
        outcomes = bench.outcomes(0) + bench.outcomes(1)
        succ = [o for o in outcomes if o[0] == "success"]
        fail = [o for o in outcomes if o[0] == "failure"]
        assert len(succ) == 1 and len(fail) == 1

    def test_loser_leader_sends_commit_failure(self, bench):
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=7)
        bench.send_commit(proc=0, writes=[w], seq=0)
        bench.send_commit(proc=1, writes=[w], seq=0)
        bench.run()
        failures = [m for p in (0, 1) for m in bench.core_log[p]
                    if m.mtype is MessageType.COMMIT_FAILURE]
        assert len(failures) == 1

    def test_colliding_groups_forward_progress(self, bench):
        """Fig. 3(g)-style: several mutually colliding groups — at least
        one must form."""
        shared25 = [bench.line_homed_at(2), bench.line_homed_at(5)]
        # three chunks all writing both shared lines
        cids = [bench.send_commit(proc=p, writes=shared25, seq=0)[0]
                for p in range(3)]
        bench.run()
        successes = sum(
            1 for p, cid in enumerate(cids)
            if ("success", cid) in bench.outcomes(p))
        assert successes == 1


class TestStarvationReservation:
    def test_reservation_after_max_failures(self):
        bench = ProtocolBench(n_cores=9, starvation_max_squashes=2)
        w = bench.line_homed_at(2)
        victim_tag_core = 3
        # fail the victim twice by pre-holding an incompatible group
        for attempt in range(2):
            bench.add_sharer(w, proc=7)  # keep each winner's window open
            bench.send_commit(proc=0, writes=[w], seq=attempt)
            bench.sim.run(until=bench.sim.now + 22)
            bench.send_commit(proc=victim_tag_core, writes=[w], seq=0,
                              attempt=attempt)
            bench.run()
        assert bench.directories[2].reserved_for == (victim_tag_core, 0)

    def test_reserved_module_rejects_others(self):
        bench = ProtocolBench(n_cores=9, starvation_max_squashes=1)
        w = bench.line_homed_at(2)
        bench.add_sharer(w, proc=7)
        bench.send_commit(proc=0, writes=[w], seq=0)
        bench.sim.run(until=22)
        bench.send_commit(proc=3, writes=[w], seq=0, attempt=0)
        bench.run()
        assert bench.directories[2].reserved_for == (3, 0)
        # an unrelated, compatible chunk is now rejected too
        other = bench.line_homed_at(2, index=7)
        cid, _ = bench.send_commit(proc=5, writes=[other], seq=0)
        bench.run()
        assert ("failure", cid) in bench.outcomes(5)
        # the starving chunk itself gets through and releases the module
        cid2, _ = bench.send_commit(proc=3, writes=[w], seq=0, attempt=1)
        bench.run()
        assert ("success", cid2) in bench.outcomes(3)
        assert bench.directories[2].reserved_for is None


class TestPriorityRotation:
    def test_rotated_leader_runs_group(self, bench):
        lines = [bench.line_homed_at(d) for d in (1, 2, 5)]
        cid, order = bench.send_commit(proc=0, writes=lines, offset=4)
        assert order[0] == 5  # 5 has highest priority under offset 4
        bench.run()
        assert bench.outcomes(0) == [("success", cid)]
