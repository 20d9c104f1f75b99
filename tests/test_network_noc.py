"""Unit tests for the NoC: latency, contention, traffic accounting."""

import pytest

from repro.config import SystemConfig
from repro.engine.events import Simulator
from repro.network.message import (
    Message, MessageType, TrafficClass, core_node, default_size_bytes,
    dir_node, traffic_class_of, SCALABLEBULK_TABLE1_TYPES,
)
from repro.network.noc import Network, compose_delay_hooks


def make_net(n_cores=4, contention=True, **kw):
    config = SystemConfig(n_cores=n_cores,
                          network_contention=contention, **kw)
    sim = Simulator()
    net = Network(config, sim)
    return config, sim, net


class TestDelivery:
    def test_message_delivered_to_handler(self):
        _, sim, net = make_net()
        got = []
        net.register(core_node(1), got.append)
        net.unicast(MessageType.READ_NACK, core_node(0), core_node(1), line=5)
        sim.run()
        assert len(got) == 1
        assert got[0].payload["line"] == 5

    def test_unregistered_destination_raises(self):
        _, sim, net = make_net()
        with pytest.raises(KeyError):
            net.unicast(MessageType.READ_NACK, core_node(0), core_node(1))

    def test_duplicate_registration_rejected(self):
        _, _, net = make_net()
        net.register(core_node(0), lambda m: None)
        with pytest.raises(ValueError):
            net.register(core_node(0), lambda m: None)

    def test_same_tile_delivery_is_one_cycle(self):
        _, sim, net = make_net()
        times = []
        net.register(dir_node(2), lambda m: times.append(sim.now))
        net.unicast(MessageType.READ_REQ, core_node(2), dir_node(2), line=1,
                    requester=2)
        sim.run()
        assert times == [1]

    def test_remote_latency_includes_hops(self):
        config, sim, net = make_net(contention=False)
        times = []
        net.register(core_node(3), lambda m: times.append(sim.now))
        net.unicast(MessageType.READ_NACK, core_node(0), core_node(3))
        sim.run()
        hops = net.topology.hop_distance(0, 3)
        per_hop = config.link_latency_cycles + config.router_latency_cycles
        assert times[0] >= hops * per_hop

    def test_multicast_reaches_all(self):
        _, sim, net = make_net(n_cores=9)
        got = []
        for i in (1, 2, 5):
            net.register(dir_node(i), lambda m, i=i: got.append(i))
        net.multicast(MessageType.G_SUCCESS, dir_node(0),
                      [dir_node(1), dir_node(2), dir_node(5)], ctag="x")
        sim.run()
        assert sorted(got) == [1, 2, 5]


class TestContention:
    def test_contention_serializes_same_link(self):
        """Two large messages on the same route: second arrives later."""
        _, sim, net = make_net(n_cores=16, contention=True)
        times = []
        net.register(core_node(3), lambda m: times.append(sim.now))
        for _ in range(2):
            net.unicast(MessageType.BULK_INV, core_node(0), core_node(3),
                        ctag="c")
        sim.run()
        assert times[1] > times[0]

    def test_no_contention_identical_latency(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        times = []
        net.register(core_node(3), lambda m: times.append(sim.now))
        for _ in range(2):
            net.unicast(MessageType.BULK_INV, core_node(0), core_node(3),
                        ctag="c")
        sim.run()
        assert times[0] == times[1]

    def test_large_messages_slower_than_small(self):
        _, sim1, net1 = make_net(n_cores=16, contention=False)
        small_t = []
        net1.register(core_node(3), lambda m: small_t.append(sim1.now))
        net1.unicast(MessageType.G, core_node(0), core_node(3), ctag="c",
                     inval_vec=set(), order=())
        sim1.run()
        _, sim2, net2 = make_net(n_cores=16, contention=False)
        large_t = []
        net2.register(core_node(3), lambda m: large_t.append(sim2.now))
        net2.unicast(MessageType.COMMIT_REQUEST, core_node(0), core_node(3),
                     ctag="c")
        sim2.run()
        assert large_t[0] > small_t[0]


class TestTrafficAccounting:
    def test_counts_by_class(self):
        _, sim, net = make_net()
        net.register(core_node(1), lambda m: None)
        net.unicast(MessageType.DATA_FROM_MEM, core_node(0), core_node(1),
                    line=1)
        net.unicast(MessageType.DATA_FROM_SHARER, core_node(0), core_node(1),
                    line=1)
        sim.run()
        counts = net.stats.class_counts()
        assert counts[TrafficClass.MEM_RD] == 1
        assert counts[TrafficClass.REMOTE_SH_RD] == 1

    def test_total_bytes_accumulate(self):
        _, sim, net = make_net()
        net.register(core_node(1), lambda m: None)
        net.unicast(MessageType.BULK_INV, core_node(0), core_node(1), ctag="c")
        assert net.stats.total_bytes == default_size_bytes(MessageType.BULK_INV)

    def test_mean_latency_positive(self):
        _, sim, net = make_net()
        net.register(core_node(1), lambda m: None)
        net.unicast(MessageType.READ_NACK, core_node(0), core_node(1))
        sim.run()
        assert net.stats.mean_latency > 0


class TestMessageVocabulary:
    def test_table1_has_ten_types(self):
        assert len(SCALABLEBULK_TABLE1_TYPES) == 10

    def test_signature_carriers_are_large(self):
        assert traffic_class_of(MessageType.COMMIT_REQUEST) is \
            TrafficClass.LARGE_COMMIT
        assert traffic_class_of(MessageType.BULK_INV) is \
            TrafficClass.LARGE_COMMIT

    def test_control_commit_messages_are_small(self):
        for mt in (MessageType.G, MessageType.G_SUCCESS,
                   MessageType.COMMIT_DONE, MessageType.TCC_SKIP,
                   MessageType.SEQ_OCCUPY):
            assert traffic_class_of(mt) is TrafficClass.SMALL_COMMIT

    def test_read_requests_are_other(self):
        assert traffic_class_of(MessageType.READ_REQ) is TrafficClass.OTHER
        assert traffic_class_of(MessageType.WRITEBACK) is TrafficClass.OTHER

    def test_commit_request_carries_two_signatures(self):
        assert default_size_bytes(MessageType.COMMIT_REQUEST) > \
            default_size_bytes(MessageType.BULK_INV)

    def test_message_uids_unique(self):
        a = Message(MessageType.G, core_node(0), core_node(1))
        b = Message(MessageType.G, core_node(0), core_node(1))
        assert a.uid != b.uid


class TestFlowFifo:
    """Per-flow FIFO: point-to-point channels must never reorder.

    ScalableBulk's grab circulation (Section 3.2) assumes ordered channels
    between every (src, dst) pair.  Without the delivery clamp in
    ``Network.send`` a later small message computes a shorter uncontended
    transit than an earlier large one and overtakes it — exactly the
    channel-ordering obligation formal treatments of lazy coherence call
    out.  These tests construct that overtake and must FAIL on the
    pre-clamp code.
    """

    def test_small_message_cannot_overtake_large_without_contention(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        order = []
        net.register(core_node(3), lambda m: order.append((m.mtype, sim.now)))
        # Large signature carrier first, then a one-flit control message on
        # the same (src, dst) flow in the same cycle.
        big = net.unicast(MessageType.COMMIT_REQUEST, core_node(0),
                          core_node(3), ctag="c")
        small = net.unicast(MessageType.G, core_node(0), core_node(3),
                            ctag="c", inval_vec=set(), order=())
        # The raw latency model *would* reorder them — that is the hole.
        assert default_size_bytes(small.mtype) < default_size_bytes(big.mtype)
        sim.run()
        assert [mt for mt, _ in order] == [MessageType.COMMIT_REQUEST,
                                           MessageType.G]
        assert order[0][1] <= order[1][1]

    def test_clamped_follower_arrives_no_earlier_than_leader(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        times = {}
        net.register(core_node(3), lambda m: times.setdefault(m.uid, sim.now))
        big = net.unicast(MessageType.BULK_INV, core_node(0), core_node(3),
                          ctag="c")
        lat_small = net.send(Message(MessageType.G_SUCCESS, core_node(0),
                                     core_node(3), ctag="c"))
        # Reported latency reflects the clamp, not the raw transit.
        assert lat_small >= 1
        sim.run()
        assert times[big.uid] <= sim.now

    def test_distinct_flows_are_not_serialized_against_each_other(self):
        """The clamp is per-flow: another source's message may still win."""
        _, sim, net = make_net(n_cores=16, contention=False)
        order = []
        net.register(core_node(3), lambda m: order.append(m.src.index))
        net.unicast(MessageType.COMMIT_REQUEST, core_node(0), core_node(3),
                    ctag="c")
        net.unicast(MessageType.G, core_node(2), core_node(3), ctag="c",
                    inval_vec=set(), order=())
        sim.run()
        assert order[0] == 2  # nearer/smaller message from core 2 arrives first

    def test_fifo_also_holds_under_contention(self):
        _, sim, net = make_net(n_cores=16, contention=True)
        order = []
        net.register(core_node(3), lambda m: order.append(m.uid))
        sent = [net.unicast(MessageType.COMMIT_REQUEST, core_node(0),
                            core_node(3), ctag="c").uid,
                net.unicast(MessageType.G, core_node(0), core_node(3),
                            ctag="c", inval_vec=set(), order=()).uid]
        sim.run()
        assert order == sent

    def test_fifo_holds_for_staggered_sends(self):
        """A follower injected later on the same flow still may not pass."""
        _, sim, net = make_net(n_cores=16, contention=False)
        arrivals = []
        net.register(core_node(3), lambda m: arrivals.append((m.uid, sim.now)))
        first = net.unicast(MessageType.COMMIT_REQUEST, core_node(0),
                            core_node(3), ctag="c")
        sim.schedule(2, lambda: net.unicast(
            MessageType.G, core_node(0), core_node(3), ctag="c",
            inval_vec=set(), order=()))
        sim.run()
        assert arrivals[0][0] == first.uid
        assert arrivals[0][1] <= arrivals[1][1]


class TestHostileDelayHook:
    """A delay hook may stretch time but must never reorder a flow.

    Fault injection (repro.faults) and schedule exploration both ride
    ``delay_hook``; the hook runs *before* the per-(src, dst) clamp, so
    even an adversarial hook — huge delay for the leader, zero for the
    follower — cannot reintroduce same-flow overtaking.
    """

    def test_leader_delayed_hugely_still_arrives_first(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        seen = []

        def hostile(msg, latency):
            # Enormous delay for the first message only.
            seen.append(msg.uid)
            return 10_000 if len(seen) == 1 else 0

        net.delay_hook = hostile
        order = []
        net.register(core_node(3), lambda m: order.append(m.uid))
        first = net.unicast(MessageType.COMMIT_REQUEST, core_node(0),
                            core_node(3), ctag="c")
        second = net.unicast(MessageType.G, core_node(0), core_node(3),
                             ctag="c", inval_vec=set(), order=())
        sim.run()
        assert order == [first.uid, second.uid]

    def test_adversarial_decreasing_delays_keep_send_order(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        remaining = [5_000, 2_500, 600, 40, 0]

        def hostile(msg, latency):
            return remaining.pop(0) if remaining else 0

        net.delay_hook = hostile
        order = []
        net.register(core_node(3), lambda m: order.append(m.uid))
        sent = [net.unicast(MessageType.G, core_node(0), core_node(3),
                            ctag="c", inval_vec=set(), order=()).uid
                for _ in range(5)]
        sim.run()
        assert order == sent

    def test_negative_hook_output_is_clamped(self):
        """A hook may not *accelerate* a message below the model latency."""
        _, sim1, net1 = make_net(n_cores=16, contention=False)
        base = []
        net1.register(core_node(3), lambda m: base.append(sim1.now))
        net1.unicast(MessageType.G, core_node(0), core_node(3), ctag="c",
                     inval_vec=set(), order=())
        sim1.run()

        _, sim2, net2 = make_net(n_cores=16, contention=False)
        net2.delay_hook = lambda msg, latency: -10_000
        hooked = []
        net2.register(core_node(3), lambda m: hooked.append(sim2.now))
        net2.unicast(MessageType.G, core_node(0), core_node(3), ctag="c",
                     inval_vec=set(), order=())
        sim2.run()
        assert hooked == base

    def test_composed_hooks_sum_and_respect_fifo(self):
        _, sim, net = make_net(n_cores=16, contention=False)
        net.delay_hook = compose_delay_hooks(lambda m, l: 7, lambda m, l: 5)
        times = []
        net.register(core_node(3), lambda m: times.append(sim.now))
        net.unicast(MessageType.G, core_node(0), core_node(3), ctag="c",
                    inval_vec=set(), order=())
        sim.run()
        _, sim2, net2 = make_net(n_cores=16, contention=False)
        plain = []
        net2.register(core_node(3), lambda m: plain.append(sim2.now))
        net2.unicast(MessageType.G, core_node(0), core_node(3), ctag="c",
                     inval_vec=set(), order=())
        sim2.run()
        assert times[0] == plain[0] + 12

    def test_compose_drops_nones(self):
        assert compose_delay_hooks(None, None) is None
        solo = lambda m, l: 3
        assert compose_delay_hooks(None, solo, None) is solo


class TestSendFailureAtomicity:
    """A send to an unregistered destination must be a pure no-op.

    The handler check runs before *any* mutation: no traffic stats, no
    FIFO-clamp entry, no link bookkeeping, no sent_at stamp, no scheduled
    event — and with a profiler attached, a balanced profiler stack."""

    def _failed_send(self, net):
        msg = Message(mtype=MessageType.READ_NACK, src=core_node(0),
                      dst=core_node(1), payload={"line": 5})
        with pytest.raises(KeyError):
            net.send(msg)
        return msg

    def test_failed_send_records_nothing(self):
        _, sim, net = make_net()
        msg = self._failed_send(net)
        assert msg.sent_at == -1           # never stamped
        assert net.stats.total_messages == 0
        assert net.stats.total_bytes == 0
        assert not net._last_delivery      # no FIFO clamp entry
        assert not net.link_utilization_snapshot()
        assert sim.pending_events == 0     # no delivery scheduled

    def test_failed_send_leaves_profiler_stack_balanced(self):
        from types import SimpleNamespace

        from repro.obs.profile import attach_profiler
        from repro.signatures.bulk_signature import SignatureFactory

        _, sim, net = make_net()
        prof = attach_profiler(SimpleNamespace(
            sim=sim, network=net, sig_factory=SignatureFactory(),
            directories=[], prewarm=lambda: 0))
        self._failed_send(net)
        assert prof._stack == []           # noc.transit never left open
        assert "noc.transit" not in prof.scopes
        # the network still works afterwards, with the scope balanced
        got = []
        net.register(core_node(1), got.append)
        net.unicast(MessageType.READ_NACK, core_node(0), core_node(1), line=7)
        sim.run()
        assert len(got) == 1
        assert prof._stack == []
        assert prof.scopes["noc.transit"].count == 1
