"""The per-type message constants and the traffic counters built on them.

``MessageType`` members carry their wire size, traffic class and commit
flag, computed once at import.  These tests pin every member against the
size and class rules as written before the constants existed, and check
the derived ``TrafficStats`` views against plain ``Counter``s fed the same
message stream.
"""

import random
from collections import Counter

import pytest

from repro.network import message as m
from repro.network.message import (
    HEADER_BYTES, LINE_BYTES, Message, MessageType, NodeRef, TrafficClass,
    core_node, default_size_bytes, dir_node, traffic_class_of,
)
from repro.network.noc import TrafficStats


def rule_size(mtype):
    if mtype in m._SIG_CARRIERS:
        return m._SIG_CARRIERS[mtype]
    if mtype in m._DATA_CARRIERS:
        return LINE_BYTES + HEADER_BYTES
    return HEADER_BYTES + 8


def rule_class(mtype):
    if mtype is MessageType.DATA_FROM_MEM:
        return TrafficClass.MEM_RD
    if mtype is MessageType.DATA_FROM_SHARER:
        return TrafficClass.REMOTE_SH_RD
    if mtype is MessageType.DATA_FROM_OWNER:
        return TrafficClass.REMOTE_DIRTY_RD
    if mtype in m._SIG_CARRIERS:
        return TrafficClass.LARGE_COMMIT
    if mtype in m._COMMIT_TYPES:
        return TrafficClass.SMALL_COMMIT
    return TrafficClass.OTHER


@pytest.mark.parametrize("mtype", list(MessageType), ids=lambda t: t.name)
def test_member_constants_follow_the_rules(mtype):
    assert mtype.size == default_size_bytes(mtype) == rule_size(mtype)
    assert mtype.tclass is traffic_class_of(mtype) is rule_class(mtype)
    assert mtype.is_commit is (mtype in m._COMMIT_TYPES)
    msg = Message(mtype, core_node(0), dir_node(1))
    assert msg.size_bytes == mtype.size
    assert msg.traffic_class is mtype.tclass


def test_rule_tables_cover_the_data_and_signature_carriers():
    assert set(m._DATA_CARRIERS) == {
        MessageType.DATA_FROM_MEM, MessageType.DATA_FROM_SHARER,
        MessageType.DATA_FROM_OWNER}
    assert set(m._SIG_CARRIERS) == {
        MessageType.COMMIT_REQUEST, MessageType.BULK_INV,
        MessageType.BSC_COMMIT_REQ, MessageType.BSC_W_TO_DIR}
    # every type but the coherence substrate's is commit traffic
    assert m._COMMIT_TYPES == (set(MessageType)
                               - set(m.FAMILY_TYPES["substrate"]))


def test_indices_are_dense_and_in_declaration_order():
    assert [t.index for t in MessageType] == list(range(len(MessageType)))


def test_explicit_size_survives():
    msg = Message(MessageType.G, core_node(0), dir_node(1), size_bytes=77)
    assert msg.size_bytes == 77
    assert msg.traffic_class is MessageType.G.tclass


def test_uids_are_unique_and_increasing():
    uids = [Message(MessageType.G, core_node(0), dir_node(1)).uid
            for _ in range(20)]
    assert uids == sorted(set(uids))


def test_messages_without_a_payload_get_their_own_dict():
    a = Message(MessageType.G, core_node(0), dir_node(1))
    b = Message(MessageType.G, core_node(0), dir_node(1))
    assert a.payload == {} and a.payload is not b.payload
    a.payload["line"] = 5
    assert b.payload == {}
    given = {"line": 7}
    assert Message(MessageType.G, core_node(0), dir_node(1),
                   payload=given).payload is given


def test_messages_compare_by_identity():
    a = Message(MessageType.G, core_node(0), dir_node(1), ctag="c")
    b = Message(MessageType.G, core_node(0), dir_node(1), ctag="c")
    assert a == a and a != b
    assert len({a, b}) == 2
    assert a.sent_at == -1 and not hasattr(a, "__dict__")


def test_node_refs_are_interned():
    assert core_node(3) is core_node(3)
    assert dir_node(3) is dir_node(3)
    assert core_node(3) == NodeRef("core", 3)
    assert dir_node(3) == NodeRef("dir", 3) != core_node(3)
    assert str(dir_node(5)) == "dir5"


@pytest.mark.parametrize("seed", range(4))
def test_derived_views_match_reference_counters(seed):
    rng = random.Random(seed)
    # a strict subset of types, so some are never seen
    pool = rng.sample(list(MessageType), len(MessageType) // 2)
    stats = TrafficStats()
    by_class, bytes_by_class, by_type = Counter(), Counter(), Counter()
    for _ in range(500):
        mtype = rng.choice(pool)
        size = rng.choice((0, 0, 0, rng.randrange(1, 300)))
        msg = Message(mtype, core_node(0), dir_node(1), size_bytes=size)
        stats.record(msg, latency=rng.randrange(40), hops=rng.randrange(6))
        by_class[msg.traffic_class] += 1
        bytes_by_class[msg.traffic_class] += msg.size_bytes
        by_type[msg.mtype] += 1
    assert stats.messages_by_type == by_type
    assert stats.messages_by_class == by_class
    assert stats.bytes_by_class == bytes_by_class
    assert stats.class_counts() == dict(by_class)
    assert set(stats.messages_by_type) == set(by_type)
    for mtype in set(MessageType) - set(by_type):
        assert mtype not in stats.messages_by_type
    seen_classes = {t.tclass for t in by_type}
    assert set(stats.messages_by_class) == seen_classes
    assert set(stats.bytes_by_class) == seen_classes
    assert stats.total_messages == sum(by_type.values())
    assert stats.total_bytes == sum(bytes_by_class.values())


def test_fresh_stats_views_are_empty():
    stats = TrafficStats()
    assert stats.messages_by_type == Counter()
    assert stats.messages_by_class == Counter()
    assert stats.bytes_by_class == Counter()
    assert stats.class_counts() == {}
