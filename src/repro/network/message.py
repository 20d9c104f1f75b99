"""Message vocabulary for all four protocols plus the coherence substrate.

The ScalableBulk types follow Table 1 of the paper exactly:

===================  =========================================  ==========
Type                 Contents                                   Direction
===================  =========================================  ==========
COMMIT_REQUEST       C_Tag, W Sig, R Sig, g_vec                 Proc -> Dir(s)
G                    C_Tag, inval_vec  ("grab")                 Dir -> Dir
G_FAILURE            C_Tag                                      Dir -> Dir(s)
G_SUCCESS            C_Tag                                      Dir -> Dir(s)
COMMIT_FAILURE       C_Tag                                      Dir -> Proc
COMMIT_SUCCESS       C_Tag                                      Dir -> Proc
BULK_INV             C_Tag, W Sig                               Dir -> Proc(s)
BULK_INV_ACK         C_Tag                                      Proc -> Dir
COMMIT_DONE          C_Tag                                      Dir -> Dir(s)
COMMIT_RECALL        C_Tag, Dir ID (piggy-backed)               Proc -> Dir, Dir -> Dir
===================  =========================================  ==========

``COMMIT_RECALL`` is never a standalone packet: per the paper it rides on a
``BULK_INV_ACK`` and then on a ``COMMIT_DONE``.  We model that as a payload
flag on those carriers (zero extra network cost) while still counting the
recall event for protocol statistics.

Traffic classes match the paper's Figures 18/19 message characterization:
MemRd, RemoteShRd, RemoteDirtyRd, LargeCMessage (signature-carrying commit
messages), SmallCMessage (all other commit messages).
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class TrafficClass(Enum):
    """Message categories from the paper's traffic characterization."""

    MEM_RD = "MemRd"                    #: cache-line read satisfied by memory
    REMOTE_SH_RD = "RemoteShRd"         #: line read from a remote cache (shared)
    REMOTE_DIRTY_RD = "RemoteDirtyRd"   #: line read from a remote cache (dirty)
    LARGE_COMMIT = "LargeCMessage"      #: commit message carrying a signature
    SMALL_COMMIT = "SmallCMessage"      #: all other commit-protocol messages
    OTHER = "Other"                     #: miss-request/forward control traffic
                                        #: (the paper folds these into the read
                                        #: classes; our figure renderer does too)


class MessageType(Enum):
    """All message types across the substrate and the four protocols.

    Each member carries its per-type constants, computed once at import
    from the size and class rules below, so the per-message path reads
    attributes and hashes nothing.
    """

    size: int                   #: default wire size in bytes
    tclass: TrafficClass        #: the paper's Fig. 18/19 traffic class
    is_commit: bool             #: commit-protocol (not substrate) traffic
    index: int                  #: dense 0..n-1, for int-indexed counters

    # --- coherence substrate (read misses; writes are lazy) -------------
    READ_REQ = "read_req"                 #: Proc -> Dir: L2 miss
    READ_NACK = "read_nack"               #: Dir -> Proc: line locked by a commit
    DATA_FROM_MEM = "data_from_mem"       #: Dir -> Proc: filled from memory
    FWD_READ = "fwd_read"                 #: Dir -> Proc(owner): forward request
    DATA_FROM_SHARER = "data_from_sharer"  #: owner -> Proc: clean remote hit
    DATA_FROM_OWNER = "data_from_owner"   #: owner -> Proc: dirty remote hit
    WRITEBACK = "writeback"               #: Proc -> Dir: dirty L2 eviction
    BULK_INV_NACK = "bulk_inv_nack"       #: Proc -> Dir: conservative (non-OCI)
                                          #: processor bounces an invalidation

    # --- ScalableBulk (paper Table 1) ------------------------------------
    COMMIT_REQUEST = "commit_request"
    G = "g"
    G_FAILURE = "g_failure"
    G_SUCCESS = "g_success"
    COMMIT_FAILURE = "commit_failure"
    COMMIT_SUCCESS = "commit_success"
    BULK_INV = "bulk_inv"
    BULK_INV_ACK = "bulk_inv_ack"
    COMMIT_DONE = "commit_done"
    COMMIT_RECALL = "commit_recall"       #: accounting only; always piggy-backed

    # --- BulkSC (centralized arbiter) -------------------------------------
    BSC_COMMIT_REQ = "bsc_commit_req"     #: Proc -> Arbiter, carries (R, W)
    BSC_OK = "bsc_ok"                     #: Arbiter -> Proc: permission granted
    BSC_NACK = "bsc_nack"                 #: Arbiter -> Proc: retry later
    BSC_W_TO_DIR = "bsc_w_to_dir"         #: Arbiter -> Dir(s): W for state update
    BSC_DIR_DONE = "bsc_dir_done"         #: Dir -> Arbiter: state updated

    # --- Scalable TCC ------------------------------------------------------
    TID_REQ = "tid_req"                   #: Proc -> central TID vendor
    TID_GRANT = "tid_grant"               #: vendor -> Proc
    TCC_PROBE = "tcc_probe"               #: Proc -> Dir in R/W set
    TCC_SKIP = "tcc_skip"                 #: Proc -> every other Dir (broadcast!)
    TCC_MARK = "tcc_mark"                 #: Proc -> Dir, one per written line
    TCC_INV = "tcc_inv"                   #: Dir -> sharer Proc
    TCC_INV_ACK = "tcc_inv_ack"           #: Proc -> Dir
    TCC_DIR_DONE = "tcc_dir_done"         #: Dir -> Proc: this dir finished TID
    TCC_COMMIT_DONE = "tcc_commit_done"   #: Proc -> Dir(s): release

    # --- SEQ (SEQ-PRO) -------------------------------------------------------
    SEQ_OCCUPY = "seq_occupy"             #: Proc -> Dir: occupy in ascending order
    SEQ_GRANT = "seq_grant"               #: Dir -> Proc
    SEQ_COMMIT = "seq_commit"             #: Proc -> Dir(s): all occupied, commit
    SEQ_INV = "seq_inv"                   #: Dir -> sharer Proc
    SEQ_INV_ACK = "seq_inv_ack"           #: Proc -> Dir
    SEQ_DONE = "seq_done"                 #: Dir -> Proc: this module finished
    SEQ_RELEASE = "seq_release"           #: Proc -> Dir: free the module (abort)


#: Byte sizes.  Signature-carrying messages are "large"; control messages
#: are small; data replies carry one 32 B line + header.  Signatures are
#: 2 Kbit registers but travel *compressed* (the paper: "the compressed R
#: and W signatures ... are sent to the directory modules"); at chunk
#: densities run-length coding lands around 3x compression.
HEADER_BYTES = 8
SIGNATURE_BYTES = 96           # 2 Kbit, compressed on the wire
LINE_BYTES = 32

_SIG_CARRIERS = {
    MessageType.COMMIT_REQUEST: 2 * SIGNATURE_BYTES + HEADER_BYTES,  # R and W
    MessageType.BULK_INV: SIGNATURE_BYTES + HEADER_BYTES,
    MessageType.BSC_COMMIT_REQ: 2 * SIGNATURE_BYTES + HEADER_BYTES,
    MessageType.BSC_W_TO_DIR: SIGNATURE_BYTES + HEADER_BYTES,
}

#: Data replies carry one line; each is its own read class.
_DATA_CARRIERS = {
    MessageType.DATA_FROM_MEM: TrafficClass.MEM_RD,
    MessageType.DATA_FROM_SHARER: TrafficClass.REMOTE_SH_RD,
    MessageType.DATA_FROM_OWNER: TrafficClass.REMOTE_DIRTY_RD,
}

_COMMIT_TYPES = {
    MessageType.COMMIT_REQUEST, MessageType.G, MessageType.G_FAILURE,
    MessageType.G_SUCCESS, MessageType.COMMIT_FAILURE, MessageType.COMMIT_SUCCESS,
    MessageType.BULK_INV, MessageType.BULK_INV_ACK, MessageType.COMMIT_DONE,
    MessageType.COMMIT_RECALL, MessageType.BULK_INV_NACK,
    MessageType.BSC_COMMIT_REQ, MessageType.BSC_OK, MessageType.BSC_NACK,
    MessageType.BSC_W_TO_DIR, MessageType.BSC_DIR_DONE,
    MessageType.TID_REQ, MessageType.TID_GRANT, MessageType.TCC_PROBE,
    MessageType.TCC_SKIP, MessageType.TCC_MARK, MessageType.TCC_INV,
    MessageType.TCC_INV_ACK, MessageType.TCC_DIR_DONE, MessageType.TCC_COMMIT_DONE,
    MessageType.SEQ_OCCUPY, MessageType.SEQ_GRANT, MessageType.SEQ_INV,
    MessageType.SEQ_INV_ACK, MessageType.SEQ_RELEASE, MessageType.SEQ_COMMIT,
    MessageType.SEQ_DONE,
}


def _set_type_constants() -> None:
    """Fill in every member's ``size``, ``tclass``, ``is_commit`` and
    ``index``: the one place the size and traffic-class rules live."""
    for index, mtype in enumerate(MessageType):
        mtype.index = index
        mtype.is_commit = mtype in _COMMIT_TYPES
        if mtype in _SIG_CARRIERS:
            mtype.size = _SIG_CARRIERS[mtype]
            mtype.tclass = TrafficClass.LARGE_COMMIT
        elif mtype in _DATA_CARRIERS:
            mtype.size = LINE_BYTES + HEADER_BYTES
            mtype.tclass = _DATA_CARRIERS[mtype]
        else:
            mtype.size = HEADER_BYTES + 8
            # Miss-request and forward messages are OTHER: replies carry
            # the read class; the figure renderer folds OTHER into the
            # read class of the reply stream.
            mtype.tclass = (TrafficClass.SMALL_COMMIT if mtype.is_commit
                            else TrafficClass.OTHER)


_set_type_constants()


def default_size_bytes(mtype: MessageType) -> int:
    """Wire size of a message of the given type."""
    return mtype.size


def traffic_class_of(mtype: MessageType) -> TrafficClass:
    """Map a message type to the paper's Fig. 18/19 traffic class."""
    return mtype.tclass


#: The three addressable roles on the NoC — processor engine, directory
#: module, centralized agent (BulkSC arbiter / TCC TID vendor).  Protocol
#: specs (:mod:`repro.protocols.spec`) and the SB6xx flow analysis use
#: these names; they match :class:`NodeRef.kind`.
ROLES: Tuple[str, ...] = ("core", "dir", "agent")


class NodeRef(NamedTuple):
    """Addressable endpoint on the NoC.

    ``kind`` is ``"core"``, ``"dir"`` or ``"agent"`` (central arbiter / TID
    vendor).  Cores and directories with the same index share a tile.
    """

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


#: index -> the one ``NodeRef`` of that kind, built on first use, so a
#: handler that addresses a reply builds nothing.
_CORE_NODES: Dict[int, NodeRef] = {}
_DIR_NODES: Dict[int, NodeRef] = {}


def core_node(i: int) -> NodeRef:
    node = _CORE_NODES.get(i)
    if node is None:
        node = _CORE_NODES[i] = NodeRef("core", i)
    return node


def dir_node(i: int) -> NodeRef:
    node = _DIR_NODES.get(i)
    if node is None:
        node = _DIR_NODES[i] = NodeRef("dir", i)
    return node


def arbiter_node(center_tile: int) -> NodeRef:
    """The centralized agent (BulkSC arbiter / TCC TID vendor)."""
    return NodeRef("agent", center_tile)


_msg_counter = itertools.count()


class Message:
    """One packet on the NoC.

    A plain ``__slots__`` class: the per-message path pays for one
    ``__init__`` frame and nothing else.  ``size_bytes`` (when not given)
    and ``traffic_class`` come from the type's constants, ``uid`` is
    unique and increasing per process, and ``sent_at`` is stamped by
    ``Network.send``.  Messages compare by identity.
    """

    __slots__ = ("mtype", "src", "dst", "ctag", "payload", "size_bytes",
                 "traffic_class", "uid", "sent_at")

    def __init__(self, mtype: MessageType, src: NodeRef, dst: NodeRef,
                 ctag: Optional[object] = None,
                 payload: Optional[Dict[str, Any]] = None,
                 size_bytes: int = 0) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.ctag = ctag                    #: chunk tag this message concerns
        self.payload = {} if payload is None else payload
        self.size_bytes = size_bytes or mtype.size
        self.traffic_class = mtype.tclass
        self.uid = next(_msg_counter)
        self.sent_at = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Message({self.mtype.value}, {self.src}->{self.dst}, "
                f"ctag={self.ctag})")


#: A bound message handler, as a role's dispatch table holds it.
Handler = Callable[[Message], None]


def handler_names(cls: type, replaced: Optional[Dict[type, Dict[str, str]]]
                  = None) -> Dict[str, str]:
    """The ``HANDLERS`` literals of ``cls`` and its bases, merged base
    first: message type name -> handler method name.

    Every protocol role (processor engine, directory module, central
    agent) declares the types it receives as a class-level ``HANDLERS``
    dict of plain strings.  A subclass adds to (or overrides) its bases'
    entries.  The static flow pass reads the same literals without
    importing anything (SB604 checks they are well formed).
    ``replaced`` maps a class to a table read in place of its own (a
    seeded mutation's doctored table)."""
    names: Dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        if replaced and klass in replaced:
            names.update(replaced[klass])
        else:
            names.update(vars(klass).get("HANDLERS", {}))
    return names


def bind_handlers(endpoint: Any,
                  names: Optional[Dict[str, str]] = None) -> List[Handler]:
    """``endpoint``'s dispatch table: one bound method per
    ``MessageType.index``, so a delivery costs one list lookup.

    ``names`` defaults to :func:`handler_names` of the endpoint's class.
    A type with no entry dispatches to the shared unknown-type error.
    Methods are bound now: rebinding one on the instance later (a seeded
    mutation) needs a fresh table."""
    if names is None:
        names = handler_names(type(endpoint))
    table: List[Handler] = [partial(
        _unhandled, f"{type(endpoint).__name__} at {endpoint.node}")
    ] * len(MessageType)
    for mtype, method in names.items():
        table[MessageType[mtype].index] = getattr(endpoint, method)
    return table


def _unhandled(role: str, msg: Message) -> None:
    """Every role's answer to a message type it declares no handler for."""
    raise NotImplementedError(f"{role} cannot handle {msg.mtype}")


SCALABLEBULK_TABLE1_TYPES = (
    MessageType.COMMIT_REQUEST, MessageType.G, MessageType.G_FAILURE,
    MessageType.G_SUCCESS, MessageType.COMMIT_FAILURE,
    MessageType.COMMIT_SUCCESS, MessageType.BULK_INV,
    MessageType.BULK_INV_ACK, MessageType.COMMIT_DONE,
    MessageType.COMMIT_RECALL,
)

#: Types that never travel as standalone packets: each rides as a payload
#: flag on the listed carrier types (zero extra network cost; the type
#: exists for Table 1 accounting).  The flow analysis reads this mapping
#: statically: a piggy-backed type is exempt from SB004 (orphan type) and
#: SB601/SB602 as long as every one of its carriers is actually sent — and
#: conversely it is a finding if it ever appears on the wire as its own
#: packet.
PIGGYBACKED_TYPES: Dict[MessageType, Tuple[MessageType, ...]] = {
    MessageType.COMMIT_RECALL: (MessageType.BULK_INV_ACK,
                                MessageType.COMMIT_DONE),
}

#: Per-family message vocabulary: which types belong to each protocol's
#: conversation (plus the shared coherence substrate).  The SB6xx flow
#: analysis scopes each family's extracted automaton to its own types —
#: this mapping, like ``PIGGYBACKED_TYPES``, is read statically from this
#: module's source so fixture overrides see their own vocabulary.  Every
#: declared type that is not piggy-backed must belong to some family, or
#: SB004 flags it.  The
#: BULK_INV family (inv / ack / nack) is shared by ScalableBulk and
#: BulkSC: both drive the same bulk-invalidation sub-conversation.
FAMILY_TYPES: Dict[str, Tuple[MessageType, ...]] = {
    "scalablebulk": (
        MessageType.COMMIT_REQUEST, MessageType.G, MessageType.G_FAILURE,
        MessageType.G_SUCCESS, MessageType.COMMIT_FAILURE,
        MessageType.COMMIT_SUCCESS, MessageType.BULK_INV,
        MessageType.BULK_INV_ACK, MessageType.BULK_INV_NACK,
        MessageType.COMMIT_DONE, MessageType.COMMIT_RECALL,
    ),
    "bulksc": (
        MessageType.BSC_COMMIT_REQ, MessageType.BSC_OK, MessageType.BSC_NACK,
        MessageType.BSC_W_TO_DIR, MessageType.BSC_DIR_DONE,
        MessageType.BULK_INV, MessageType.BULK_INV_ACK,
        MessageType.BULK_INV_NACK,
    ),
    "tcc": (
        MessageType.TID_REQ, MessageType.TID_GRANT, MessageType.TCC_PROBE,
        MessageType.TCC_SKIP, MessageType.TCC_MARK, MessageType.TCC_INV,
        MessageType.TCC_INV_ACK, MessageType.TCC_DIR_DONE,
        MessageType.TCC_COMMIT_DONE,
    ),
    "seq": (
        MessageType.SEQ_OCCUPY, MessageType.SEQ_GRANT, MessageType.SEQ_COMMIT,
        MessageType.SEQ_INV, MessageType.SEQ_INV_ACK, MessageType.SEQ_DONE,
        MessageType.SEQ_RELEASE,
    ),
    "substrate": (
        MessageType.READ_REQ, MessageType.READ_NACK,
        MessageType.DATA_FROM_MEM, MessageType.FWD_READ,
        MessageType.DATA_FROM_SHARER, MessageType.DATA_FROM_OWNER,
        MessageType.WRITEBACK,
    ),
}

__all__ = [
    "FAMILY_TYPES",
    "HEADER_BYTES",
    "Handler",
    "LINE_BYTES",
    "Message",
    "MessageType",
    "NodeRef",
    "PIGGYBACKED_TYPES",
    "ROLES",
    "SCALABLEBULK_TABLE1_TYPES",
    "SIGNATURE_BYTES",
    "TrafficClass",
    "arbiter_node",
    "bind_handlers",
    "core_node",
    "default_size_bytes",
    "dir_node",
    "handler_names",
    "traffic_class_of",
]
