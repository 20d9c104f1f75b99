"""The Chunk State Table (CST) of a ScalableBulk directory module (Fig. 6).

One entry per committing or pending chunk, holding the chunk's tag and
signatures, the group vector (``g_vec``), the accumulated invalidation
vector (``inval_vec``), the chunk's protocol state, and the three status
bits the paper names: ``l`` (leader), ``h`` (hold — admitted into the
group, set right before forwarding ``g``) and ``c`` (confirmed — group
successfully formed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.signatures.bulk_signature import BulkSignature, chunks_collide

#: A commit instance: (chunk tag, retry attempt number).  Retries after a
#: group-formation failure are distinct protocol conversations.
CommitId = Tuple[object, int]


class ChunkCommitState(enum.Enum):
    PENDING = "pending"      #: waiting for (R,W) and/or g
    HELD = "held"            #: admitted; g forwarded (h bit set)
    CONFIRMED = "confirmed"  #: group formed (c bit set)


@dataclass
class CstEntry:
    """One CST row."""

    cid: CommitId
    dir_id: int

    # filled by the commit_request message
    proc: int = -1
    r_sig: Optional[BulkSignature] = None
    w_sig: Optional[BulkSignature] = None
    order: Tuple[int, ...] = ()            #: the shipped g_vec traversal order
    write_lines: frozenset = frozenset()   #: chunk's full write-set (lines)

    # local state
    state: ChunkCommitState = ChunkCommitState.PENDING
    got_request: bool = False
    expanded: bool = False                 #: W expanded against local lines
    got_g: bool = False
    local_write_lines: List[int] = field(default_factory=list)
    local_sharers: Set[int] = field(default_factory=set)
    inval_acc: Set[int] = field(default_factory=set)  #: accumulated inval_vec

    # leader-only completion tracking
    acks_expected: int = 0
    acks_received: int = 0
    recalls: List[dict] = field(default_factory=list)
    bulk_inv_payload: Optional[dict] = None  #: for conservative-nack retries
    nack_retries: int = 0                    #: jitter counter for those retries

    # ------------------------------------------------------------------
    @property
    def tag(self) -> object:
        return self.cid[0]

    @property
    def leader_here(self) -> bool:
        """The paper's ``l`` bit."""
        return bool(self.order) and self.order[0] == self.dir_id

    @property
    def held(self) -> bool:
        """The paper's ``h`` bit."""
        return self.state in (ChunkCommitState.HELD, ChunkCommitState.CONFIRMED)

    @property
    def confirmed(self) -> bool:
        """The paper's ``c`` bit."""
        return self.state is ChunkCommitState.CONFIRMED

    def ready(self) -> bool:
        """Has this module seen everything needed to advance this chunk?

        The leader is ready once it has the signature pair (expanded); a
        non-leader additionally needs the ``g`` from its predecessor.
        """
        if not (self.got_request and self.expanded):
            return False
        return self.leader_here or self.got_g

    def incompatible_with(self, other: "CstEntry") -> bool:
        """Section 3.2.1: two groups are incompatible when their W
        signatures overlap or the R of one overlaps the W of the other.

        The test works the way the directory hardware does after W
        expansion: each *expanded written line* of one chunk probes the
        other chunk's signatures (per-line membership, low false-positive
        rate), rather than a whole-signature AND (which saturates at
        realistic densities).  ``write_lines`` arrives as the requester's
        :class:`WriteSet`, so the probes reuse its cached line masks.
        """
        if self.w_sig is None or other.w_sig is None:
            return False
        return chunks_collide(self.write_lines, self.r_sig, self.w_sig,
                              other.write_lines, other.r_sig, other.w_sig)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bits = f"l={int(self.leader_here)},h={int(self.held)},c={int(self.confirmed)}"
        return f"CstEntry({self.cid}, {self.state.value}, {bits})"


__all__ = ["ChunkCommitState", "CommitId", "CstEntry"]
