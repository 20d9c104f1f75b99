"""ScalableBulk directory module: CST + group formation state machine.

Implements the message orderings of the paper's Tables 4 and 5:

* successful commit (leader): ``R:commit_request -> S:g -> R:g ->
  (S:commit_success & S:g_success* & S:bulk_inv*) -> R:bulk_inv_ack* ->
  S:commit_done*``;
* successful commit (member): ``(R:commit_request & R:g) -> S:g ->
  R:g_success -> R:commit_done``;
* failed commit, collision module: sees both messages of the losing group
  while an incompatible group is (or was, via a recall) in the way, and
  multicasts ``g_failure``; the loser's leader turns that into a
  ``commit_failure`` to the processor;
* commit recall (OCI): registered at the collision module when the
  winner's ``commit_done`` deallocates the winning W signature, firing
  ``g_failure`` the moment the squashed chunk's messages assemble.

Starvation avoidance (Section 3.2.2): after a chunk (identified by
(core, seq), across squash generations) loses ``MAX`` times, every module
that observed the failures reserves itself for that chunk and fails all
other groups until the starving chunk commits through it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.config import SystemConfig
from repro.core.cst import ChunkCommitState, CommitId, CstEntry
from repro.core.group import successor
from repro.engine.events import Simulator
from repro.memory.directory import DirectoryModule
from repro.network.message import Message, MessageType, core_node, dir_node
from repro.network.noc import Network
from repro.protocols.spec import ProtocolSpec

#: Starvation/reservation identity: a chunk across squash generations.
ChunkIdentity = Tuple[int, int]  # (core, seq)


def _identity(cid: CommitId) -> ChunkIdentity:
    tag = cid[0]
    return (tag.core, tag.seq)


def _cst_scan_key(entry: CstEntry) -> Tuple[int, int, int, int]:
    """Total order over CST entries for collision scanning: chunk tag then
    retry attempt — independent of dict insertion order."""
    tag = entry.cid[0]
    return (tag.core, tag.seq, tag.gen, entry.cid[1])


class ScalableBulkDirectory(DirectoryModule):
    """One ScalableBulk directory module (Figure 6)."""

    HANDLERS = {
        "COMMIT_REQUEST": "_on_commit_request",
        "G": "_on_g",
        "G_SUCCESS": "_on_g_success",
        "G_FAILURE": "_on_g_failure",
        "BULK_INV_ACK": "_on_bulk_inv_ack",
        "BULK_INV_NACK": "_on_bulk_inv_nack",
        "COMMIT_DONE": "_on_commit_done",
    }

    def __init__(self, dir_id: int, config: SystemConfig, sim: Simulator,
                 network: Network, protocol) -> None:
        super().__init__(dir_id, config, sim, network)
        self.protocol = protocol
        self.cst: Dict[CommitId, CstEntry] = {}
        self.failed_cids: Set[CommitId] = set()
        self.recall_watch: Set[CommitId] = set()
        self.fail_counts: Dict[ChunkIdentity, int] = {}
        self.reserved_for: Optional[ChunkIdentity] = None
        # statistics
        self.groups_formed = 0
        self.groups_failed = 0

    # ------------------------------------------------------------------
    # Primitive 1: preventing access to a set of directory entries
    # ------------------------------------------------------------------
    def read_blocked(self, line_addr: int) -> bool:
        """Nack loads that hit any live committing W signature (Fig. 2)."""
        for entry in self.cst.values():
            if entry.got_request and entry.w_sig.contains(line_addr):
                return True
        return False

    # ------------------------------------------------------------------
    # commit_request: (R, W, g_vec) arrives from the processor
    # ------------------------------------------------------------------
    def _on_commit_request(self, msg: Message) -> None:
        cid: CommitId = msg.ctag
        if cid in self.failed_cids:
            return  # already failed here before the request arrived
        entry = self.cst.get(cid)
        if entry is None:
            entry = CstEntry(cid=cid, dir_id=self.dir_id)
            self.cst[cid] = entry
        entry.got_request = True
        entry.proc = msg.payload["proc"]
        entry.r_sig = msg.payload["r_sig"]
        entry.w_sig = msg.payload["w_sig"]
        entry.order = msg.payload["order"]
        entry.write_lines = msg.payload["write_lines"]
        # Signature expansion: find locally homed written lines and their
        # sharers.  This happens in parallel across modules, typically off
        # the critical path (Section 3.2.1).  Per-line state work scales
        # with the locally homed share of the write-set.
        local_share = max(1, len(entry.write_lines) // max(1, len(entry.order)))
        delay = (self.config.signature_expand_cycles
                 + self.config.dir_line_update_cycles * local_share // 2)
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        self.sim.schedule(delay, lambda: self._expansion_done(cid))

    def _expansion_done(self, cid: CommitId) -> None:
        entry = self.cst.get(cid)
        if entry is None:
            return  # failed while expanding
        entry.expanded = True
        entry.local_write_lines = self.protocol.lines_homed_at(
            entry.write_lines, self.dir_id)
        entry.local_sharers = self.sharers_to_invalidate(
            entry.local_write_lines, entry.proc)
        self._maybe_advance(entry)

    # ------------------------------------------------------------------
    # g: grab message from the predecessor in the group
    # ------------------------------------------------------------------
    def _on_g(self, msg: Message) -> None:
        cid: CommitId = msg.ctag
        if cid in self.failed_cids:
            return
        entry = self.cst.get(cid)
        if entry is None:
            entry = CstEntry(cid=cid, dir_id=self.dir_id)
            entry.order = msg.payload["order"]
            self.cst[cid] = entry
        if entry.leader_here and entry.held:
            # The g came back around the ring: the group is formed.
            entry.inval_acc |= msg.payload["inval_vec"]
            self._confirm_group(entry)
            return
        entry.got_g = True
        entry.inval_acc |= msg.payload["inval_vec"]
        if not entry.order:
            entry.order = msg.payload["order"]
        if self.obs.enabled:
            self.obs.grab_recv(self.sim.now, self.dir_id, cid)
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        self._maybe_advance(entry)

    # ------------------------------------------------------------------
    # The admission decision (the collision rule)
    # ------------------------------------------------------------------
    def _maybe_advance(self, entry: CstEntry) -> None:
        if entry.held or not entry.ready():
            return

        # OCI recall registered before this chunk's messages assembled.
        if entry.cid in self.recall_watch:
            self.recall_watch.discard(entry.cid)
            self._fail_group(entry)
            return

        # Starvation reservation: behave as if the requester lost.  The
        # rejection is a deliberate deferral, not a collision, so it does
        # not count toward the loser's own starvation tally.
        if (self.reserved_for is not None
                and _identity(entry.cid) != self.reserved_for):
            self._fail_group(entry, genuine=False)
            return

        # Collision rule: this module already irrevocably chose any group
        # it holds; an incompatible newcomer loses here and now.  The scan
        # order is irrelevant to the outcome (the newcomer loses whichever
        # held entry it collides with first), but it must still be explicit
        # so event order never depends on dict insertion order.
        for other in sorted(self.cst.values(), key=_cst_scan_key):
            if other is entry or not other.held:
                continue
            if self._collides(entry, other):
                self.protocol.stats.group_collisions += 1
                self._fail_group(entry)
                return

        # Admit: set the h bit and pass the grab onward.
        entry.state = ChunkCommitState.HELD
        self._after_admit(entry)

    def _collides(self, entry: CstEntry, other: CstEntry) -> bool:
        """The admission-time incompatibility test (Section 3.2.1).

        Its own method so host-time attribution can scope it: the
        profiler's ``cst.conflict`` scope wraps it per instance."""
        return entry.incompatible_with(other)

    def _after_admit(self, entry: CstEntry) -> None:
        entry.inval_acc |= entry.local_sharers
        if entry.leader_here and len(entry.order) == 1:
            if self.obs.enabled:
                self.obs.grab_admit(self.sim.now, self.dir_id, entry.cid,
                                    None)
            self._confirm_group(entry)
            return
        nxt = successor(entry.order, self.dir_id)
        if self.obs.enabled:
            self.obs.grab_admit(self.sim.now, self.dir_id, entry.cid, nxt)
        self.network.unicast(
            MessageType.G, self.node, dir_node(nxt), ctag=entry.cid,
            inval_vec=set(entry.inval_acc), order=entry.order,
        )

    # ------------------------------------------------------------------
    # Group formed (leader)
    # ------------------------------------------------------------------
    def _confirm_group(self, entry: CstEntry) -> None:
        entry.state = ChunkCommitState.CONFIRMED
        self.groups_formed += 1
        if self.obs.enabled:
            self.obs.group_formed(self.sim.now, self.dir_id, entry.cid,
                                  entry.proc, entry.order, entry.write_lines,
                                  entry.inval_acc | entry.local_sharers)
        members = [d for d in entry.order if d != self.dir_id]
        if members:
            self.network.multicast(
                MessageType.G_SUCCESS, self.node,
                [dir_node(d) for d in members], ctag=entry.cid)
        self.apply_commit(entry.local_write_lines, entry.proc)
        self.protocol.stats.attempt_group_formed(entry.cid)

        self.network.unicast(
            MessageType.COMMIT_SUCCESS, self.node, core_node(entry.proc),
            ctag=entry.cid)

        targets = sorted(entry.inval_acc - {entry.proc})
        entry.acks_expected = len(targets)
        entry.bulk_inv_payload = {
            "w_sig": entry.w_sig,
            "write_lines": entry.write_lines,
            "winner_order": entry.order,
            "leader": self.dir_id,
        }
        for proc in targets:
            self.network.unicast(
                MessageType.BULK_INV, self.node, core_node(proc),
                ctag=entry.cid, **entry.bulk_inv_payload)
        if entry.acks_expected == 0:
            self._finish_commit(entry)

    def _on_g_success(self, msg: Message) -> None:
        entry = self.cst.get(msg.ctag)
        if entry is None:
            return
        entry.state = ChunkCommitState.CONFIRMED
        self.apply_commit(entry.local_write_lines, entry.proc)

    # ------------------------------------------------------------------
    # Invalidation acks and completion (leader)
    # ------------------------------------------------------------------
    def _on_bulk_inv_ack(self, msg: Message) -> None:
        entry = self.cst.get(msg.ctag)
        if entry is None:
            return
        entry.acks_received += 1
        recall = msg.payload.get("recall")
        if recall is not None:
            entry.recalls.append(recall)
        if entry.acks_received >= entry.acks_expected:
            self._finish_commit(entry)

    def _on_bulk_inv_nack(self, msg: Message) -> None:
        """A conservative (non-OCI) processor bounced our invalidation."""
        entry = self.cst.get(msg.ctag)
        if entry is None:
            return
        self.protocol.stats.bulk_inv_nacks += 1
        proc = msg.payload["proc"]
        if self.obs.enabled:
            self.obs.dir_nack(self.sim.now, self.dir_id, msg.ctag, proc)
        entry.nack_retries += 1
        base = self.config.nack_retry_backoff_cycles
        jitter = (entry.nack_retries * 11 + self.dir_id * 5) % (2 * base)
        self.sim.schedule(base + jitter,
                          lambda: self._resend_bulk_inv(msg.ctag, proc))

    def _resend_bulk_inv(self, cid: CommitId, proc: int) -> None:
        entry = self.cst.get(cid)
        if entry is None or entry.bulk_inv_payload is None:
            return
        self.network.unicast(
            MessageType.BULK_INV, self.node, core_node(proc),
            ctag=cid, **entry.bulk_inv_payload)

    def _finish_commit(self, entry: CstEntry) -> None:
        """All acks in: release the group and route any recalls (Fig. 5b)."""
        if self.obs.enabled:
            self.obs.commit_finished(self.sim.now, self.dir_id, entry.cid)
        members = [d for d in entry.order if d != self.dir_id]
        if members:
            self.network.multicast(
                MessageType.COMMIT_DONE, self.node,
                [dir_node(d) for d in members], ctag=entry.cid,
                recalls=list(entry.recalls))
        self._deallocate_after_commit(entry, entry.recalls)

    def _on_commit_done(self, msg: Message) -> None:
        entry = self.cst.pop(msg.ctag, None)
        if entry is None:
            return
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        self._release_reservation(entry.cid)
        for recall in msg.payload.get("recalls", ()):
            if recall.get("collision_dir") == self.dir_id:
                self._handle_recall(recall["failed_cid"])

    def _deallocate_after_commit(self, entry: CstEntry, recalls) -> None:
        self.cst.pop(entry.cid, None)
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        self._release_reservation(entry.cid)
        for recall in recalls:
            if recall.get("collision_dir") == self.dir_id:
                self._handle_recall(recall["failed_cid"])

    def _release_reservation(self, cid: CommitId) -> None:
        ident = _identity(cid)
        if self.reserved_for == ident:
            self.reserved_for = None
        self.fail_counts.pop(ident, None)

    # ------------------------------------------------------------------
    # Failure paths
    # ------------------------------------------------------------------
    def _fail_group(self, entry: CstEntry, genuine: bool = True) -> None:
        """This module is the Collision module for ``entry``'s group.

        ``genuine`` distinguishes real collisions (which every member
        counts toward the starvation threshold) from reservation-induced
        deferrals (which must not, or reservations would feed each other
        into machine-wide gridlock).
        """
        self.groups_failed += 1
        cid = entry.cid
        if self.obs.enabled:
            self.obs.group_failed(self.sim.now, self.dir_id, cid, entry.proc,
                                  genuine, entry.leader_here)
        self.cst.pop(cid, None)
        self.failed_cids.add(cid)
        # A pending OCI watch for a now-failed cid can never fire again
        # (failed_cids gates every later arrival): drop it here instead of
        # letting it accumulate for the rest of the run.
        self.recall_watch.discard(cid)
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        if genuine:
            self._note_failure(cid)
        members = [d for d in entry.order if d != self.dir_id]
        if members:
            self.network.multicast(
                MessageType.G_FAILURE, self.node,
                [dir_node(d) for d in members], ctag=cid, genuine=genuine)
        if entry.leader_here:
            # Table 4: the collision module is the leader itself.
            self.network.unicast(
                MessageType.COMMIT_FAILURE, self.node,
                core_node(entry.proc), ctag=cid)

    def _on_g_failure(self, msg: Message) -> None:
        cid: CommitId = msg.ctag
        self.failed_cids.add(cid)
        self.recall_watch.discard(cid)
        if msg.payload.get("genuine", True):
            self._note_failure(cid)
        entry = self.cst.pop(cid, None)
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id, len(self.cst))
        if entry is not None and entry.leader_here and entry.got_request:
            self.network.unicast(
                MessageType.COMMIT_FAILURE, self.node,
                core_node(entry.proc), ctag=cid)

    def _note_failure(self, cid: CommitId) -> None:
        """Starvation bookkeeping: every member sees every squash."""
        ident = _identity(cid)
        count = self.fail_counts.get(ident, 0) + 1
        self.fail_counts[ident] = count
        max_squashes = self.config.starvation_max_squashes
        if count >= max_squashes and self.reserved_for is None:
            self.reserved_for = ident
            self.protocol.stats.reservations += 1
        elif ident == self.reserved_for and count >= 3 * max_squashes:
            # The reserved chunk keeps losing at *other* (also reserved)
            # modules: release so that cross-reserved groups cannot block
            # each other forever.  (The paper assumes all members reserve
            # for the same chunk; with several starving chunks sharing
            # modules this back-off restores progress.)
            self.reserved_for = None
            self.fail_counts[ident] = 0

    # ------------------------------------------------------------------
    # OCI commit recall (Section 3.4)
    # ------------------------------------------------------------------
    def _handle_recall(self, failed_cid: CommitId) -> None:
        self.protocol.stats.commit_recalls += 1
        if failed_cid in self.failed_cids:
            return  # g_failure already sent; discard the recall
        entry = self.cst.get(failed_cid)
        if entry is not None and entry.ready() and not entry.held:
            self._fail_group(entry)
        elif entry is not None and entry.held:
            # Should be unreachable: the winner held every common module,
            # so the loser cannot be held here.  Fail it defensively.
            self._fail_group(entry)
        else:
            # Be on the lookout: fail the group when its messages assemble.
            self.recall_watch.add(failed_cid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ScalableBulkDirectory(id={self.dir_id}, "
                f"cst={len(self.cst)}, reserved={self.reserved_for})")


#: The conversation this engine implements (paper Table 1), checked
#: against the extracted flow automaton by `repro lint` (SB6xx).
#: COMMIT_RECALL carries no edge: it is piggy-backed (PIGGYBACKED_TYPES).
PROTOCOL_SPEC = ProtocolSpec(
    family="scalablebulk",
    edges=(
        ("core", "COMMIT_REQUEST", "dir"),
        ("dir", "G", "dir"),
        ("dir", "G_SUCCESS", "dir"),
        ("dir", "G_FAILURE", "dir"),
        ("dir", "COMMIT_SUCCESS", "core"),
        ("dir", "COMMIT_FAILURE", "core"),
        ("dir", "BULK_INV", "core"),
        ("core", "BULK_INV_ACK", "dir"),
        ("core", "BULK_INV_NACK", "dir"),
        ("dir", "COMMIT_DONE", "dir"),
    ),
    replies={
        "COMMIT_REQUEST": ("COMMIT_SUCCESS", "COMMIT_FAILURE"),
        "G": ("G_SUCCESS", "G_FAILURE"),
        "BULK_INV": ("BULK_INV_ACK", "BULK_INV_NACK"),
    },
    retries=("BULK_INV_NACK",),
)

__all__ = ["PROTOCOL_SPEC", "ScalableBulkDirectory"]
