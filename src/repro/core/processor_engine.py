"""ScalableBulk per-processor engine: commit requests, OCI, commit recall.

With Optimistic Commit Initiation (Section 3.3) the processor keeps
consuming incoming bulk invalidations while its own commit request is in
flight.  If an invalidation kills the in-flight chunk, the engine squashes
it immediately and piggy-backs a *commit recall* — naming the collision
module of its failed group — on the invalidation ack (Figure 4(d)); the
eventual ``commit_failure`` for the dead chunk is discarded.

With OCI disabled (the conservative BulkSC-style behaviour of Figure 4(c))
the processor nacks bulk invalidations while it awaits its commit outcome;
the winner's leader retries the invalidation until it is consumed.

One corner the paper does not spell out: a bulk invalidation can hit the
in-flight chunk purely through signature aliasing, with the two groups
sharing *no* directory module — then there is no collision module to
recall through, but also no true conflict (a real conflict implies a
common home directory).  The engine marks the chunk *squash-pending* and
resolves on the commit outcome: success means the chunks really were
disjoint (commit stands); failure finalizes the squash.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.cst import CommitId
from repro.core.group import collision_module, order_gvec
from repro.cpu.chunk import Chunk, ChunkState
from repro.network.message import Message, MessageType, dir_node
from repro.protocols.base import ProcessorEngine


class ScalableBulkEngine(ProcessorEngine):
    """Processor-side half of the ScalableBulk protocol."""

    def __init__(self, protocol, core) -> None:
        super().__init__(protocol, core)
        self._current_cid: Optional[CommitId] = None
        self._current_chunk: Optional[Chunk] = None
        self._pending_squash_lines: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Commit request
    # ------------------------------------------------------------------
    def send_commit_request(self, chunk: Chunk) -> None:
        cid: CommitId = (chunk.tag, chunk.commit_failures)
        self._current_cid = cid
        self._current_chunk = chunk
        order = order_gvec(chunk.dirs, self.config.n_directories,
                           self.protocol.priority_offset())
        chunk.commit_order = order  # stashed for recall computation
        write_lines = chunk.frozen_write_set()
        for d in order:
            self.network.unicast(
                MessageType.COMMIT_REQUEST, self.node, dir_node(d), ctag=cid,
                proc=self.core.core_id, r_sig=chunk.r_sig, w_sig=chunk.w_sig,
                order=order, write_lines=write_lines,
            )

    @property
    def awaiting_outcome(self) -> bool:
        return self._current_cid is not None

    def _clear_current(self) -> None:
        self._current_cid = None
        self._current_chunk = None
        self._pending_squash_lines = None

    # ------------------------------------------------------------------
    # Protocol messages
    # ------------------------------------------------------------------
    def handle_protocol_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MessageType.COMMIT_SUCCESS:
            self._on_commit_success(msg)
        elif mtype is MessageType.COMMIT_FAILURE:
            self._on_commit_failure(msg)
        elif mtype is MessageType.BULK_INV:
            self._on_bulk_inv(msg)
        else:
            raise NotImplementedError(f"unexpected {mtype} at processor")

    def _on_commit_success(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return  # stale (e.g. success raced a recall-squash)
        chunk = self._current_chunk
        if chunk.squash_pending:
            # Aliasing with no common directory: the sets were truly
            # disjoint and the commit stands; the provisional squash dies.
            chunk.squash_pending = False
        self._clear_current()
        self.finish_commit_success(chunk)

    def _on_commit_failure(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return  # OCI: failure for an already-recalled chunk — discard
        chunk = self._current_chunk
        self._clear_current()
        if chunk.state is not ChunkState.COMMITTING:
            return
        if chunk.squash_pending:
            # Deferred (aliasing) squash becomes final.
            chunk.squash_pending = False
            self.stats.attempt_finished(msg.ctag, success=False)
            self.squash(chunk, self._pending_lines_or_empty())
            return
        self.retry_commit_later(chunk)

    def _pending_lines_or_empty(self) -> Set[int]:
        return self._pending_squash_lines or set()

    # ------------------------------------------------------------------
    # Bulk invalidation: cache kill + chunk disambiguation (+ OCI)
    # ------------------------------------------------------------------
    def _on_bulk_inv(self, msg: Message) -> None:
        leader = msg.payload["leader"]
        if not self.config.oci and self.awaiting_outcome:
            # Conservative protocol (Fig. 4(c)): bounce until our own
            # commit outcome arrives.
            self.network.unicast(
                MessageType.BULK_INV_NACK, self.node, dir_node(leader),
                ctag=msg.ctag, proc=self.core.core_id)
            return

        write_lines = self.protocol.sig_factory.write_set(
            msg.payload["write_lines"])
        winner_order = msg.payload["winner_order"]
        self.core.apply_invalidation(write_lines)

        recall = None
        victim = self.find_inv_conflict(write_lines)
        if victim is not None:
            head = self._current_chunk
            if head is not None and victim is head and self.awaiting_outcome:
                recall = self._squash_in_flight(head, write_lines, winner_order)
            else:
                self.squash(victim, write_lines)

        self.network.unicast(
            MessageType.BULK_INV_ACK, self.node, dir_node(leader),
            ctag=msg.ctag, recall=recall)

    def _squash_in_flight(self, head: Chunk, write_lines: Set[int],
                          winner_order) -> Optional[dict]:
        """OCI: the invalidation killed the chunk we are committing."""
        failed_cid = self._current_cid
        coll = collision_module(head.commit_order, winner_order)
        if coll is None:
            # No common module: defer (see module docstring).
            head.squash_pending = True
            self._pending_squash_lines = set(write_lines)
            self._check_younger_conflicts(write_lines)
            return None
        if self.obs.enabled:
            self.obs.oci_recall(self.sim.now, self.core.core_id,
                                failed_cid, coll)
        self.stats.attempt_finished(failed_cid, success=False)
        self.squash(head, write_lines)
        self._clear_current()
        return {"failed_cid": failed_cid, "collision_dir": coll}

    def _check_younger_conflicts(self, write_lines: Set[int]) -> None:
        """While the head squash is pending, younger chunks still squash."""
        for chunk in self.core.active_chunks()[1:]:
            if chunk.hit_by_invalidation(write_lines):
                self.squash(chunk, write_lines)
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ScalableBulkEngine(core={self.core.core_id}, "
                f"inflight={self._current_cid})")


__all__ = ["ScalableBulkEngine"]
