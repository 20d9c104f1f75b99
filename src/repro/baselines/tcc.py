"""Scalable TCC (Table 3, row 2).

Commit sequence, per Section 2.1 of the paper:

1. the committing processor obtains a transaction ID (TID) from a
   centralized agent;
2. it sends a *probe* to every directory in the chunk's read/write-sets
   and a *skip* to every other directory in the machine (a broadcast);
3. it sends one *mark* per written cache line to that line's home
   directory.

Each directory processes TIDs strictly in ascending order: a probe for TID
t can only be serviced after every TID below t has been probed-or-skipped
there, and while a directory services one commit (invalidations + acks) it
services nothing else.  Two chunks that touch the same directory therefore
serialize even when their addresses are disjoint — the limitation
ScalableBulk removes.

Model simplifications (documented in DESIGN.md): once a processor holds a
TID, an incoming conflicting invalidation still squashes its chunk; probed
directories that have not yet reached the TID treat the abort notice as a
skip, and any directory that already applied the chunk's marks keeps the
(value-free) directory state — a second-order effect for a baseline.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import Chunk, ChunkState
from repro.cpu.core import Core
from repro.memory.directory import DirectoryModule
from repro.network.message import (
    Message, MessageType, arbiter_node, core_node, dir_node,
)
from repro.protocols.base import Protocol, ProcessorEngine
from repro.protocols.spec import ProtocolSpec


class TidVendor:
    """The centralized TID agent: a serial FIFO counter service."""

    def __init__(self, protocol: "ScalableTCCProtocol") -> None:
        self.protocol = protocol
        self.config = protocol.config
        self.sim = protocol.sim
        self.network = protocol.network
        center = self.network.topology.center_tile()
        self.node = arbiter_node(center)
        self.network.register(self.node, self.handle_message)
        self._next_tid = 1
        self._busy_until = 0
        self.grants = 0

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is not MessageType.TID_REQ:
            raise NotImplementedError(f"TID vendor cannot handle {msg.mtype}")
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.config.tid_vendor_service_cycles
        proc = msg.payload["proc"]
        cid = msg.ctag
        self.sim.schedule(self._busy_until - self.sim.now,
                          lambda: self._grant(cid, proc))

    def _grant(self, cid, proc: int) -> None:
        tid = self._next_tid
        self._next_tid += 1
        self.grants += 1
        self.network.unicast(MessageType.TID_GRANT, self.node,
                             core_node(proc), ctag=cid, tid=tid)


class TCCDirectory(DirectoryModule):
    """Directory under Scalable TCC: strict in-TID-order commit service."""

    def __init__(self, dir_id: int, config: SystemConfig, sim, network,
                 protocol) -> None:
        super().__init__(dir_id, config, sim, network)
        self.protocol = protocol
        self.expected_tid = 1
        #: tid -> ("probe", info) | ("skip", None); info holds cid/proc/lines
        self.pending: Dict[int, Tuple[str, Optional[dict]]] = {}
        self.marks: Dict[object, List[int]] = {}  #: cid -> written lines here
        self.busy_with: Optional[int] = None      #: tid being serviced
        self._active: Optional[dict] = None
        self._aborted_tids: Set[int] = set()
        self._waiting_for_marks: Optional[dict] = None
        self._service_overhead = 0
        self.commits_serviced = 0

    # ------------------------------------------------------------------
    def read_blocked(self, line_addr: int) -> bool:
        if self._active is None:
            return False
        return line_addr in self._active["lines"]

    def queued_cids(self) -> Set[object]:
        """Probes waiting for their TID's turn (chunk-queue metric)."""
        out = set()
        for tid, (kind, info) in self.pending.items():
            if kind == "probe" and tid != self.busy_with:
                out.add(info["cid"])
        return out

    # ------------------------------------------------------------------
    def handle_protocol_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MessageType.TCC_PROBE:
            self._on_probe(msg)
        elif mtype is MessageType.TCC_SKIP:
            self._on_skip(msg)
        elif mtype is MessageType.TCC_MARK:
            self.marks.setdefault(msg.ctag, []).append(msg.payload["line"])
            if (self._waiting_for_marks is not None
                    and self._waiting_for_marks["cid"] == msg.ctag):
                self.busy_with = None
                self._begin_service(self._waiting_for_marks)
        elif mtype is MessageType.TCC_INV_ACK:
            self._on_inv_ack(msg)
        elif mtype is MessageType.TCC_COMMIT_DONE:
            self._on_abort(msg)
        else:
            raise NotImplementedError(f"unexpected {mtype} at TCC dir")

    def _on_probe(self, msg: Message) -> None:
        tid = msg.payload["tid"]
        if tid in self._aborted_tids:
            self.pending[tid] = ("skip", None)
        else:
            info = {"cid": msg.ctag, "proc": msg.payload["proc"], "tid": tid,
                    "n_marks": msg.payload.get("n_marks", 0)}
            self.pending[tid] = ("probe", info)
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id,
                                   len(self.queued_cids()))
        self._advance()

    def _on_skip(self, msg: Message) -> None:
        self.pending[msg.payload["tid"]] = ("skip", None)
        self._advance()

    def _on_abort(self, msg: Message) -> None:
        """The processor aborted: treat its TID as a skip if still pending."""
        tid = msg.payload["tid"]
        if self.busy_with == tid:
            if (self._waiting_for_marks is not None
                    and self._waiting_for_marks["tid"] == tid):
                # Stalled waiting for marks that will never arrive.
                self._waiting_for_marks = None
                self.busy_with = None
                self._aborted_tids.add(tid)
                self.marks.pop(msg.ctag, None)
                self.expected_tid = tid + 1
                self._advance()
            return  # mid-service; it will complete as normal
        self._aborted_tids.add(tid)
        self.pending[tid] = ("skip", None)
        self.marks.pop(msg.ctag, None)
        self._advance()

    def _advance(self) -> None:
        """Service pending TIDs in order until a probe occupies us."""
        while self.busy_with is None and self.expected_tid in self.pending:
            kind, info = self.pending.pop(self.expected_tid)
            if kind == "skip":
                self.expected_tid += 1
                continue
            self._begin_service(info)

    def _begin_service(self, info: dict) -> None:
        cid = info["cid"]
        expected_marks = info.get("n_marks", 0)
        got = len(self.marks.get(cid, ()))
        if got < expected_marks:
            # Cannot service the commit until every mark message for our
            # lines has arrived; re-check when the next mark lands.
            self.busy_with = info["tid"]
            self._waiting_for_marks = info
            return
        self._waiting_for_marks = None
        self.busy_with = info["tid"]
        proc = info["proc"]
        lines = self.marks.pop(cid, [])
        # Without signatures the directory handles each marked line as a
        # separate write-transaction: look up sharers, invalidate, collect
        # the acks, then move to the next line.  (ScalableBulk's single
        # signature-driven transaction per chunk is exactly what removes
        # this serialization — Section 3.1.)
        self._active = {"cid": cid, "proc": proc, "lines": set(lines),
                        "todo": sorted(lines), "acks_left": 0,
                        "tid": info["tid"]}
        self.protocol.note_processing_started(cid)
        self.sim.schedule(self.config.dir_lookup_cycles,
                          lambda: self._service_next_line(cid))

    def _service_next_line(self, cid) -> None:
        active = self._active
        if active is None or active["cid"] != cid:
            return
        if not active["todo"]:
            self._finish_service()
            return
        line = active["todo"].pop(0)
        proc = active["proc"]
        sharers = self.sharers_to_invalidate([line], proc)
        self.apply_commit([line], proc)
        delay = self.config.dir_line_update_cycles
        if not sharers:
            self.sim.schedule(delay, lambda: self._service_next_line(cid))
            return
        active["acks_left"] = len(sharers)
        for s in sorted(sharers):
            self.network.unicast(
                MessageType.TCC_INV, self.node, core_node(s), ctag=cid,
                write_lines=(line,), committer=proc)

    def _on_inv_ack(self, msg: Message) -> None:
        if self._active is None or self._active["cid"] != msg.ctag:
            return
        self._active["acks_left"] -= 1
        if self._active["acks_left"] <= 0:
            self.sim.schedule(self.config.dir_line_update_cycles,
                              lambda cid=msg.ctag: self._service_next_line(cid))

    def _finish_service(self) -> None:
        active = self._active
        if active is None:
            return
        self._active = None
        self.busy_with = None
        self.expected_tid = active["tid"] + 1
        self.commits_serviced += 1
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id,
                                   len(self.queued_cids()))
        self.network.unicast(MessageType.TCC_DIR_DONE, self.node,
                             core_node(active["proc"]), ctag=active["cid"],
                             dir_id=self.dir_id)
        self._advance()


class TCCEngine(ProcessorEngine):
    """Processor side of Scalable TCC."""

    def __init__(self, protocol, core: Core) -> None:
        super().__init__(protocol, core)
        self._current_cid = None
        self._current_chunk: Optional[Chunk] = None
        self._tid: Optional[int] = None
        self._dirs_left: Set[int] = set()
        self._first_service_seen = False

    def starts_queued(self) -> bool:
        return False  # phase flips to COMMITTING at first directory service

    def send_commit_request(self, chunk: Chunk) -> None:
        cid = (chunk.tag, chunk.commit_failures)
        self._current_cid = cid
        self._current_chunk = chunk
        self._tid = None
        self._dirs_left = set(chunk.dirs)
        self._first_service_seen = False
        self.network.unicast(MessageType.TID_REQ, self.node,
                             self.protocol.vendor.node, ctag=cid,
                             proc=self.core.core_id)

    def handle_protocol_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MessageType.TID_GRANT:
            self._on_grant(msg)
        elif mtype is MessageType.TCC_DIR_DONE:
            self._on_dir_done(msg)
        elif mtype is MessageType.TCC_INV:
            self._on_inv(msg)
        else:
            raise NotImplementedError(f"unexpected {mtype} at TCC proc")

    def _on_grant(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            # Grant for an attempt squashed while the TID request was in
            # flight: the TID must still be resolved at every directory or
            # the whole machine stalls behind it.
            self._abort_tid(msg.ctag, msg.payload["tid"], set())
            return
        chunk = self._current_chunk
        if chunk is None or chunk.state is not ChunkState.COMMITTING:
            self._abort_tid(msg.ctag, msg.payload["tid"], set())
            return
        tid = msg.payload["tid"]
        self._tid = tid
        # Probe the participating directories, skip all others (broadcast),
        # and mark every written line at its home.
        participating = set(chunk.dirs)
        marks_by_dir = {}
        for line in sorted(chunk.write_lines):
            home = self.protocol.home_of_line(line, self.core.core_id)
            marks_by_dir.setdefault(home, []).append(line)
        for d in range(self.config.n_directories):
            if d in participating:
                self.network.unicast(MessageType.TCC_PROBE, self.node,
                                     dir_node(d), ctag=msg.ctag, tid=tid,
                                     proc=self.core.core_id,
                                     n_marks=len(marks_by_dir.get(d, ())))
            else:
                self.network.unicast(MessageType.TCC_SKIP, self.node,
                                     dir_node(d), ctag=msg.ctag, tid=tid)
        for home, lines in sorted(marks_by_dir.items()):
            for line in lines:
                self.network.unicast(MessageType.TCC_MARK, self.node,
                                     dir_node(home), ctag=msg.ctag, line=line)

    def note_processing_started(self, cid) -> None:
        """A directory began servicing our probe: the 'group formed' analog."""
        if cid == self._current_cid and not self._first_service_seen:
            self._first_service_seen = True
            if self.obs.enabled:
                chunk = self._current_chunk
                dirs, lines = ((sorted(chunk.dirs), chunk.write_lines)
                               if chunk is not None else ([], ()))
                self.obs.group_formed(self.sim.now, None, cid,
                                      self.core.core_id, dirs, lines, None)
            self.stats.attempt_group_formed(cid)

    def _on_dir_done(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return
        self._dirs_left.discard(msg.payload["dir_id"])
        if not self._dirs_left:
            chunk = self._current_chunk
            self._clear()
            self.finish_commit_success(chunk)

    def _on_inv(self, msg: Message) -> None:
        write_lines: Set[int] = set(msg.payload["write_lines"])
        self.core.apply_invalidation(write_lines)
        victim = self.find_exact_conflict(write_lines)
        if victim is not None:
            if victim is self._current_chunk:
                self._abort_current()
            self.squash(victim, write_lines)
        # The ack returns to the directory that sent the invalidation.
        self.network.unicast(MessageType.TCC_INV_ACK, self.node,
                             msg.src, ctag=msg.ctag)

    def _abort_current(self) -> None:
        """Our committing chunk was violated mid-commit: tell the dirs."""
        cid = self._current_cid
        tid = self._tid
        dirs = set(self._current_chunk.dirs) if self._current_chunk else set()
        self.stats.attempt_finished(cid, success=False)
        self._clear()
        if tid is not None:
            self._abort_tid(cid, tid, dirs)

    def _abort_tid(self, cid, tid: int, dirs: Set[int]) -> None:
        """Convert our probes into skips so directories keep advancing."""
        for d in dirs or range(self.config.n_directories):
            self.network.unicast(MessageType.TCC_COMMIT_DONE, self.node,
                                 dir_node(d), ctag=cid, tid=tid)

    def _clear(self) -> None:
        self._current_cid = None
        self._current_chunk = None
        self._tid = None
        self._dirs_left = set()


class ScalableTCCProtocol(Protocol):
    """Machine-level Scalable TCC wiring."""

    kind = ProtocolKind.TCC

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vendor: Optional[TidVendor] = None
        self.stats.queue_probe = self._queued_chunks

    def setup_agents(self) -> None:
        self.vendor = TidVendor(self)

    def create_directory(self, dir_id: int) -> TCCDirectory:
        d = TCCDirectory(dir_id, self.config, self.sim, self.network, self)
        self.directories.append(d)
        return d

    def create_engine(self, core: Core) -> TCCEngine:
        e = TCCEngine(self, core)
        self.engines.append(e)
        return e

    def note_processing_started(self, cid) -> None:
        core = getattr(cid[0], "core", None)
        if core is not None and core < len(self.engines):
            self.engines[core].note_processing_started(cid)

    def _queued_chunks(self) -> int:
        """Distinct chunks with a probe waiting at some directory."""
        queued = set()
        for d in self.directories:
            queued |= d.queued_cids()
        return len(queued)


#: Scalable TCC's conversation: a TID from the central vendor totally
#: orders commits; probe/skip/mark drive the per-directory write
#: transactions.  Checked by `repro lint` (SB6xx).
PROTOCOL_SPEC = ProtocolSpec(
    family="tcc",
    edges=(
        ("core", "TID_REQ", "agent"),
        ("agent", "TID_GRANT", "core"),
        ("core", "TCC_PROBE", "dir"),
        ("core", "TCC_SKIP", "dir"),
        ("core", "TCC_MARK", "dir"),
        ("dir", "TCC_INV", "core"),
        ("core", "TCC_INV_ACK", "dir"),
        ("dir", "TCC_DIR_DONE", "core"),
        ("core", "TCC_COMMIT_DONE", "dir"),
    ),
    replies={
        "TID_REQ": ("TID_GRANT",),
        "TCC_PROBE": ("TCC_DIR_DONE",),
        "TCC_INV": ("TCC_INV_ACK",),
    },
)

__all__ = ["PROTOCOL_SPEC", "ScalableTCCProtocol", "TCCDirectory",
           "TCCEngine", "TidVendor"]
