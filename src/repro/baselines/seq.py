"""SEQ (SEQ-PRO from the SRC paper) — Table 3, row 3.

A committing processor *occupies* the directory modules in its read- and
write-sets strictly in ascending module order: it sends an occupy request
to the lowest module, waits for the grant, then moves to the next.  An
occupied module queues later occupy requests FIFO.  Once every module is
occupied the processor broadcasts a commit order to them; each module
invalidates the sharers of the locally homed written lines, collects acks,
reports done, and frees itself (granting the next queued request).

Properties this reproduces: no TID centralization and no broadcast (an
improvement over Scalable TCC), but sequential occupation latency
proportional to the group size, and — the key limitation ScalableBulk
removes — full serialization of any two chunks that touch the same
directory module, address-disjoint or not.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import Chunk, ChunkState
from repro.cpu.core import Core
from repro.memory.directory import DirectoryModule
from repro.network.message import Message, MessageType, core_node, dir_node
from repro.protocols.base import Protocol, ProcessorEngine
from repro.protocols.spec import ProtocolSpec


class SeqDirectory(DirectoryModule):
    """Directory under SEQ: a single-occupant lock with a FIFO queue."""

    def __init__(self, dir_id: int, config: SystemConfig, sim, network,
                 protocol) -> None:
        super().__init__(dir_id, config, sim, network)
        self.protocol = protocol
        self.occupant: Optional[object] = None      #: cid holding the module
        self.occupant_proc: int = -1
        self.queue: Deque[Tuple[object, int]] = deque()  #: (cid, proc) waiting
        self._active: Optional[dict] = None          #: invalidation in progress
        self.occupations = 0

    # ------------------------------------------------------------------
    def read_blocked(self, line_addr: int) -> bool:
        return (self._active is not None
                and line_addr in self._active["lines"])

    def queued_cids(self) -> Set[object]:
        return {cid for cid, _proc in self.queue}

    # ------------------------------------------------------------------
    def handle_protocol_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MessageType.SEQ_OCCUPY:
            self._on_occupy(msg)
        elif mtype is MessageType.SEQ_COMMIT:
            self._on_commit(msg)
        elif mtype is MessageType.SEQ_INV_ACK:
            self._on_inv_ack(msg)
        elif mtype is MessageType.SEQ_RELEASE:
            self._on_release(msg)
        else:
            raise NotImplementedError(f"unexpected {mtype} at SEQ dir")

    def _on_occupy(self, msg: Message) -> None:
        cid = msg.ctag
        proc = msg.payload["proc"]
        if self.occupant is None:
            self._grant(cid, proc)
        else:
            self.queue.append((cid, proc))
        if self.obs.enabled:
            self.obs.dir_occupancy(self.sim.now, self.dir_id,
                                   len(self.queue) + 1)

    def _grant(self, cid, proc: int) -> None:
        self.occupant = cid
        self.occupant_proc = proc
        self.occupations += 1
        self.sim.schedule(self.config.dir_lookup_cycles,
                          lambda: self.network.unicast(
                              MessageType.SEQ_GRANT, self.node,
                              core_node(proc), ctag=cid, dir_id=self.dir_id))

    def _on_commit(self, msg: Message) -> None:
        if msg.ctag != self.occupant:
            return  # stale commit order for an attempt we no longer hold
        write_lines = msg.payload["write_lines"]
        proc = self.occupant_proc
        local = self.protocol.lines_homed_at(write_lines, self.dir_id)
        # Like Scalable TCC, SEQ has no signatures: the occupied module
        # services each written line as its own write-transaction.
        self._active = {"cid": msg.ctag, "proc": proc, "lines": set(local),
                        "todo": sorted(local), "acks_left": 0}
        self.sim.schedule(self.config.dir_lookup_cycles,
                          lambda: self._service_next_line(msg.ctag))

    def _service_next_line(self, cid) -> None:
        active = self._active
        if active is None or active["cid"] != cid:
            return
        if not active["todo"]:
            self._finish()
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
            self.network.unicast(MessageType.SEQ_INV, self.node,
                                 core_node(s), ctag=cid, write_lines=(line,))

    def _on_inv_ack(self, msg: Message) -> None:
        if self._active is None or self._active["cid"] != msg.ctag:
            return
        self._active["acks_left"] -= 1
        if self._active["acks_left"] <= 0:
            self.sim.schedule(self.config.dir_line_update_cycles,
                              lambda cid=msg.ctag: self._service_next_line(cid))

    def _finish(self) -> None:
        active = self._active
        self._active = None
        self.network.unicast(MessageType.SEQ_DONE, self.node,
                             core_node(self.occupant_proc),
                             ctag=active["cid"], dir_id=self.dir_id)
        self._free()

    def _on_release(self, msg: Message) -> None:
        """Abort: the occupant (or a queued requester) gives up."""
        if msg.ctag == self.occupant:
            self._active = None
            self._free()
        else:
            self.queue = deque((c, p) for c, p in self.queue if c != msg.ctag)

    def _free(self) -> None:
        self.occupant = None
        self.occupant_proc = -1
        if self.queue:
            cid, proc = self.queue.popleft()
            self._grant(cid, proc)
        if self.obs.enabled:
            self.obs.dir_occupancy(
                self.sim.now, self.dir_id,
                len(self.queue) + (1 if self.occupant is not None else 0))


class SeqEngine(ProcessorEngine):
    """Processor side of SEQ-PRO: sequential occupation, then commit."""

    def __init__(self, protocol, core: Core) -> None:
        super().__init__(protocol, core)
        self._current_cid = None
        self._current_chunk: Optional[Chunk] = None
        self._order: Tuple[int, ...] = ()
        self._granted: List[int] = []
        self._done_left: Set[int] = set()

    def starts_queued(self) -> bool:
        return False

    def send_commit_request(self, chunk: Chunk) -> None:
        cid = (chunk.tag, chunk.commit_failures)
        self._current_cid = cid
        self._current_chunk = chunk
        self._order = tuple(sorted(chunk.dirs))
        self._granted = []
        self._done_left = set(self._order)
        self._occupy_next()

    def _occupy_next(self) -> None:
        nxt = self._order[len(self._granted)]
        self.network.unicast(MessageType.SEQ_OCCUPY, self.node, dir_node(nxt),
                             ctag=self._current_cid, proc=self.core.core_id)

    def handle_protocol_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MessageType.SEQ_GRANT:
            self._on_grant(msg)
        elif mtype is MessageType.SEQ_DONE:
            self._on_done(msg)
        elif mtype is MessageType.SEQ_INV:
            self._on_inv(msg)
        else:
            raise NotImplementedError(f"unexpected {mtype} at SEQ proc")

    def _on_grant(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            # Grant for an aborted attempt: free the module immediately.
            self.network.unicast(MessageType.SEQ_RELEASE, self.node,
                                 msg.src, ctag=msg.ctag)
            return
        self._granted.append(msg.payload["dir_id"])
        if len(self._granted) < len(self._order):
            self._occupy_next()
            return
        # Everything occupied: the SEQ analog of "group formed".
        if self.obs.enabled:
            self.obs.group_formed(self.sim.now, None, msg.ctag,
                                  self.core.core_id, self._order,
                                  self._current_chunk.write_lines, None)
        self.stats.attempt_group_formed(msg.ctag)
        chunk = self._current_chunk
        write_lines = frozenset(chunk.write_lines)
        for d in self._order:
            self.network.unicast(MessageType.SEQ_COMMIT, self.node,
                                 dir_node(d), ctag=msg.ctag,
                                 write_lines=write_lines)

    def _on_done(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return
        self._done_left.discard(msg.payload["dir_id"])
        if not self._done_left:
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
        self.network.unicast(MessageType.SEQ_INV_ACK, self.node, msg.src,
                             ctag=msg.ctag)

    def _abort_current(self) -> None:
        """Mid-occupation squash: release every module we hold or asked for."""
        cid = self._current_cid
        self.stats.attempt_finished(cid, success=False)
        touched = set(self._granted)
        if len(self._granted) < len(self._order):
            touched.add(self._order[len(self._granted)])  # occupy in flight
        for d in sorted(touched):
            self.network.unicast(MessageType.SEQ_RELEASE, self.node,
                                 dir_node(d), ctag=cid)
        self._clear()

    def _clear(self) -> None:
        self._current_cid = None
        self._current_chunk = None
        self._order = ()
        self._granted = []
        self._done_left = set()


class SeqProtocol(Protocol):
    """Machine-level SEQ-PRO wiring."""

    kind = ProtocolKind.SEQ

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats.queue_probe = self._queued_chunks

    def create_directory(self, dir_id: int) -> SeqDirectory:
        d = SeqDirectory(dir_id, self.config, self.sim, self.network, self)
        self.directories.append(d)
        return d

    def create_engine(self, core: Core) -> SeqEngine:
        e = SeqEngine(self, core)
        self.engines.append(e)
        return e

    def _queued_chunks(self) -> int:
        queued = set()
        for d in self.directories:
            queued |= d.queued_cids()
        return len(queued)


#: SEQ-PRO's conversation: occupy the written modules one by one in
#: ascending order, then commit; RELEASE frees modules on abort or on a
#: stale grant.  Checked by `repro lint` (SB6xx).
PROTOCOL_SPEC = ProtocolSpec(
    family="seq",
    edges=(
        ("core", "SEQ_OCCUPY", "dir"),
        ("dir", "SEQ_GRANT", "core"),
        ("core", "SEQ_COMMIT", "dir"),
        ("dir", "SEQ_INV", "core"),
        ("core", "SEQ_INV_ACK", "dir"),
        ("dir", "SEQ_DONE", "core"),
        ("core", "SEQ_RELEASE", "dir"),
    ),
    replies={
        "SEQ_OCCUPY": ("SEQ_GRANT",),
        "SEQ_COMMIT": ("SEQ_DONE",),
        "SEQ_INV": ("SEQ_INV_ACK",),
    },
)

__all__ = ["PROTOCOL_SPEC", "SeqDirectory", "SeqEngine", "SeqProtocol"]
