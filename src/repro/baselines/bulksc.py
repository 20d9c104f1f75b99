"""BulkSC: centralized-arbiter chunk commit (Table 3, row 4).

The arbiter sits at the centre tile.  A committing processor sends its
(R, W) signature pair there; the arbiter serially checks them against all
in-flight committing W signatures.  Disjoint -> OK (the processor treats
the chunk as committed, per BulkSC's arbiter-ordered semantics) and the
arbiter pushes W to the relevant directories, which invalidate sharers and
report back; overlapping -> NACK, the processor backs off and retries.

While a processor waits for its OK/NACK it nacks incoming bulk
invalidations (the conservative behaviour ScalableBulk's OCI removes,
Section 3.3).

The scalability pathologies this reproduces: a single service point whose
queue explodes with core count, and commit traffic funnelling through the
centre links of the torus.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import Chunk, ChunkState
from repro.cpu.core import Core
from repro.memory.directory import DirectoryModule
from repro.network.message import (
    Message, MessageType, arbiter_node, core_node, dir_node,
)
from repro.obs.bus import NULL_BUS, NullBus
from repro.protocols.base import Protocol, ProcessorEngine
from repro.protocols.spec import ProtocolSpec
from repro.signatures.bulk_signature import chunks_collide


class _InFlight:
    """One granted commit being applied at the directories."""

    __slots__ = ("cid", "proc", "w_sig", "r_sig", "write_lines",
                 "dirs_pending")

    def __init__(self, cid, proc, w_sig, r_sig, write_lines,
                 dirs_pending) -> None:
        self.cid = cid
        self.proc = proc
        self.w_sig = w_sig
        self.r_sig = r_sig
        self.write_lines = write_lines
        self.dirs_pending = dirs_pending


def _in_flight_scan_key(entry: _InFlight):
    """Total order for conflict scans: chunk tag then retry attempt —
    independent of dict insertion order."""
    tag = entry.cid[0]
    return (tag.core, tag.seq, tag.gen, entry.cid[1])


class BulkSCArbiter:
    """The central commit arbiter: a single FIFO service point."""

    def __init__(self, protocol: "BulkSCProtocol") -> None:
        self.protocol = protocol
        self.config = protocol.config
        self.sim = protocol.sim
        self.network = protocol.network
        center = self.network.topology.center_tile()
        self.node = arbiter_node(center)
        self.network.register(self.node, self.handle_message)
        self.in_flight: Dict[object, _InFlight] = {}
        self._busy_until = 0
        self.requests = 0
        self.nacks = 0
        self.obs: NullBus = NULL_BUS  #: instrumentation sink (repro.obs)

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MessageType.BSC_COMMIT_REQ:
            self._enqueue_request(msg)
        elif msg.mtype is MessageType.BSC_DIR_DONE:
            self._on_dir_done(msg)
        else:
            raise NotImplementedError(f"arbiter cannot handle {msg.mtype}")

    def _enqueue_request(self, msg: Message) -> None:
        """Serial service: each decision costs base + per-in-flight check."""
        self.requests += 1
        service = (self.config.arbiter_base_service_cycles
                   + self.config.arbiter_per_chunk_cycles * len(self.in_flight))
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service
        self.sim.schedule(self._busy_until - self.sim.now,
                          lambda: self._decide(msg))

    def _decide(self, msg: Message) -> None:
        cid = msg.ctag
        proc = msg.payload["proc"]
        w_sig = msg.payload["w_sig"]
        r_sig = msg.payload["r_sig"]
        write_lines = msg.payload["write_lines"]
        for other in sorted(self.in_flight.values(), key=_in_flight_scan_key):
            if self._conflicts(w_sig, r_sig, write_lines, other):
                self.nacks += 1
                if self.obs.enabled:
                    self.obs.arbiter_decision(self.sim.now, cid, False,
                                              len(self.in_flight))
                self.network.unicast(MessageType.BSC_NACK, self.node,
                                     core_node(proc), ctag=cid)
                return
        if self.obs.enabled:
            self.obs.arbiter_decision(self.sim.now, cid, True,
                                      len(self.in_flight))
        dirs = msg.payload["dirs"]
        self.in_flight[cid] = _InFlight(cid, proc, w_sig, r_sig, write_lines,
                                        set(dirs))
        self.network.unicast(MessageType.BSC_OK, self.node,
                             core_node(proc), ctag=cid)
        if not dirs:
            del self.in_flight[cid]
            return
        for d in dirs:
            self.network.unicast(
                MessageType.BSC_W_TO_DIR, self.node, dir_node(d), ctag=cid,
                proc=proc, w_sig=w_sig,
                write_lines=msg.payload["write_lines"])

    @staticmethod
    def _conflicts(w_sig, r_sig, write_lines, other: _InFlight) -> bool:
        """Signature-based overlap check, per expanded line (as in Bulk):
        the same pair test as a ScalableBulk CST admission."""
        return chunks_collide(write_lines, r_sig, w_sig,
                              other.write_lines, other.r_sig, other.w_sig)

    def _on_dir_done(self, msg: Message) -> None:
        """Final-ack bookkeeping occupies the serial service port too.

        The arbiter is a single FIFO pipeline: retiring a directory ack
        contends with commit decisions for the same port (base cost only —
        no signature scan is needed to retire an ack), so a commit-heavy
        phase also slows ack retirement.  Retiring in zero time would let
        the entry vanish "for free" while a decision is mid-service.
        """
        if msg.ctag not in self.in_flight:
            return
        service = self.config.arbiter_base_service_cycles
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service
        self.sim.schedule(
            self._busy_until - self.sim.now,
            lambda: self._retire(msg.ctag, msg.payload["dir_id"]))

    def _retire(self, cid, dir_id: int) -> None:
        entry = self.in_flight.get(cid)
        if entry is None:
            return
        entry.dirs_pending.discard(dir_id)
        if not entry.dirs_pending:
            del self.in_flight[cid]


class BulkSCDirectory(DirectoryModule):
    """Directory role under BulkSC: apply granted W sets, invalidate sharers."""

    def __init__(self, dir_id: int, config: SystemConfig, sim, network,
                 protocol) -> None:
        super().__init__(dir_id, config, sim, network)
        self.protocol = protocol
        #: cid -> {w_sig, lines, proc, acks_left, payload}
        self.applying: Dict[object, dict] = {}

    def read_blocked(self, line_addr: int) -> bool:
        return any(st["w_sig"].contains(line_addr)
                   for st in self.applying.values())

    def handle_protocol_message(self, msg: Message) -> None:
        if msg.mtype is MessageType.BSC_W_TO_DIR:
            self._on_w(msg)
        elif msg.mtype is MessageType.BULK_INV_ACK:
            self._on_ack(msg)
        elif msg.mtype is MessageType.BULK_INV_NACK:
            self._on_inv_nack(msg)
        else:
            raise NotImplementedError(f"unexpected {msg.mtype} at BulkSC dir")

    def _on_w(self, msg: Message) -> None:
        cid = msg.ctag
        proc = msg.payload["proc"]
        w_sig = msg.payload["w_sig"]
        write_lines = msg.payload["write_lines"]
        local = self.protocol.lines_homed_at(write_lines, self.dir_id)
        sharers = self.sharers_to_invalidate(local, proc)
        self.apply_commit(local, proc)
        payload = {
            "w_sig": w_sig, "write_lines": write_lines,
            "winner_order": (), "leader": self.dir_id,
        }
        state = {"w_sig": w_sig, "proc": proc, "acks_left": len(sharers),
                 "payload": payload}
        self.applying[cid] = state
        if not sharers:
            self.sim.schedule(self.config.dir_lookup_cycles,
                              lambda: self._done(cid))
            return
        for s in sorted(sharers):
            self.network.unicast(MessageType.BULK_INV, self.node,
                                 core_node(s), ctag=cid, **payload)

    def _on_ack(self, msg: Message) -> None:
        state = self.applying.get(msg.ctag)
        if state is None:
            return
        state["acks_left"] -= 1
        if state["acks_left"] <= 0:
            self._done(msg.ctag)

    def _on_inv_nack(self, msg: Message) -> None:
        state = self.applying.get(msg.ctag)
        if state is None:
            return
        self.protocol.stats.bulk_inv_nacks += 1
        proc = msg.payload["proc"]
        # jittered retry: a fixed period can phase-lock with the nacking
        # processor's own retry loop and never land in its open window
        state["nack_retries"] = state.get("nack_retries", 0) + 1
        base = self.config.nack_retry_backoff_cycles
        jitter = (state["nack_retries"] * 11 + self.dir_id * 5) % (2 * base)
        self.sim.schedule(base + jitter,
                          lambda: self._resend(msg.ctag, proc))

    def _resend(self, cid, proc: int) -> None:
        state = self.applying.get(cid)
        if state is None:
            return
        self.network.unicast(MessageType.BULK_INV, self.node,
                             core_node(proc), ctag=cid, **state["payload"])

    def _done(self, cid) -> None:
        if self.applying.pop(cid, None) is None:
            return
        self.network.unicast(MessageType.BSC_DIR_DONE, self.node,
                             self.protocol.arbiter.node, ctag=cid,
                             dir_id=self.dir_id)


class BulkSCEngine(ProcessorEngine):
    """Processor side of BulkSC."""

    def __init__(self, protocol, core: Core) -> None:
        super().__init__(protocol, core)
        self._current_cid = None
        self._current_chunk: Optional[Chunk] = None

    @property
    def awaiting_outcome(self) -> bool:
        return self._current_cid is not None

    def send_commit_request(self, chunk: Chunk) -> None:
        cid = (chunk.tag, chunk.commit_failures)
        self._current_cid = cid
        self._current_chunk = chunk
        self.network.unicast(
            MessageType.BSC_COMMIT_REQ, self.node, self.protocol.arbiter.node,
            ctag=cid, proc=self.core.core_id, r_sig=chunk.r_sig,
            w_sig=chunk.w_sig, dirs=tuple(sorted(chunk.dirs)),
            write_lines=chunk.frozen_write_set(),
        )

    def handle_protocol_message(self, msg: Message) -> None:
        if msg.mtype is MessageType.BSC_OK:
            self._on_ok(msg)
        elif msg.mtype is MessageType.BSC_NACK:
            self._on_nack(msg)
        elif msg.mtype is MessageType.BULK_INV:
            self._on_bulk_inv(msg)
        else:
            raise NotImplementedError(f"unexpected {msg.mtype} at BulkSC proc")

    def _on_ok(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return
        chunk = self._current_chunk
        self._current_cid = None
        self._current_chunk = None
        # BulkSC semantics: the arbiter's OK orders the chunk; the
        # invalidations complete in the background.
        if self.obs.enabled:
            self.obs.group_formed(self.sim.now, None, msg.ctag,
                                  self.core.core_id, sorted(chunk.dirs),
                                  chunk.write_lines, None)
        self.stats.attempt_group_formed(msg.ctag)
        self.finish_commit_success(chunk)

    def _on_nack(self, msg: Message) -> None:
        if msg.ctag != self._current_cid:
            return
        chunk = self._current_chunk
        self._current_cid = None
        self._current_chunk = None
        if chunk.state is ChunkState.COMMITTING:
            self.retry_commit_later(chunk)

    def _on_bulk_inv(self, msg: Message) -> None:
        leader = msg.payload["leader"]
        if self.awaiting_outcome:
            # Conservative: nack everything while our request is pending.
            self.network.unicast(
                MessageType.BULK_INV_NACK, self.node, dir_node(leader),
                ctag=msg.ctag, proc=self.core.core_id)
            return
        write_lines = self.protocol.sig_factory.write_set(
            msg.payload["write_lines"])
        self.core.apply_invalidation(write_lines)
        victim = self.find_inv_conflict(write_lines)
        if victim is not None:
            self.squash(victim, write_lines)
        self.network.unicast(MessageType.BULK_INV_ACK, self.node,
                             dir_node(leader), ctag=msg.ctag)


class BulkSCProtocol(Protocol):
    """Machine-level BulkSC wiring: one arbiter, plain directories."""

    kind = ProtocolKind.BULKSC

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.arbiter: Optional[BulkSCArbiter] = None

    def setup_agents(self) -> None:
        self.arbiter = BulkSCArbiter(self)

    def create_directory(self, dir_id: int) -> BulkSCDirectory:
        d = BulkSCDirectory(dir_id, self.config, self.sim, self.network, self)
        self.directories.append(d)
        return d

    def create_engine(self, core: Core) -> BulkSCEngine:
        e = BulkSCEngine(self, core)
        self.engines.append(e)
        return e


#: BulkSC's conversation: every commit permission flows through the
#: central arbiter; invalidation traffic reuses the shared BULK_INV
#: sub-conversation.  Checked by `repro lint` (SB6xx).
PROTOCOL_SPEC = ProtocolSpec(
    family="bulksc",
    edges=(
        ("core", "BSC_COMMIT_REQ", "agent"),
        ("agent", "BSC_OK", "core"),
        ("agent", "BSC_NACK", "core"),
        ("agent", "BSC_W_TO_DIR", "dir"),
        ("dir", "BSC_DIR_DONE", "agent"),
        ("dir", "BULK_INV", "core"),
        ("core", "BULK_INV_ACK", "dir"),
        ("core", "BULK_INV_NACK", "dir"),
    ),
    replies={
        "BSC_COMMIT_REQ": ("BSC_OK", "BSC_NACK"),
        "BSC_W_TO_DIR": ("BSC_DIR_DONE",),
        "BULK_INV": ("BULK_INV_ACK", "BULK_INV_NACK"),
    },
    retries=("BSC_NACK", "BULK_INV_NACK"),
)

__all__ = ["BulkSCArbiter", "BulkSCDirectory", "BulkSCEngine",
           "BulkSCProtocol", "PROTOCOL_SPEC"]
