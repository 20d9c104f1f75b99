"""Shared machinery for all four commit protocols.

A *protocol* is a machine-level object that builds one directory engine per
tile and one processor engine per core, plus any central agents (the BulkSC
arbiter, the Scalable TCC TID vendor).  The per-core `ProcessorEngine`
receives every message addressed to its core: data replies and read nacks
are forwarded to the core; forwarded reads are answered from the local
cache; everything else is protocol-specific.

Common commit bookkeeping (latency, directory spread, attempt phases for
the bottleneck ratio) lives here so each protocol only implements its wire
behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import Chunk, ChunkState
from repro.cpu.core import Core
from repro.engine.events import Simulator
from repro.memory.directory import DirectoryModule
from repro.memory.page_map import PageMapper
from repro.network.message import Message, MessageType, core_node
from repro.network.noc import Network
from repro.obs.bus import NULL_BUS, NullBus
from repro.signatures.bulk_signature import SignatureFactory
from repro.stats.metrics import MachineStats


class Protocol:
    """Machine-level protocol object; subclassed per Table 3 entry."""

    kind: ProtocolKind

    def __init__(self, config: SystemConfig, sim: Simulator, network: Network,
                 page_mapper: PageMapper, sig_factory: SignatureFactory) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.page_mapper = page_mapper
        self.sig_factory = sig_factory
        self.stats = MachineStats()
        self.directories: List[DirectoryModule] = []
        self.engines: List["ProcessorEngine"] = []

    # -- construction hooks (called by the runner) -----------------------
    def create_directory(self, dir_id: int) -> DirectoryModule:
        raise NotImplementedError

    def create_engine(self, core: Core) -> "ProcessorEngine":
        raise NotImplementedError

    def setup_agents(self) -> None:
        """Register central agents on the network (arbiter / TID vendor)."""

    # -- shared helpers ----------------------------------------------------
    def home_of_line(self, line_addr: int, toucher: int) -> int:
        page = line_addr * self.config.line_bytes // self.config.page_bytes
        return self.page_mapper.home_of_page(page, toucher)

    def lines_homed_at(self, lines: Iterable[int], dir_id: int) -> List[int]:
        """The lines of ``lines`` whose page is homed at ``dir_id``, in
        iteration order: the directory side of W expansion.  It runs
        over every write set at every module of its group, hence one
        loop with the page lookup inlined."""
        lookup = self.page_mapper.lookup
        line_bytes = self.config.line_bytes
        page_bytes = self.config.page_bytes
        return [line for line in lines
                if lookup(line * line_bytes // page_bytes) == dir_id]


class ProcessorEngine:
    """Per-core protocol endpoint: owns the core's commit conversation."""

    def __init__(self, protocol: Protocol, core: Core) -> None:
        self.protocol = protocol
        self.core = core
        self.config = protocol.config
        self.sim = protocol.sim
        self.network = protocol.network
        self.stats = protocol.stats
        self.node = core_node(core.core_id)
        self.obs: NullBus = NULL_BUS  #: instrumentation sink (repro.obs)
        core.engine = self

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype in (MessageType.DATA_FROM_MEM, MessageType.DATA_FROM_SHARER,
                     MessageType.DATA_FROM_OWNER):
            self.core.on_data(msg.payload["line"])
        elif mtype is MessageType.READ_NACK:
            self.core.on_read_nack(msg.payload["line"])
        elif mtype is MessageType.FWD_READ:
            self._answer_forwarded_read(msg)
        else:
            self.handle_protocol_message(msg)

    def handle_protocol_message(self, msg: Message) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} cannot handle {msg.mtype}")

    def _answer_forwarded_read(self, msg: Message) -> None:
        """Supply a line to a remote requester (cache-to-cache transfer)."""
        line = msg.payload["line"]
        requester = msg.payload["requester"]
        dirty = msg.payload.get("dirty", False)
        reply = (MessageType.DATA_FROM_OWNER if dirty
                 else MessageType.DATA_FROM_SHARER)
        # The local L2 nominally supplies the data; if it was silently
        # evicted we still reply (memory would supply it in a real machine;
        # the timing difference is second-order).
        delay = self.config.l2.round_trip_cycles
        self.sim.schedule(delay, lambda: self.network.unicast(
            reply, self.node, core_node(requester), line=line))

    # ------------------------------------------------------------------
    # Commit entry point
    # ------------------------------------------------------------------
    @staticmethod
    def _cid(chunk: Chunk):
        """The commit-instance id: (tag, retry attempt).  All protocol
        messages and attempt bookkeeping are keyed by this, so a retried
        commit is a fresh conversation."""
        return (chunk.tag, chunk.commit_failures)

    def request_commit(self, chunk: Chunk) -> None:
        """Called by the core when ``chunk`` reaches the head of its queue."""
        if self.obs.enabled:
            self.obs.commit_request(self.sim.now, self.core.core_id,
                                    self._cid(chunk), sorted(chunk.dirs))
        if not chunk.dirs:
            # A chunk with no memory accesses commits trivially.
            self.sim.schedule(1, lambda: self._trivial_commit(chunk))
            return
        self.stats.attempt_started(self._cid(chunk), self.sim.now,
                                   queued=self.starts_queued())
        self.send_commit_request(chunk)

    def starts_queued(self) -> bool:
        """Whether a fresh attempt begins in the QUEUED phase (TCC/SEQ)."""
        return False

    def send_commit_request(self, chunk: Chunk) -> None:
        raise NotImplementedError

    def _trivial_commit(self, chunk: Chunk) -> None:
        if chunk.state is not ChunkState.COMMITTING:
            return
        self.stats.record_commit(
            ctag=chunk.tag, core=self.core.core_id, n_dirs=0, n_write_dirs=0,
            latency=self.sim.now - chunk.commit_request_time,
            total_latency=self.sim.now - chunk.first_commit_request_time,
            retries=chunk.commit_failures,
        )
        self.core.on_commit_success(chunk)

    # ------------------------------------------------------------------
    # Shared completion / failure bookkeeping
    # ------------------------------------------------------------------
    def finish_commit_success(self, chunk: Chunk) -> None:
        """Record a successful commit and release the core."""
        if chunk.state is not ChunkState.COMMITTING:
            return  # stale success for a chunk squashed in the meantime
        self.stats.attempt_finished(self._cid(chunk), success=True)
        self.stats.record_commit(
            ctag=chunk.tag, core=self.core.core_id,
            n_dirs=len(chunk.dirs), n_write_dirs=len(chunk.dirs_written),
            latency=self.sim.now - chunk.commit_request_time,
            total_latency=self.sim.now - chunk.first_commit_request_time,
            retries=chunk.commit_failures,
        )
        self.core.on_commit_success(chunk)

    def retry_commit_later(self, chunk: Chunk) -> None:
        """Group formation failed: back off, then re-request (same tag).

        The backoff carries a deterministic per-retry jitter: fixed-period
        retry loops on both sides of a conflict can phase-lock (e.g. an
        invalidation that always arrives while the victim is awaiting its
        own arbiter outcome and therefore nacks it — a livelock).
        """
        if self.obs.enabled:
            self.obs.commit_retry(self.sim.now, self.core.core_id,
                                  self._cid(chunk))
        self.stats.attempt_finished(self._cid(chunk), success=False)
        chunk.commit_failures += 1
        base = self.config.commit_retry_backoff_cycles
        jitter = (chunk.commit_failures * 13 + self.core.core_id * 7) % base
        self.sim.schedule(base + jitter, lambda: self._retry_if_alive(chunk))

    def _retry_if_alive(self, chunk: Chunk) -> None:
        if chunk.state is not ChunkState.COMMITTING:
            return  # squashed while backing off
        if self.core.committing_head is not chunk:
            return
        chunk.commit_request_time = self.sim.now
        if self.obs.enabled:
            # A retry is a fresh protocol conversation with a new cid.
            self.obs.commit_request(self.sim.now, self.core.core_id,
                                    self._cid(chunk), sorted(chunk.dirs))
        self.stats.attempt_started(self._cid(chunk), self.sim.now,
                                   queued=self.starts_queued())
        self.send_commit_request(chunk)

    # ------------------------------------------------------------------
    # Disambiguation helpers
    # ------------------------------------------------------------------
    def find_inv_conflict(self, write_lines) -> Optional[Chunk]:
        """Oldest active chunk whose signatures capture an invalidated line.

        This is the hardware disambiguation path: every line of the
        incoming (expanded) write-set probes the local R/W signatures.
        """
        for chunk in self.core.active_chunks():
            if chunk.hit_by_invalidation(write_lines):
                return chunk
        return None

    def find_exact_conflict(self, write_lines: Set[int]) -> Optional[Chunk]:
        """Oldest active chunk truly conflicting with ``write_lines``."""
        for chunk in self.core.active_chunks():
            if chunk.true_conflict_with(write_lines):
                return chunk
        return None

    def squash(self, chunk: Chunk, write_lines: Set[int]) -> None:
        """Squash ``chunk`` (+younger), classifying conflict vs aliasing."""
        true_conflict = chunk.true_conflict_with(write_lines)
        self.core.squash_from(chunk, true_conflict=true_conflict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(core={self.core.core_id})"


__all__ = ["Protocol", "ProcessorEngine"]
