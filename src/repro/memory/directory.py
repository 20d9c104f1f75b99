"""Directory module substrate: per-line sharer/owner tracking + read misses.

One directory module lives on every tile (Figure 1).  This base class
implements what is common to *all four* protocols:

* sharer/owner bookkeeping per line (the directory's "conventional" role),
* servicing read misses — from memory (``DATA_FROM_MEM``), from a clean
  remote sharer (``DATA_FROM_SHARER``) or from the dirty owner
  (``DATA_FROM_OWNER``), matching the traffic classes of Figs. 18/19,
* nacking reads that touch lines locked by an in-flight chunk commit
  (the *preventing access to a set of directory entries* primitive,
  Section 3.1) via the :meth:`read_blocked` hook that each protocol
  overrides,
* applying a committed chunk's write-set to directory state.

Protocol-specific commit handling lives in subclasses
(:mod:`repro.core.directory_engine` and :mod:`repro.baselines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.config import SystemConfig
from repro.engine.events import Simulator
from repro.network.message import Message, MessageType, NodeRef, core_node, dir_node
from repro.network.noc import Network
from repro.obs.bus import NULL_BUS, NullBus


@dataclass(slots=True)
class LineInfo:
    """Directory state for one tracked line."""

    sharers: Set[int] = field(default_factory=set)  #: cores that may cache it
    owner: Optional[int] = None                     #: core holding it dirty


class DirectoryModule:
    """Base directory module: sharer tracking + read-miss service."""

    def __init__(self, dir_id: int, config: SystemConfig, sim: Simulator,
                 network: Network) -> None:
        self.dir_id = dir_id
        self.config = config
        self.sim = sim
        self.network = network
        self.node = dir_node(dir_id)
        self.obs: NullBus = NULL_BUS  #: instrumentation sink (repro.obs)
        self.lines: Dict[int, LineInfo] = {}
        # statistics
        self.read_requests = 0
        self.read_nacks = 0
        self.memory_fetches = 0
        self.cache_to_cache = 0

    # ------------------------------------------------------------------
    # Protocol hooks (overridden by protocol directory engines)
    # ------------------------------------------------------------------
    def read_blocked(self, line_addr: int) -> bool:
        """True if an in-flight commit locks this line (Section 3.1)."""
        return False

    def handle_protocol_message(self, msg: Message) -> None:
        """Protocol-specific messages; the base class knows none."""
        raise NotImplementedError(
            f"directory {self.dir_id} cannot handle {msg.mtype}"
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        # The network holds this bound method from build time on; the
        # per-instance ``_dispatch`` is the seam observers wrap later.
        self._dispatch(msg)

    def _dispatch(self, msg: Message) -> None:
        if msg.mtype is MessageType.READ_REQ:
            self._handle_read(msg)
        elif msg.mtype is MessageType.WRITEBACK:
            self._handle_writeback(msg)
        else:
            self.handle_protocol_message(msg)

    # ------------------------------------------------------------------
    # Read-miss service
    # ------------------------------------------------------------------
    def _handle_read(self, msg: Message) -> None:
        line_addr = msg.payload["line"]
        requester: int = msg.payload["requester"]
        self.read_requests += 1

        if self.read_blocked(line_addr):
            self.read_nacks += 1
            self.network.unicast(
                MessageType.READ_NACK, self.node, core_node(requester),
                line=line_addr,
            )
            return

        info = self.lines.setdefault(line_addr, LineInfo())
        lookup = self.config.dir_lookup_cycles

        if info.owner is not None and info.owner != requester:
            # Dirty in a remote cache: forward, owner supplies the data.
            self.cache_to_cache += 1
            self.sim.schedule(lookup, lambda owner=info.owner: self.network.unicast(
                MessageType.FWD_READ, self.node, core_node(owner),
                line=line_addr, requester=requester, dirty=True,
            ))
        else:
            remote_sharers = [s for s in info.sharers if s != requester]
            if remote_sharers:
                # Clean in a remote cache: forward to the closest sharer.
                self.cache_to_cache += 1
                src_tile = self.network.tile_of(core_node(requester))
                closest = min(
                    remote_sharers,
                    key=lambda s: self.network.topology.hop_distance(
                        self.network.tile_of(core_node(s)), src_tile),
                )
                self.sim.schedule(lookup, lambda: self.network.unicast(
                    MessageType.FWD_READ, self.node, core_node(closest),
                    line=line_addr, requester=requester, dirty=False,
                ))
            else:
                # Nobody caches it: fetch from memory.
                self.memory_fetches += 1
                delay = lookup + self.config.memory_round_trip_cycles
                self.sim.schedule(delay, lambda: self.network.unicast(
                    MessageType.DATA_FROM_MEM, self.node, core_node(requester),
                    line=line_addr,
                ))
        info.sharers.add(requester)

    def _handle_writeback(self, msg: Message) -> None:
        line_addr = msg.payload["line"]
        writer: int = msg.payload["writer"]
        info = self.lines.get(line_addr)
        if info is not None:
            if info.owner == writer:
                info.owner = None  # memory now holds the data
            info.sharers.discard(writer)

    # ------------------------------------------------------------------
    # Commit-time state updates
    # ------------------------------------------------------------------
    def sharers_to_invalidate(self, written_lines: Iterable[int],
                              writer: int) -> Set[int]:
        """Cores (other than the writer) that may cache any written line."""
        victims: Set[int] = set()
        for line_addr in written_lines:
            info = self.lines.get(line_addr)
            if info is None:
                continue
            victims |= info.sharers
            if info.owner is not None:
                victims.add(info.owner)
        victims.discard(writer)
        return victims

    def apply_commit(self, written_lines: Iterable[int], writer: int) -> None:
        """Publish a committed chunk's writes: writer becomes dirty owner."""
        for line_addr in written_lines:
            info = self.lines.setdefault(line_addr, LineInfo())
            info.sharers = {writer}
            info.owner = writer

    def home_lines(self, lines: Iterable[int]) -> Iterable[int]:
        """Subset of ``lines`` that this module has ever tracked."""
        return [l for l in lines if l in self.lines]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.dir_id}, lines={len(self.lines)})"


# Imported at module bottom: repro.protocols.__init__ eagerly imports
# protocols.base, which imports this module — a top-level import of
# repro.protocols.spec here would close that cycle before DirectoryModule
# exists.
from repro.protocols.spec import ProtocolSpec  # noqa: E402

#: The plain read-sharing substrate every protocol variant runs on:
#: demand reads, forwarding through the dirty owner, and writebacks.
#: FWD_READ is deliberately not declared as a request — its data reply
#: goes to the original requester, not back to the directory that
#: forwarded it.  Checked by `repro lint` (SB6xx).
PROTOCOL_SPEC = ProtocolSpec(
    family="substrate",
    edges=(
        ("core", "READ_REQ", "dir"),
        ("dir", "READ_NACK", "core"),
        ("dir", "DATA_FROM_MEM", "core"),
        ("dir", "FWD_READ", "core"),
        ("core", "DATA_FROM_SHARER", "core"),
        ("core", "DATA_FROM_OWNER", "core"),
        ("core", "WRITEBACK", "dir"),
    ),
    replies={
        "READ_REQ": ("DATA_FROM_MEM", "DATA_FROM_SHARER",
                     "DATA_FROM_OWNER", "READ_NACK"),
    },
    retries=("READ_NACK",),
)

__all__ = ["DirectoryModule", "LineInfo", "PROTOCOL_SPEC"]
