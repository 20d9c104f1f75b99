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

**Compact line states.**  :attr:`DirectoryModule.lines` maps each tracked
line to one of

* ``c >= 0``: core ``c`` is the only sharer and there is no owner (what a
  first read and the prewarm register);
* ``~w < 0``: core ``w`` is the owner and the only sharer (what
  :meth:`DirectoryModule.apply_commit` writes);
* a :class:`LineInfo`, built the first time a line leaves those states.

Ints are atoms the garbage collector does not track, so a prewarmed
64-core directory holds a handful of objects instead of one
``LineInfo`` and one ``set`` per line.  A ``LineInfo`` is built as
``LineInfo({c})`` or ``LineInfo({w}, w)`` and then takes the same set
operations it always did, so every sharer set keeps its contents *and*
its iteration order (the read path forwards to the first closest sharer
in set order).  Only this module reads the encoding: everyone else asks
:meth:`DirectoryModule.line_info`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Union

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


#: a tracked line's state: ``c``, ``~w`` or a LineInfo (module docstring)
LineState = Union[int, LineInfo]


def _expanded(state: int) -> LineInfo:
    """The :class:`LineInfo` a compact state stands for (a new one)."""
    if state >= 0:
        return LineInfo({state})
    return LineInfo({~state}, ~state)


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
        #: tracked line -> its state (see the module docstring)
        self.lines: Dict[int, LineState] = {}
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

        state = self.lines.get(line_addr)
        sharers: Iterable[int]
        if isinstance(state, LineInfo):
            owner, sharers = state.owner, state.sharers
        elif state is None:
            owner, sharers = None, ()
        elif state >= 0:
            owner, sharers = None, (state,)
        else:
            owner = ~state
            sharers = (owner,)
        lookup = self.config.dir_lookup_cycles

        if owner is not None and owner != requester:
            # Dirty in a remote cache: forward, owner supplies the data.
            self.cache_to_cache += 1
            self.sim.schedule(lookup, lambda: self.network.unicast(
                MessageType.FWD_READ, self.node, core_node(owner),
                line=line_addr, requester=requester, dirty=True,
            ))
        else:
            remote_sharers = [s for s in sharers if s != requester]
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
        if state is None:
            self.lines[line_addr] = requester
        else:
            self._add_sharer(line_addr, state, requester)

    def _add_sharer(self, line_addr: int, state: LineState, core: int) -> None:
        """``sharers.add(core)`` on the tracked line ``line_addr``."""
        if isinstance(state, LineInfo):
            state.sharers.add(core)
        elif state != core and state != ~core:   # else already a sharer
            info = self.lines[line_addr] = _expanded(state)
            info.sharers.add(core)

    def _handle_writeback(self, msg: Message) -> None:
        line_addr = msg.payload["line"]
        writer: int = msg.payload["writer"]
        state = self.lines.get(line_addr)
        if state is None:
            return
        if not isinstance(state, LineInfo):
            if state != writer and state != ~writer:
                return  # not a sharer: nothing changes
            state = self.lines[line_addr] = _expanded(state)
        if state.owner == writer:
            state.owner = None  # memory now holds the data
        state.sharers.discard(writer)

    # ------------------------------------------------------------------
    # Commit-time state updates
    # ------------------------------------------------------------------
    def sharers_to_invalidate(self, written_lines: Iterable[int],
                              writer: int) -> Set[int]:
        """Cores (other than the writer) that may cache any written line."""
        victims: Set[int] = set()
        get = self.lines.get
        for line_addr in written_lines:
            state = get(line_addr)
            if isinstance(state, LineInfo):
                victims |= state.sharers
                if state.owner is not None:
                    victims.add(state.owner)
            elif state is not None:
                # its one sharer (the owner, if any, is that sharer); a
                # set union, not add(): a union may resize ``victims``
                # where add() would not, which reorders it
                victims |= {state if state >= 0 else ~state}
        victims.discard(writer)
        return victims

    def apply_commit(self, written_lines: Iterable[int], writer: int) -> None:
        """Publish a committed chunk's writes: writer becomes dirty owner
        and only sharer."""
        lines = self.lines
        for line_addr in written_lines:
            lines[line_addr] = ~writer

    def add_sharer(self, lines: Iterable[int], core: int) -> None:
        """Register ``core`` as a sharer of every line in ``lines`` (the
        prewarm's fills), tracking each untracked one."""
        table = self.lines
        get = table.get
        for line_addr in lines:
            state = get(line_addr)
            if state is None:
                table[line_addr] = core
            else:
                self._add_sharer(line_addr, state, core)

    def line_info(self, line_addr: int) -> Optional[LineInfo]:
        """The line's sharers and owner, or None if it is untracked.

        Read-only: for a compact state this is a new :class:`LineInfo`,
        and changing it changes nothing in the directory."""
        state = self.lines.get(line_addr)
        if state is None or isinstance(state, LineInfo):
            return state
        return _expanded(state)

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
