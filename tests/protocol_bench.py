"""A message-level test bench for driving directory engines directly.

Builds the full network + directories of a protocol but replaces the cores
with recording stubs, so tests can inject commit requests with exact
read/write sets and observe every message each endpoint receives — the
level at which the paper's Tables 4 and 5 specify behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.config import ProtocolKind, SystemConfig
from repro.core.group import order_gvec
from repro.cpu.chunk import ChunkTag
from repro.engine.events import Simulator
from repro.memory.page_map import PageMapper
from repro.network.message import Message, MessageType, core_node, dir_node
from repro.network.noc import Network
from repro.protocols import make_protocol
from repro.signatures.bulk_signature import SignatureFactory


class ProtocolBench:
    """Directories + network + protocol, with stub cores that record."""

    def __init__(self, n_cores: int = 9,
                 protocol: ProtocolKind = ProtocolKind.SCALABLEBULK,
                 **overrides) -> None:
        self.config = SystemConfig(n_cores=n_cores, protocol=protocol,
                                   seed=13, **overrides)
        self.sim = Simulator()
        self.network = Network(self.config, self.sim)
        self.page_mapper = PageMapper(self.config.page_bytes,
                                      self.config.n_directories)
        self.sig_factory = SignatureFactory(
            total_bits=self.config.signature_bits,
            n_banks=self.config.signature_banks, seed=13)
        self.protocol = make_protocol(self.config, self.sim, self.network,
                                      self.page_mapper, self.sig_factory)
        self.protocol.setup_agents()
        self.directories = [self.protocol.create_directory(d)
                            for d in range(self.config.n_directories)]
        for d, module in enumerate(self.directories):
            self.network.register(dir_node(d), module.handle_message)
        #: messages received by each stub core, in arrival order
        self.core_log: Dict[int, List[Message]] = defaultdict(list)
        #: every message delivered anywhere: (time, dst, message)
        self.wire_log: List[Tuple[int, object, Message]] = []
        for c in range(self.config.n_cores):
            self.network.register(core_node(c),
                                  self._make_core_stub(c))
        self._tap_directories()
        self._next_page = 1000

    # ------------------------------------------------------------------
    def _make_core_stub(self, core_id: int):
        def handler(msg: Message) -> None:
            self.core_log[core_id].append(msg)
            self.wire_log.append((self.sim.now, core_node(core_id), msg))
            if msg.mtype is MessageType.FWD_READ:
                reply = (MessageType.DATA_FROM_OWNER
                         if msg.payload.get("dirty")
                         else MessageType.DATA_FROM_SHARER)
                self.network.unicast(
                    reply, core_node(core_id),
                    core_node(msg.payload["requester"]),
                    line=msg.payload["line"])
            elif msg.mtype is MessageType.BULK_INV:
                # stub cores always ack immediately, no squash
                self.network.unicast(
                    MessageType.BULK_INV_ACK, core_node(core_id),
                    dir_node(msg.payload["leader"]), ctag=msg.ctag,
                    recall=None)
            elif msg.mtype in (MessageType.TCC_INV,):
                self.network.unicast(MessageType.TCC_INV_ACK,
                                     core_node(core_id), msg.src,
                                     ctag=msg.ctag)
            elif msg.mtype in (MessageType.SEQ_INV,):
                self.network.unicast(MessageType.SEQ_INV_ACK,
                                     core_node(core_id), msg.src,
                                     ctag=msg.ctag)
        return handler

    def _tap_directories(self) -> None:
        for d, module in enumerate(self.directories):
            original = module.handle_message

            def tapped(msg, d=d, original=original):
                self.wire_log.append((self.sim.now, dir_node(d), msg))
                original(msg)

            self.network._handlers[dir_node(d)] = tapped

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_homed_at(self, dir_id: int, index: int = 0) -> int:
        """A line address whose page is homed at ``dir_id``."""
        page = self._next_page
        self._next_page += 1
        self.page_mapper.premap(page, dir_id)
        return page * self.config.lines_per_page + index

    def add_sharer(self, line: int, proc: int) -> None:
        """Register ``proc`` as caching ``line`` at its home directory."""
        page = line * self.config.line_bytes // self.config.page_bytes
        home = self.page_mapper.lookup(page)
        assert home is not None, "line must be homed first"
        self.directories[home].add_sharer((line,), proc)

    # ------------------------------------------------------------------
    # Commit injection (ScalableBulk wire format)
    # ------------------------------------------------------------------
    def send_commit(self, proc: int, reads=(), writes=(), seq: int = 0,
                    attempt: int = 0, offset: int = 0):
        """Inject a ScalableBulk commit_request; returns its cid."""
        tag = ChunkTag(proc, seq, 0)
        cid = (tag, attempt)
        r_sig = self.sig_factory.from_lines(reads)
        w_sig = self.sig_factory.from_lines(writes)
        dirs = set()
        for line in list(reads) + list(writes):
            page = line * self.config.line_bytes // self.config.page_bytes
            home = self.page_mapper.lookup(page)
            assert home is not None
            dirs.add(home)
        order = order_gvec(dirs, self.config.n_directories, offset)
        for d in order:
            self.network.unicast(
                MessageType.COMMIT_REQUEST, core_node(proc), dir_node(d),
                ctag=cid, proc=proc, r_sig=r_sig, w_sig=w_sig, order=order,
                write_lines=frozenset(writes))
        return cid, order

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run(self, guard: int = 1_000_000) -> None:
        self.sim.run(max_events=guard)

    def outcomes(self, proc: int) -> List[Tuple[str, object]]:
        """(success|failure, cid) messages delivered to a core stub."""
        out = []
        for msg in self.core_log[proc]:
            if msg.mtype is MessageType.COMMIT_SUCCESS:
                out.append(("success", msg.ctag))
            elif msg.mtype is MessageType.COMMIT_FAILURE:
                out.append(("failure", msg.ctag))
        return out

    def messages_at(self, dir_id: int, mtype: Optional[MessageType] = None):
        return [m for t, dst, m in self.wire_log
                if dst == dir_node(dir_id)
                and (mtype is None or m.mtype is mtype)]

    def sent_types_in_order(self, dst) -> List[MessageType]:
        return [m.mtype for t, d, m in self.wire_log if d == dst]


__all__ = ["ProtocolBench"]
