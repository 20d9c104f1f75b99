"""The NoC: delivery latency, per-link FIFO contention, traffic accounting.

Latency model (pipelined wormhole approximation):

* each hop costs ``link_latency_cycles`` + ``router_latency_cycles``;
* the packet serializes once onto the network
  (``ceil(size / link_width)`` cycles);
* with contention enabled, every traversed link is occupied for the
  serialization time; a packet arriving at a busy link queues behind it
  (per-link "next free" bookkeeping — no extra simulator events per hop).

Same-tile delivery (e.g. a core talking to its co-located directory)
costs one cycle and uses no links.

All traffic is counted per :class:`~repro.network.message.TrafficClass`
for the paper's Figures 18/19.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.engine.events import Simulator
from repro.network.message import (ROLES, Handler, Message, MessageType,
                                   NodeRef, TrafficClass)
from repro.network.topology import Torus2D
from repro.obs.bus import NULL_BUS, NullBus

#: Exploration/fault hook: given (message, model latency) return extra
#: delay cycles (>= 0) to add before delivery.  See repro.analysis.explore
#: and repro.faults.  Hook output feeds ``send``'s per-flow FIFO clamp, so
#: no hook — however adversarial — can reorder a (src, dst) channel.
DelayHook = Callable[[Message, int], int]


def compose_delay_hooks(*hooks: Optional[DelayHook]) -> Optional[DelayHook]:
    """Chain delay hooks: extra delays add up, Nones drop out.

    Lets fault injection stack on top of an already-installed exploration
    hook instead of silently replacing it.  Returns None when no live hook
    remains, preserving the zero-overhead default path.
    """
    live = [h for h in hooks if h is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def chained(msg: Message, latency: int) -> int:
        return sum(max(0, int(h(msg, latency))) for h in live)

    return chained


class TrafficStats:
    """Per-type message and byte counters, plus latency accounting.

    ``record`` bumps two lists indexed by ``MessageType.index``; the
    message and byte totals and the per-type and per-class ``Counter``
    views are derived from them on read (the views hold only the keys
    seen so far).
    """

    def __init__(self) -> None:
        self._type_messages = [0] * len(MessageType)
        self._type_bytes = [0] * len(MessageType)
        self.total_latency = 0
        self.total_hops = 0

    def record(self, msg: Message, latency: int, hops: int) -> None:
        index = msg.mtype.index
        self._type_messages[index] += 1
        self._type_bytes[index] += msg.size_bytes
        self.total_latency += latency
        self.total_hops += hops

    @property
    def total_messages(self) -> int:
        return sum(self._type_messages)

    @property
    def total_bytes(self) -> int:
        return sum(self._type_bytes)

    @property
    def messages_by_type(self) -> Counter:
        return Counter({mtype: n for mtype, n
                        in zip(MessageType, self._type_messages) if n})

    @property
    def messages_by_class(self) -> Counter:
        return self._by_class(self._type_messages)

    @property
    def bytes_by_class(self) -> Counter:
        return self._by_class(self._type_bytes)

    @staticmethod
    def _by_class(per_type: list) -> Counter:
        out: Counter = Counter()
        for mtype, n in zip(MessageType, per_type):
            if n:
                out[mtype.tclass] += n
        return out

    def class_counts(self) -> Dict[TrafficClass, int]:
        return dict(self.messages_by_class)

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.total_messages if self.total_messages else 0.0


class Network:
    """2D-torus network connecting cores, directories and central agents."""

    def __init__(self, config: SystemConfig, sim: Simulator) -> None:
        self.config = config
        self.sim = sim
        rows, cols = config.mesh_shape
        self.topology = Torus2D(rows, cols)
        self._handlers: Dict[NodeRef, Handler] = {}
        self.stats = TrafficStats()
        self.contention = config.network_contention
        #: Exploration hook: perturbs delivery latency (None = the exact
        #: deterministic latency model).
        self.delay_hook: Optional[DelayHook] = None
        #: (src, dst) -> the flow's record, built on its first send:
        #: ``[last delivery cycle, route link indices, uncontended hop
        #: latency, hop count, same tile]``.  Routes are static under
        #: dimension-order routing, so one record answers every per-message
        #: question but the handler, which stays in ``_handlers`` (an
        #: observer may swap it after build).  The last delivery is the
        #: per-flow FIFO clamp: real links never reorder packets between the
        #: same pair of endpoints, and the grab circulation (Section 3.2)
        #: depends on that, so ``_send`` holds every delivery to it and a
        #: later small message cannot overtake an earlier large one.
        self._flows: Dict[Tuple[NodeRef, NodeRef], list] = {}
        self._hop_cost = config.link_latency_cycles + config.router_latency_cycles
        self._link_width = config.link_width_bytes
        #: links are interned to dense ints the first time a route touches
        #: them: the contention walk then indexes a flat list instead of
        #: hashing (from_tile, to_tile) tuples per hop.
        self._link_index: Dict[tuple, int] = {}
        self._link_free: list = []   #: link index -> earliest-free cycle
        #: Instrumentation sink (repro.obs); null bus = zero overhead.
        self.obs: NullBus = NULL_BUS

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, node: NodeRef, handler: Handler) -> None:
        """Attach a message handler to an endpoint."""
        if node in self._handlers:
            raise ValueError(f"handler already registered for {node}")
        self._handlers[node] = handler

    def tile_of(self, node: NodeRef) -> int:
        """Physical tile hosting ``node``.

        Cores and directories are co-located index-to-tile; central agents
        live at the tile recorded in their index.
        """
        if node.kind not in ROLES:
            raise ValueError(f"unknown node kind {node.kind}")
        return node.index % self.topology.n_tiles

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> int:
        """Inject ``msg`` now; returns the delivery latency in cycles."""
        # The handler check comes before *any* mutation (sent_at stamp,
        # flow record, link bookkeeping, FIFO clamp, stats) and before
        # ``_send``, the seam host-time attribution wraps: an unregistered
        # destination raises with the network exactly as it was and no
        # scope opened.
        handler = self._handlers.get(msg.dst)
        if handler is None:
            raise KeyError(f"no handler registered for destination {msg.dst}")
        return self._send(msg, handler)

    def _send(self, msg: Message, handler: Handler) -> int:
        now = msg.sent_at = self.sim.now
        flow = self._flows.get((msg.src, msg.dst))
        if flow is None:
            flow = self._open_flow(msg.src, msg.dst)
        last, route, hop_latency, hops, same_tile = flow
        size = msg.size_bytes
        if same_tile:
            latency = 1
        else:
            # the packet serializes once onto the network
            serialization = -(-size // self._link_width)
            if self.contention:
                hop_cost = self._hop_cost
                time = now
                link_free = self._link_free
                for li in route:
                    depart = link_free[li]
                    if depart < time:
                        depart = time
                    link_free[li] = depart + serialization
                    time = depart + hop_cost
                # tail flits drain on the final link
                latency = time + serialization - now
            else:
                latency = serialization + hop_latency
        if self.delay_hook is not None:
            latency += max(0, int(self.delay_hook(msg, latency)))
        # No same-pair reordering, ever: point-to-point channels are
        # ordered, so a packet may not overtake (or be overtaken by) an
        # earlier one on its (src, dst) flow.  Without contention a small
        # message computes a shorter transit than a large one in flight
        # on the same flow; the clamp is what keeps the channel FIFO.
        deliver_at = now + latency
        if deliver_at < last:
            deliver_at = last
        flow[0] = deliver_at
        latency = deliver_at - now
        # TrafficStats.record, inlined
        stats = self.stats
        index = msg.mtype.index
        stats._type_messages[index] += 1
        stats._type_bytes[index] += size
        stats.total_latency += latency
        stats.total_hops += hops
        # The delivery event is tagged with the message itself (schedule
        # exploration reads its flow from it).  ``schedule_at`` is looked
        # up per call: a host profiler replaces it on the instance.
        if self.obs.enabled:
            # Same (time, seq, tag) as the uninstrumented path: the only
            # difference is the recv hook firing inside the delivery.
            self.obs.msg_send(now, msg, latency, hops)
            obs = self.obs

            def _deliver(m: Message = msg, h: Handler = handler) -> None:
                obs.msg_recv(self.sim.now, m)
                h(m)

            self.sim.schedule_at(deliver_at, _deliver, tag=msg)
        else:
            self.sim.schedule_at(deliver_at, partial(handler, msg), tag=msg)
        return latency

    def _open_flow(self, src: NodeRef, dst: NodeRef) -> list:
        """Build, intern and store the (src, dst) flow record."""
        src_tile, dst_tile = self.tile_of(src), self.tile_of(dst)
        if src_tile == dst_tile:
            # same-tile delivery costs one cycle and uses no links
            flow = [0, (), 0, 0, True]
        else:
            index = self._link_index
            free = self._link_free
            route = []
            for link in self.topology.route(src_tile, dst_tile):
                li = index.get(link)
                if li is None:
                    li = index[link] = len(free)
                    free.append(0)
                route.append(li)
            flow = [0, tuple(route), self._hop_cost * len(route), len(route),
                    False]
        self._flows[(src, dst)] = flow
        return flow

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def unicast(self, mtype: MessageType, src: NodeRef, dst: NodeRef,
                ctag=None, **payload) -> Message:
        """Build and send a single message."""
        msg = Message(mtype, src, dst, ctag, payload)
        self.send(msg)
        return msg

    def post(self, mtype: MessageType, src: NodeRef, dst: NodeRef, ctag,
             payload: Dict[str, Any]) -> Message:
        """Build and send a message carrying ``payload`` itself, not a
        copy: for a resend of a stored payload, which no handler mutates."""
        msg = Message(mtype, src, dst, ctag, payload)
        self.send(msg)
        return msg

    def multicast(self, mtype: MessageType, src: NodeRef, dsts, ctag=None,
                  **payload) -> list:
        """Send one copy of a message to each destination (no tree fanout)."""
        return [self.unicast(mtype, src, dst, ctag=ctag, **payload) for dst in dsts]

    # ------------------------------------------------------------------
    def link_utilization_snapshot(self) -> Dict[tuple, int]:
        """Per-link next-free times (congestion diagnostics).

        Keys are (from_tile, to_tile) links that some route has traversed;
        values are the earliest cycle each link frees up.
        """
        free = self._link_free
        return {link: free[li] for link, li in self._link_index.items()}


__all__ = ["DelayHook", "Handler", "Network", "TrafficStats",
           "compose_delay_hooks"]
