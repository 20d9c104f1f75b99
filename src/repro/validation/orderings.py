"""Runtime conformance checking of the Tables 4/5 message orderings.

The appendix of the paper specifies, per directory-module role, the legal
successions of sent/received messages for successful and failed commits.
:class:`ProtocolConformanceChecker` sees every packet on the NoC through
the ``msg_send`` hook and validates a distilled set of those ordering rules for each
(directory, commit instance) conversation:

* a module sends ``g`` only after receiving the ``commit_request`` — and,
  unless it is the leader, also the predecessor's ``g``;
* ``g_success`` is multicast only by the leader, and only after the ``g``
  returned to it (or for a singleton group);
* ``bulk_inv`` and ``commit_success`` are sent only by the leader of a
  formed group;
* a member receives ``g_success`` before ``commit_done``;
* after a module sends or receives ``g_failure`` for a commit instance, it
  never sends a ``g`` or a ``g_success`` for it;
* ``commit_success`` and ``commit_failure`` for the same commit instance
  never both reach the processor (OCI discards aside, a failed instance is
  retried under a new instance id).

Violations are collected (not raised) so a stress test can report every
break at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.network.message import Message, MessageType
from repro.obs.bus import NullBus

#: message types that belong to a ScalableBulk commit conversation
_CONVERSATION = {
    MessageType.COMMIT_REQUEST, MessageType.G, MessageType.G_SUCCESS,
    MessageType.G_FAILURE, MessageType.COMMIT_SUCCESS,
    MessageType.COMMIT_FAILURE, MessageType.BULK_INV,
    MessageType.BULK_INV_ACK, MessageType.COMMIT_DONE,
}


@dataclass
class OrderingViolation:
    time: int
    cid: object
    rule: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"t={self.time} {self.cid}: {self.rule} ({self.detail})"


@dataclass
class _DirView:
    """What one directory has seen/sent for one commit instance (only
    what a rule reads)."""

    got_request: bool = False
    got_g: bool = False
    got_g_success: bool = False
    got_g_failure: bool = False
    sent_g_success: bool = False


class ProtocolConformanceChecker(NullBus):
    """Checks the orderings of every packet a ScalableBulk machine sends
    (the ``msg_send`` hook)."""

    def __init__(self) -> None:
        self.machine: Any = None
        self.violations: List[OrderingViolation] = []
        self.messages_checked = 0
        #: (dir_id, cid) -> view
        self._views: Dict[Tuple[int, object], _DirView] = defaultdict(_DirView)
        #: cid -> leader dir (from the shipped order)
        self._leaders: Dict[object, int] = {}
        self._orders: Dict[object, tuple] = {}
        #: cid -> outcomes delivered to the processor
        self._outcomes: Dict[object, Set[str]] = defaultdict(set)

    def attach(self, machine: Any) -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def _flag(self, cid, rule: str, detail: str = "") -> None:
        self.violations.append(OrderingViolation(
            time=self.machine.sim.now, cid=cid, rule=rule, detail=detail))

    def msg_send(self, time: int, msg: Message, latency: int,
                 hops: int) -> None:
        if msg.mtype not in _CONVERSATION:
            return
        self.messages_checked += 1
        cid = msg.ctag

        if msg.mtype is MessageType.COMMIT_REQUEST:
            order = msg.payload["order"]
            self._orders[cid] = order
            self._leaders[cid] = order[0]
            # Conservative arrival marking at injection: the g a directory
            # later *sends* always follows its own request's arrival, so
            # this cannot hide that violation class.
            self._views[(msg.dst.index, cid)].got_request = True
            return

        if msg.src.kind == "dir":
            self._check_send(msg, cid, msg.src.index)
        if msg.dst.kind == "dir" and msg.mtype is not MessageType.BULK_INV_ACK:
            self._note_receive(msg, cid, msg.dst.index)
        if msg.dst.kind == "core" and msg.mtype in (
                MessageType.COMMIT_SUCCESS, MessageType.COMMIT_FAILURE):
            kind = ("success" if msg.mtype is MessageType.COMMIT_SUCCESS
                    else "failure")
            if kind in self._outcomes[cid]:
                self._flag(cid, f"duplicate commit_{kind}")
            other = "failure" if kind == "success" else "success"
            if other in self._outcomes[cid]:
                self._flag(cid, "both outcomes delivered",
                           f"{other} then {kind}")
            self._outcomes[cid].add(kind)

    # ------------------------------------------------------------------
    def _check_send(self, msg: Message, cid, dir_id: int) -> None:
        view = self._views[(dir_id, cid)]
        leader = self._leaders.get(cid)
        if msg.mtype is MessageType.G:
            if view.got_g_failure:
                self._flag(cid, "g after g_failure", f"dir {dir_id}")
            if not view.got_request:
                self._flag(cid, "g before commit_request", f"dir {dir_id}")
            elif dir_id != leader and not view.got_g:
                self._flag(cid, "member g before predecessor g",
                           f"dir {dir_id}")
        elif msg.mtype is MessageType.G_SUCCESS:
            view.sent_g_success = True
            if dir_id != leader:
                self._flag(cid, "g_success from non-leader", f"dir {dir_id}")
            order = self._orders.get(cid, ())
            if len(order) > 1 and not view.got_g:
                self._flag(cid, "g_success before g returned",
                           f"dir {dir_id}")
            if view.got_g_failure:
                self._flag(cid, "g_success after g_failure", f"dir {dir_id}")
        elif msg.mtype is MessageType.BULK_INV:
            if dir_id != leader:
                self._flag(cid, "bulk_inv from non-leader", f"dir {dir_id}")
            if not view.sent_g_success:
                order = self._orders.get(cid, ())
                if len(order) > 1:
                    self._flag(cid, "bulk_inv before group formed",
                               f"dir {dir_id}")
        elif msg.mtype is MessageType.COMMIT_SUCCESS:
            if dir_id != leader:
                self._flag(cid, "commit_success from non-leader",
                           f"dir {dir_id}")

    def _note_receive(self, msg: Message, cid, dir_id: int) -> None:
        view = self._views[(dir_id, cid)]
        if msg.mtype is MessageType.G:
            view.got_g = True
        elif msg.mtype is MessageType.G_SUCCESS:
            view.got_g_success = True
        elif msg.mtype is MessageType.G_FAILURE:
            view.got_g_failure = True
        elif msg.mtype is MessageType.COMMIT_DONE:
            if not (view.got_g_success or self._leaders.get(cid) == dir_id):
                self._flag(cid, "commit_done before g_success",
                           f"dir {dir_id}")

    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
        if self.violations:
            report = "\n".join(str(v) for v in self.violations[:12])
            raise AssertionError(
                f"{len(self.violations)} ordering violation(s):\n{report}")


__all__ = ["OrderingViolation", "ProtocolConformanceChecker"]
