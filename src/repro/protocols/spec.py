"""Declarative protocol specs: the conversation a protocol *intends*.

Each protocol family declares, next to its engine, a ``PROTOCOL_SPEC``
describing its message-flow automaton at the role level:

* ``edges`` — every legal flow ``(sender_role, MESSAGE_TYPE, receiver_role)``
  with roles drawn from :data:`repro.network.message.ROLES`
  (``core`` = processor engine, ``dir`` = directory module, ``agent`` =
  centralized arbiter / TID vendor);
* ``replies`` — for each *request* type, the message types that conclude
  its conversation back at the requester (success **and** failure
  outcomes both count — a nack is a reply);
* ``retries`` — types that merely restart a conversation (backoff /
  re-solicitation edges).  The SB603 deadlock-candidate rule accepts
  them as evidence that a conversation returns to the requester.

The declaration must be a **pure literal** (string role/type names, no
computed values): the SB6xx flow pass (:mod:`repro.analysis.flows`) reads
it from the module *source* via the AST — never by importing the module —
so seeded-mutation fixtures that doctor a protocol file bring their own
spec along.  Importing the module still constructs the object, which is
when :meth:`ProtocolSpec.__post_init__` validation runs for the real tree.

See ``docs/protocol.md`` for the declaration format and
``docs/analysis.md`` (Pass 5) for the rules checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.network.message import ROLES

#: one legal flow: (sender role, MessageType name, receiver role)
FlowEdge = Tuple[str, str, str]


@dataclass(frozen=True)
class ProtocolSpec:
    """The declared message-flow automaton of one protocol family."""

    family: str
    edges: Tuple[FlowEdge, ...]
    #: request type -> reply types accepted back at the requester role
    replies: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: types that restart a conversation (retry/backoff edges)
    retries: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for edge in self.edges:
            if len(edge) != 3:
                raise ValueError(f"{self.family}: malformed edge {edge!r}")
            src, mtype, dst = edge
            for role in (src, dst):
                if role not in ROLES:
                    raise ValueError(
                        f"{self.family}: unknown role {role!r} in edge "
                        f"{edge!r} (expected one of {ROLES})")
            if not mtype or not mtype.isupper():
                raise ValueError(
                    f"{self.family}: edge {edge!r} must name a MessageType "
                    f"constant (upper-case)")
        declared = {m for (_, m, _) in self.edges}
        for request, answers in self.replies.items():
            if request not in declared:
                raise ValueError(
                    f"{self.family}: replies declared for {request}, which "
                    f"no edge carries")
            for reply in answers:
                if reply not in declared:
                    raise ValueError(
                        f"{self.family}: reply {reply} to {request} appears "
                        f"on no edge")


__all__ = ["FlowEdge", "ProtocolSpec"]
