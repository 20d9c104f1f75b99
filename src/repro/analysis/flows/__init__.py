"""Protocol-flow analysis: extracted automata vs declared specs.

The gate every protocol variant must pass before it reaches the dynamic
checkers: per family (ScalableBulk, BulkSC, TCC, SEQ, plus the coherence
substrate) this package

* extracts a **message-flow automaton** from the protocol model
  (:mod:`repro.analysis.races.model`) — which role dispatches which
  message type, which types each handler sends (helpers resolved through
  the call-graph closure) and to which role, with ``msg.src`` replies
  resolved through the trigger's senders (:mod:`automaton`);
* reads the family's declarative :class:`repro.protocols.spec.ProtocolSpec`
  and the message declarations of ``network/message.py`` from source
  (:mod:`specs`); and
* crosses them into findings (:mod:`rules`): dangling flows, spec
  conformance both directions, conversation-deadlock candidates,
  malformed handler tables (SB601–SB604), and handler coverage — dead
  handlers, silent state mutations, orphan message types (SB002–SB004).

The flows column of the teeth matrix (:mod:`repro.analysis.mutations`)
pins the seeded protocol bugs (a deleted handler, a dropped reply, an
undeclared send, a misspelled table entry, a silent handler, an
orphan type, …) that prove each rule fires.  Entry point:
:func:`lint_flows`, run by ``python -m repro lint`` (alone:
``--select SB6,SB0``).
"""

from repro.analysis.flows.automaton import (FlowAutomaton, FlowSend,
                                            build_automaton,
                                            extract_flow_automaton)
from repro.analysis.flows.rules import lint_flows
from repro.analysis.flows.specs import SPEC_SOURCES, load_spec

__all__ = ["FlowAutomaton", "FlowSend", "SPEC_SOURCES", "build_automaton",
           "extract_flow_automaton", "lint_flows", "load_spec"]
