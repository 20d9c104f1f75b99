"""Static analysis for the reproduction: protocol linter + determinism lint.

Four passes, each usable as a library, via ``python -m repro lint`` (which
runs all of them by default), and as a pytest tier
(``tests/test_analysis_*.py``):

* **Group-order model checker** (:mod:`repro.analysis.group_check`) —
  exhaustively verifies Section 3.2's deadlock/livelock-freedom
  conditions over all small configurations (SB201-SB204).
* **Determinism lint** (:mod:`repro.analysis.determinism`) — flags
  nondeterminism sources that would break reproducible runs
  (SB301-SB304).
* **State-access race analysis** (:mod:`repro.analysis.races`) —
  conflicting handler footprints without causal ordering (SB501-SB504).
* **Protocol-flow analysis** (:mod:`repro.analysis.flows`) — per-family
  message-flow automata extracted from the AST and checked against each
  protocol's declared :class:`~repro.protocols.spec.ProtocolSpec`
  (SB601-SB604), plus handler coverage: dead handlers, silent state
  mutations and orphan message types (SB002-SB004).

The race and flow passes share one extraction of protocol source,
:mod:`repro.analysis.races.model`.  Rule codes are documented in
``docs/analysis.md``; accepted findings live in ``lint-baseline.txt`` at
the repo root.
"""

from repro.analysis.determinism import lint_determinism, lint_source
from repro.analysis.findings import Baseline, Finding, RULES
from repro.analysis.flows import lint_flows
from repro.analysis.group_check import check_group_order

__all__ = [
    "Baseline",
    "Finding",
    "RULES",
    "check_group_order",
    "lint_determinism",
    "lint_flows",
    "lint_source",
]
