"""SB5xx concurrency analysis: static state-access races + runtime sanitizer.

The paper's correctness argument (Section 3's preemption/commit rules)
hinges on every shared protocol structure — CST entries, group leadership
state, directory reservations — being mutated only under well-defined
message orderings.  This package checks that mechanically:

* :mod:`model` extracts, from the AST of the protocol engines, a
  *state-access model*: for every message handler, the per-module
  attributes it reads and writes and the messages it sends (with source
  positions), transitively closed over same-class helper calls;
* :mod:`concurrency` builds the message-causality graph implied by the
  dispatch tables and send sites, expands the directory role into
  self/other instances (a module's own ``commit_request`` and a
  predecessor's ``g`` are *different* causal sources even though both are
  "the dir role"), and decides which handler pairs can be in flight for
  the same chunk simultaneously via dominator analysis;
* :mod:`rules` crosses the two into findings SB501–SB504;
* :mod:`sanitizer` is the opt-in runtime counterpart: it instruments the
  same state objects during real runs, records actual access
  interleavings through the obs bus, and
* :mod:`confirm` labels each static finding CONFIRMED (with a
  ddmin-shrunk replayable schedule) or UNOBSERVED;
* :mod:`mutations` holds seeded source-level race bugs proving the static
  pass has teeth.

Entry points: :func:`lint_races` (the static pass, run by
``python -m repro lint``) and
:func:`repro.analysis.races.confirm.confirm_findings`.
"""

from repro.analysis.races.model import (HandlerModel, StateModel,
                                        extract_state_model)
from repro.analysis.races.rules import lint_races

__all__ = ["HandlerModel", "StateModel", "extract_state_model", "lint_races"]
