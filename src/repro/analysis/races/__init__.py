"""SB5xx state-access analysis: static rules + runtime sanitizer.

The paper's correctness argument (Section 3's preemption/commit rules)
hinges on every shared protocol structure — CST entries, group leadership
state, directory reservations — being updated before the messages that
announce it go out, and reconciled on every squash/abort path.  This
package checks that mechanically:

* :mod:`model` extracts, from the AST of the protocol engines, a
  *state-access model*: for every message handler, the per-module
  attributes it reads and writes and the messages it sends (with source
  positions), transitively closed over same-class helper calls;
* :mod:`rules` turns the model into findings SB502 (send before state
  update) and SB504 (unreconciled state growth);
* :mod:`sanitizer` is the opt-in runtime counterpart: it instruments the
  same state objects during real runs, records actual access
  interleavings through the obs bus, and
* :mod:`confirm` labels each static finding CONFIRMED (with a
  ddmin-shrunk replayable schedule) or UNOBSERVED.

The races column of the teeth matrix (:mod:`repro.analysis.mutations`)
pins the seeded race bugs proving the static pass has teeth.

Entry points: :func:`lint_races` (the static pass, run by
``python -m repro lint``) and
:func:`repro.analysis.races.confirm.confirm_findings`.
"""

from repro.analysis.races.model import (HandlerModel, StateModel,
                                        extract_state_model)
from repro.analysis.races.rules import lint_races

__all__ = ["HandlerModel", "StateModel", "extract_state_model", "lint_races"]
