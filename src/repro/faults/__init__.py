"""Deterministic fault injection + chaos campaigns (``python -m repro chaos``).

Layers (see docs/robustness.md):

* :mod:`repro.faults.plan` — serializable, seeded :class:`FaultPlan`;
* :mod:`repro.faults.injectors` — realize a plan against a machine (the
  :class:`FaultEngine` instrument);
* :mod:`repro.faults.watchdog` — read-only liveness watchdog;
* :mod:`repro.faults.campaign` — the seeded plan rotation and the
  campaign worker;
* :mod:`repro.faults.cli` — the ``chaos`` subcommand.

Plans run, shrink, save and replay through the perturbation harness in
:mod:`repro.analysis.explore` (``driver``, ``minimize``, ``trace``),
the same path explore schedules take.
"""

from repro.faults.injectors import FaultEngine
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec, PLAN_VERSION
from repro.faults.watchdog import (DEFAULT_MAX_FIRES, DEFAULT_WINDOW,
                                   LivenessWatchdog, WatchdogFire,
                                   machine_snapshot)

__all__ = [
    "DEFAULT_MAX_FIRES", "DEFAULT_WINDOW", "FAULT_KINDS", "FaultEngine",
    "FaultPlan", "FaultSpec", "LivenessWatchdog", "PLAN_VERSION",
    "WatchdogFire", "machine_snapshot",
]
