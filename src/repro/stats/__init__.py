"""Measurement: everything the paper's evaluation section reports.

* execution-time breakdown per core (Useful / Cache Miss / Commit / Squash,
  Figs. 7-8) — collected by :class:`repro.cpu.core.CoreStats`;
* commit latency distribution and means (Fig. 13);
* directories accessed per chunk commit, split into write group and
  read-only group (Figs. 9-12);
* bottleneck ratio, sampled at every group formation (Figs. 14-15);
* chunk queue length (Figs. 16-17);
* traffic characterization by message class (Figs. 18-19) — collected by
  :class:`repro.network.noc.TrafficStats`.
"""

from repro.stats.metrics import AttemptPhase, CommitRecord, MachineStats

__all__ = ["AttemptPhase", "CommitRecord", "MachineStats"]
