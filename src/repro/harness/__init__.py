"""Experiment harness: machine assembly, run results, figure regeneration.

* :mod:`repro.harness.runner` — builds a full machine (cores, caches,
  NoC, directories, protocol engines) and runs one workload to completion.
* :mod:`repro.harness.experiments` — one entry point per paper table and
  figure, with scale knobs so the bench suite stays fast.
* :mod:`repro.harness.tables` — plain-text renderers that print rows/series
  shaped like the paper's figures.
* ``python -m repro.harness.sweep`` — the full experiment matrix used to
  produce EXPERIMENTS.md, run as a :mod:`repro.store.campaign` into a
  result store; its JSON file is an export of that store.
"""

from repro.harness.runner import Machine, RunResult, SimulationRunner, run_app

__all__ = ["Machine", "RunResult", "SimulationRunner", "run_app"]
