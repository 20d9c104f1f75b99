"""Experiment harness: machine assembly, run results, figure regeneration.

* :mod:`repro.harness.runner` — builds a full machine (cores, caches,
  NoC, directories, protocol engines) and runs one workload to completion.
* ``python -m repro.harness.sweep`` — the experiment matrix, run as a
  :mod:`repro.store.campaign` into a result store (:func:`sweep.collect`);
  its JSON file is an export of that store, and its markdown is
  EXPERIMENTS.md.
* :mod:`repro.harness.experiments` — one reducer per paper figure (a pure
  function of the collected records) and the markdown renderer next to
  it; EXPERIMENTS.md and the figure suite under ``benchmarks/`` print the
  same tables, and so do the sensitivity studies (campaign specs).
"""
