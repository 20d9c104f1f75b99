"""Online correctness oracles for full-machine runs.

The protocol's safety rests on a chain: a chunk's reads/writes register it
as a sharer at the home directory, commit-time expansion finds those
sharers, and the bulk invalidation reaches every one of them, squashing
any truly conflicting chunk (signatures have no false negatives).  The
oracles in this package watch live runs and flag any break in that chain.

Each is an instrument (``Machine.run(instruments=[...])``, see
:mod:`repro.obs.bus`).
"""

from repro.validation.oracle import InvalidationOracle
from repro.validation.orderings import ProtocolConformanceChecker

__all__ = ["InvalidationOracle", "ProtocolConformanceChecker"]
