"""System configuration (paper Table 2) and protocol selection (Table 3).

`SystemConfig` carries every architectural parameter of the simulated
machine.  The defaults reproduce the configuration in Table 2 of the paper:

=========================  =====================================
Cores                      32 or 64 (``n_cores``)
Signature                  2 Kbit, Bulk-style banked Bloom
Max active chunks/core     2
Chunk size                 2000 instructions
Interconnect               2D torus, 7-cycle link latency
D-L1 (write-through)       32 KB / 4-way / 32 B lines, 2-cycle RT, 8 MSHRs
L2 (write-back, private)   512 KB / 8-way / 32 B lines, 8-cycle RT, 64 MSHRs
Memory round trip          300 cycles
=========================  =====================================

A 32-core machine is laid out as a 4x8 torus and a 64-core machine as an
8x8 torus (the most-square factorization is chosen automatically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Tuple


class ProtocolKind(Enum):
    """The four simulated coherence protocols (paper Table 3)."""

    SCALABLEBULK = "ScalableBulk"   #: the protocol proposed by the paper
    TCC = "TCC"                     #: Scalable TCC [Chafi et al., HPCA'07]
    SEQ = "SEQ"                     #: SEQ-PRO from SRC [Pugsley et al., PACT'08]
    BULKSC = "BulkSC"               #: BulkSC [Ceze et al., ISCA'07], central arbiter

    def __str__(self) -> str:
        return self.value


def torus_shape(n_tiles: int) -> Tuple[int, int]:
    """Most-square (rows, cols) factorization of ``n_tiles`` for a 2D torus."""
    if n_tiles <= 0:
        raise ValueError("need a positive tile count")
    best = (1, n_tiles)
    for rows in range(1, int(math.isqrt(n_tiles)) + 1):
        if n_tiles % rows == 0:
            best = (rows, n_tiles // rows)
    return best


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    round_trip_cycles: int
    mshr_entries: int

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"cache geometry yields non-power-of-two sets: {sets}")
        return sets

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class SystemConfig:
    """Full machine + protocol configuration for one simulation run."""

    # --- machine scale -------------------------------------------------
    n_cores: int = 64
    protocol: ProtocolKind = ProtocolKind.SCALABLEBULK

    # --- chunking (Section 2.2: BulkSC-style uninstrumented chunks) ----
    chunk_size_instructions: int = 2000
    max_active_chunks_per_core: int = 2
    #: memory-level parallelism: the paper's cores overlap misses through
    #: a reorder buffer and MSHRs; we model that by issuing up to this many
    #: outstanding line fetches when a burst blocks on a miss
    mlp_lookahead: int = 4

    # --- signatures (Bulk [4]) ------------------------------------------
    signature_bits: int = 2048
    #: bank count: 4 banks of 512 bits.  At the 50-100 distinct lines a
    #: 2000-instruction chunk touches, per-line membership probes false-
    #: positive at a few 1e-4 — which integrates to the paper's ~2%
    #: aliasing-squash rate over a chunk's invalidation traffic.  (8 banks
    #: would be closer to the Bloom optimum and makes aliasing vanish.)
    signature_banks: int = 4

    # --- interconnect ----------------------------------------------------
    link_latency_cycles: int = 7
    link_width_bytes: int = 32
    router_latency_cycles: int = 1
    network_contention: bool = True

    # --- memory hierarchy ------------------------------------------------
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, assoc=4, line_bytes=32,
            round_trip_cycles=2, mshr_entries=8,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, assoc=8, line_bytes=32,
            round_trip_cycles=8, mshr_entries=64,
        )
    )
    memory_round_trip_cycles: int = 300
    page_bytes: int = 4096

    # --- ScalableBulk protocol knobs (Section 3) -------------------------
    oci: bool = True                      #: Optimistic Commit Initiation
    starvation_max_squashes: int = 12     #: per-directory reservation threshold
    priority_rotation_interval: int = 0   #: cycles between leader-priority rotations (0 = off)
    commit_retry_backoff_cycles: int = 30
    nack_retry_backoff_cycles: int = 20

    # --- directory service timing ----------------------------------------
    dir_lookup_cycles: int = 2            #: per-message directory occupancy
    dir_line_update_cycles: int = 6       #: per written line: directory state
                                          #: read-modify-write + invalidation
                                          #: generation
    signature_expand_cycles: int = 8      #: W-signature expansion before g can be forwarded
    arbiter_base_service_cycles: int = 8  #: BulkSC arbiter fixed cost per request
    arbiter_per_chunk_cycles: int = 5     #: BulkSC arbiter cost per in-flight chunk checked
    tid_vendor_service_cycles: int = 4    #: Scalable TCC central TID agent service time

    # --- reproducibility --------------------------------------------------
    seed: int = 2010

    # ----------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.signature_bits % self.signature_banks:
            raise ValueError("signature_bits must divide evenly into banks")
        if self.page_bytes % self.l2.line_bytes:
            raise ValueError("page size must be a whole number of cache lines")
        if self.max_active_chunks_per_core < 1:
            raise ValueError("need at least one active chunk per core")

    # --- derived geometry -------------------------------------------------
    @property
    def mesh_shape(self) -> Tuple[int, int]:
        """(rows, cols) of the 2D torus; one tile per core."""
        return torus_shape(self.n_cores)

    @property
    def n_directories(self) -> int:
        """One directory module per tile, as in Figure 1."""
        return self.n_cores

    @property
    def line_bytes(self) -> int:
        return self.l2.line_bytes

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // self.line_bytes

    def with_(self, **overrides) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


def table2_config(n_cores: int, protocol: ProtocolKind = ProtocolKind.SCALABLEBULK,
                  **overrides) -> SystemConfig:
    """Build the paper's Table 2 machine at the requested core count."""
    return SystemConfig(n_cores=n_cores, protocol=protocol, **overrides)


#: Exact Table 2 configurations, keyed by core count.
TABLE2_CONFIGS = {
    32: table2_config(32),
    64: table2_config(64),
}

__all__ = [
    "CacheConfig",
    "ProtocolKind",
    "SystemConfig",
    "TABLE2_CONFIGS",
    "table2_config",
    "torus_shape",
]
