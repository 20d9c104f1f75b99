"""Chunks: atomic blocks of instructions with R/W sets and signatures.

A :class:`ChunkSpec` is the *program*: the instruction count and the memory
accesses the chunk performs (produced by a workload generator).  A
:class:`Chunk` is one *execution attempt* of a spec on a core: it carries
the runtime read/write line sets, the R and W signatures, and the set of
home directories touched.  Squashing a chunk resets the runtime state and
bumps the tag generation, so protocol messages from the dead attempt can
never be confused with the re-execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.signatures.bulk_signature import (
    BulkSignature, SignatureFactory, WriteSet,
)


class ChunkTag(NamedTuple):
    """The paper's C_Tag: originating processor + local sequence number.

    We add ``gen`` (execution-attempt generation): a squashed-and-restarted
    chunk is a new commit as far as the protocol is concerned, while commit
    *retries* after a group-formation failure keep the same tag (which is
    what the starvation-reservation logic counts).
    """

    core: int
    seq: int
    gen: int = 0

    def next_gen(self) -> "ChunkTag":
        return ChunkTag(self.core, self.seq, self.gen + 1)

    def __str__(self) -> str:
        return f"P{self.core}.c{self.seq}.g{self.gen}"


class ChunkAccess(NamedTuple):
    """One memory access inside a chunk.

    ``gap`` is the number of non-memory instructions executed since the
    previous access (so the sum of gaps + accesses is the chunk size).
    """

    gap: int
    byte_addr: int
    is_write: bool


@dataclass
class ChunkSpec:
    """The immutable program of one chunk."""

    n_instructions: int
    accesses: List[ChunkAccess]

    def __post_init__(self) -> None:
        consumed = sum(a.gap + 1 for a in self.accesses)
        if consumed > self.n_instructions:
            raise ValueError(
                f"accesses consume {consumed} instructions > chunk size "
                f"{self.n_instructions}"
            )

    @property
    def n_accesses(self) -> int:
        return len(self.accesses)


class ChunkState(enum.Enum):
    EXECUTING = "executing"
    WAIT_COMMIT = "wait_commit"     #: execution done, queued behind an older commit
    COMMITTING = "committing"       #: commit request in flight
    COMMITTED = "committed"
    SQUASHED = "squashed"


@dataclass
class Chunk:
    """One execution attempt of a ChunkSpec on a core."""

    tag: ChunkTag
    spec: ChunkSpec
    sig_factory: SignatureFactory
    line_bytes: int

    state: ChunkState = ChunkState.EXECUTING
    read_lines: Set[int] = field(default_factory=set)
    write_lines: Set[int] = field(default_factory=set)
    dirs: Set[int] = field(default_factory=set)          #: g_vec contents
    dirs_written: Set[int] = field(default_factory=set)  #: dirs homing >=1 write
    r_sig: Optional[BulkSignature] = None
    w_sig: Optional[BulkSignature] = None

    # execution bookkeeping
    start_time: int = -1            #: cycle this attempt started executing
    exec_done_time: int = -1
    commit_request_time: int = -1   #: current attempt's request send time
    first_commit_request_time: int = -1
    commit_done_time: int = -1
    commit_failures: int = 0        #: group-formation losses for this tag
    squash_pending: bool = False    #: OCI aliasing corner: defer squash to outcome
    truncated: bool = False         #: ended early by cache overflow
    acc_useful: int = 0             #: instruction cycles banked by this attempt
    acc_miss: int = 0               #: miss-stall cycles banked by this attempt
    commit_order: Tuple[int, ...] = ()  #: traversal order shipped at request
    _write_set: Optional[WriteSet] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self) -> None:
        self.r_sig = self.sig_factory.empty()
        self.w_sig = self.sig_factory.empty()

    # ------------------------------------------------------------------
    def record(self, line_addr: int, is_write: bool, home_dir: int) -> None:
        """Register one access: :meth:`fold` of one line, plus its home.

        The simulator folds whole bursts (``Core._run_burst``); only the
        tests register single accesses."""
        self.dirs.add(home_dir)
        if is_write:
            self.dirs_written.add(home_dir)
            self.fold((), (line_addr,))
        else:
            self.fold((line_addr,), ())

    def fold(self, reads: Sequence[int], writes: Sequence[int]) -> None:
        """Register a run of read and write lines in the runtime sets and
        signatures, one ``insert_many`` per signature.  OR-ing masks does
        not depend on order, so this sets the same bits (and counts the
        same inserts) as registering each line on its own."""
        if reads:
            self.read_lines.update(reads)
            self.r_sig.insert_many(reads)
        if writes:
            self.write_lines.update(writes)
            self.w_sig.insert_many(writes)

    def g_vec(self) -> Tuple[int, ...]:
        """Sorted tuple of participating directory modules."""
        return tuple(sorted(self.dirs))

    def hit_by_invalidation(self, write_lines) -> bool:
        """Chunk disambiguation as Bulk hardware performs it: each line of
        the committing chunk's expanded write-set is probed for membership
        in our R and W signatures (Section 3.4: squash when W_committing
        intersects R or W).  No false negatives; per-line membership false
        positives produce the paper's *aliasing squashes*.  A bulk
        invalidation carries the winner's :class:`WriteSet`, so every
        receiving core probes with the masks its first probe hashed.
        """
        return self.sig_factory.write_set(write_lines).probe(
            self.r_sig, self.w_sig)

    def frozen_write_set(self) -> WriteSet:
        """The write set a commit request of this attempt ships.

        Built on first use and reused by the attempt's commit retries
        (a BulkSC nack storm re-requests the same chunk many times).
        Writes only add lines, so a size change means a stale cache.
        """
        ws = self._write_set
        if ws is None or len(ws) != len(self.write_lines):
            ws = self._write_set = self.sig_factory.write_set(self.write_lines)
        return ws

    def true_conflict_with(self, write_lines: Set[int]) -> bool:
        """Ground-truth (exact-address) conflict test."""
        return bool(write_lines & self.read_lines) or bool(write_lines & self.write_lines)

    def reset_for_retry(self) -> "Chunk":
        """New attempt after a squash: fresh sets/signatures, gen+1 tag."""
        return Chunk(
            tag=self.tag.next_gen(),
            spec=self.spec,
            sig_factory=self.sig_factory,
            line_bytes=self.line_bytes,
        )

    @property
    def is_active(self) -> bool:
        return self.state in (ChunkState.EXECUTING, ChunkState.WAIT_COMMIT,
                              ChunkState.COMMITTING)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Chunk({self.tag}, {self.state.value}, dirs={sorted(self.dirs)})"


__all__ = ["Chunk", "ChunkAccess", "ChunkSpec", "ChunkState", "ChunkTag"]
