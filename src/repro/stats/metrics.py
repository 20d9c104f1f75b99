"""Machine-level protocol metrics.

The protocols report three kinds of events here:

* **commit attempts** move through phases (FORMING -> COMMITTING -> done);
  every transition to COMMITTING ("a new group is formed") takes a
  bottleneck-ratio sample and a chunk-queue-length sample, exactly as the
  paper describes in Section 6.4;
* **successful commits** record their latency and their directory spread
  (write group vs read-only group);
* squashes, retries, nacks, recalls and reservations are counted.

The bottleneck ratio's numerator must exclude "chunks that are forming
groups that will later be squashed" — unknowable online, so samples store
attempt ids and the ratio is computed retrospectively from attempt
outcomes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple


class AttemptPhase(Enum):
    FORMING = "forming"        #: commit requested; group not yet formed
    COMMITTING = "committing"  #: group formed; completing the commit
    QUEUED = "queued"          #: waiting behind other commits (TCC/SEQ)


@dataclass
class CommitRecord:
    """One successful chunk commit."""

    ctag: object
    core: int
    n_dirs: int
    n_write_dirs: int
    latency: int            #: last request -> success (paper's commit latency)
    total_latency: int      #: first request -> success, including retries
    retries: int


@dataclass
class _Attempt:
    ctag: object
    phase: AttemptPhase
    started: int
    succeeded: Optional[bool] = None


class MachineStats:
    """Aggregated protocol-level statistics for one simulation run."""

    def __init__(self) -> None:
        self.commits: List[CommitRecord] = []
        #: ``{value: commits}`` histograms behind Figures 11-13
        self.commit_latency_hist: Counter = Counter()
        self.dirs_per_commit_hist: Counter = Counter()
        #: integer running sums behind the three per-commit means
        self._latency_sum = 0
        self._dirs_sum = 0
        self._write_dirs_sum = 0

        self._attempts: Dict[int, _Attempt] = {}
        self._next_attempt_id = 0
        self._live_by_ctag: Dict[object, int] = {}
        self._live_by_phase: Dict[AttemptPhase, Set[int]] = {
            phase: set() for phase in AttemptPhase}

        #: (forming attempt ids, committing count, queued count) snapshots
        self.bottleneck_samples: List[Tuple[Tuple[int, ...], int]] = []
        self.queue_samples: List[int] = []

        self.commit_failures = 0      #: group-formation losses
        self.commit_recalls = 0
        self.reservations = 0
        self.group_collisions = 0
        self.bulk_inv_nacks = 0

        #: Optional protocol-supplied probe for the chunk-queue-length
        #: metric (TCC/SEQ count chunks sitting in directory queues, which
        #: the generic phase bookkeeping cannot see).
        self.queue_probe = None

    # ------------------------------------------------------------------
    # Attempt lifecycle (called by protocol engines)
    # ------------------------------------------------------------------
    def attempt_started(self, ctag: object, now: int,
                        queued: bool = False) -> int:
        """A commit request went out (or was queued).  Returns attempt id."""
        aid = self._next_attempt_id
        self._next_attempt_id += 1
        phase = AttemptPhase.QUEUED if queued else AttemptPhase.FORMING
        self._attempts[aid] = _Attempt(ctag=ctag, phase=phase, started=now)
        self._live_by_ctag[ctag] = aid
        self._live_by_phase[phase].add(aid)
        return aid

    def _set_phase(self, aid: int, phase: AttemptPhase) -> None:
        attempt = self._attempts[aid]
        self._live_by_phase[attempt.phase].discard(aid)
        attempt.phase = phase
        self._live_by_phase[phase].add(aid)

    def attempt_group_formed(self, ctag: object) -> None:
        """The group formed: take the Section 6.4 samples, flip the phase."""
        aid = self._live_by_ctag.get(ctag)
        if aid is None:
            return
        self._set_phase(aid, AttemptPhase.COMMITTING)
        forming = tuple(self._live_by_phase[AttemptPhase.FORMING])
        committing = len(self._live_by_phase[AttemptPhase.COMMITTING])
        if self.queue_probe is not None:
            queued = self.queue_probe()
        else:
            queued = len(self._live_by_phase[AttemptPhase.QUEUED])
        self.bottleneck_samples.append((forming, committing))
        self.queue_samples.append(queued)

    def attempt_finished(self, ctag: object, success: bool) -> None:
        aid = self._live_by_ctag.pop(ctag, None)
        if aid is not None:
            self._attempts[aid].succeeded = success
            self._live_by_phase[self._attempts[aid].phase].discard(aid)
        if not success:
            self.commit_failures += 1

    # ------------------------------------------------------------------
    # Commit records
    # ------------------------------------------------------------------
    def record_commit(self, ctag: object, core: int, n_dirs: int,
                      n_write_dirs: int, latency: int, total_latency: int,
                      retries: int) -> None:
        rec = CommitRecord(ctag, core, n_dirs, n_write_dirs, latency,
                           total_latency, retries)
        self.commits.append(rec)
        self.commit_latency_hist[latency] += 1
        self.dirs_per_commit_hist[n_dirs] += 1
        self._latency_sum += latency
        self._dirs_sum += n_dirs
        self._write_dirs_sum += n_write_dirs

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _mean(self, total: int) -> float:
        return total / self.n_commits if self.n_commits else 0.0

    def mean_commit_latency(self) -> float:
        return self._mean(self._latency_sum)

    def mean_dirs_per_commit(self) -> float:
        return self._mean(self._dirs_sum)

    def mean_write_dirs_per_commit(self) -> float:
        return self._mean(self._write_dirs_sum)

    def mean_read_only_dirs_per_commit(self) -> float:
        return self.mean_dirs_per_commit() - self.mean_write_dirs_per_commit()

    def bottleneck_ratio(self) -> float:
        """Mean over samples of |forming, eventually-successful| / |committing|.

        Computed retrospectively: the numerator counts only attempts whose
        outcome resolved to success by the end of the run.  Attempts that
        failed — or never resolved at all (still forming when the run was
        cut off) — are excluded, per the Section 6.4 definition: a chunk
        whose group never commits was never going to relieve the
        bottleneck.  Samples with an empty denominator contribute the
        numerator count directly against a denominator of 1 (a group just
        formed, so the machine is never truly idle at a sample point).
        """
        if not self.bottleneck_samples:
            return 0.0
        ratios = []
        for forming_ids, committing in self.bottleneck_samples:
            good_forming = sum(
                1 for aid in forming_ids
                if self._attempts[aid].succeeded is True
            )
            ratios.append(good_forming / max(1, committing))
        return sum(ratios) / len(ratios)

    def mean_queue_length(self) -> float:
        if not self.queue_samples:
            return 0.0
        return sum(self.queue_samples) / len(self.queue_samples)

    @property
    def n_commits(self) -> int:
        return len(self.commits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MachineStats(commits={self.n_commits}, "
                f"failures={self.commit_failures})")


__all__ = ["AttemptPhase", "CommitRecord", "MachineStats"]
