"""The invalidation-completeness oracle.

At the moment a ScalableBulk group is confirmed (the leader is about to
publish the chunk's writes and send bulk invalidations), every *other*
core whose active chunks truly conflict with the committing write-set must
appear in the accumulated ``inval_vec`` — otherwise a conflicting chunk
would survive unsquashed and serializability would be lost.

The oracle subscribes to the ``group_formed`` hook, which the leader
emits at confirmation, before the commit applies, carrying the write
lines and the invalidation targets.  It checks them against a global
view (it can see all cores; the hardware cannot, which is the point: the
distributed sharer bookkeeping must add up to this global property).

Violations are collected; at the end of a completed run the oracle
raises with every break at once (:meth:`InvalidationOracle.assert_clean`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Set

from repro.core.directory_engine import ScalableBulkDirectory
from repro.obs.bus import NullBus


@dataclass
class Violation:
    """One break of the invalidation-completeness property."""

    time: int
    committing_cid: object
    writer: int
    missed_core: int
    conflicting_tag: object
    conflict_lines: Set[int]

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (f"t={self.time}: commit {self.committing_cid} by P{self.writer} "
                f"missed conflicting chunk {self.conflicting_tag} on core "
                f"{self.missed_core} (lines {sorted(self.conflict_lines)[:4]})")


class InvalidationOracle(NullBus):
    """Checks every group confirmation on a ScalableBulk machine."""

    def __init__(self) -> None:
        self.machine: Any = None
        self.violations: List[Violation] = []
        self.commits_checked = 0

    def attach(self, machine: Any) -> None:
        """Refuses a machine without ScalableBulk directories: the other
        protocols never confirm a group, so the oracle would pass without
        checking a single commit."""
        if not any(isinstance(d, ScalableBulkDirectory)
                   for d in machine.directories):
            raise ValueError(
                "the invalidation oracle checks ScalableBulk group "
                "confirmations; this machine has no ScalableBulk directory")
        self.machine = machine

    def group_formed(self, time: int, dir_id: Optional[int], cid: Any,
                     proc: int, order: Sequence[int],
                     write_lines: Iterable[int],
                     targets: Optional[Set[int]]) -> None:
        self.violations.extend(self.missed(cid, proc, write_lines, targets))

    def finish(self, machine: Any, error: Optional[BaseException]) -> None:
        if error is None:
            self.assert_clean()

    def missed(self, cid: Any, proc: int, write_lines: Iterable[int],
               targets: Optional[Set[int]]) -> List[Violation]:
        """The conflicting chunks a confirmation's targets leave out."""
        self.commits_checked += 1
        written = set(write_lines)
        if not written:
            return []
        targets = targets or set()
        out: List[Violation] = []
        for core in self.machine.cores:
            if core.core_id == proc or core.core_id in targets:
                continue
            for chunk in core.active_chunks():
                overlap = written & (chunk.read_lines | chunk.write_lines)
                if overlap:
                    out.append(Violation(
                        time=self.machine.sim.now, committing_cid=cid,
                        writer=proc, missed_core=core.core_id,
                        conflicting_tag=chunk.tag, conflict_lines=overlap))
        return out

    def assert_clean(self) -> None:
        """Raise with a readable report if any violation was recorded."""
        if self.violations:
            report = "\n".join(str(v) for v in self.violations[:10])
            raise AssertionError(
                f"{len(self.violations)} invalidation-completeness "
                f"violation(s):\n{report}")


__all__ = ["InvalidationOracle", "Violation"]
