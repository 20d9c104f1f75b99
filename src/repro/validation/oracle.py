"""The invalidation-completeness oracle.

At the moment a ScalableBulk group is confirmed (the leader is about to
publish the chunk's writes and send bulk invalidations), every *other*
core whose active chunks truly conflict with the committing write-set must
appear in the accumulated ``inval_vec`` — otherwise a conflicting chunk
would survive unsquashed and serializability would be lost.

The oracle wraps each directory's ``_confirm_group`` with a global check
(it can see all cores; the hardware cannot, which is the point: the
distributed sharer bookkeeping must add up to this global property).

Violations are collected, not raised, so a test can assert
``oracle.violations == []`` after the run and report every break at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.core.directory_engine import ScalableBulkDirectory


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


class InvalidationOracle:
    """Watches every group confirmation on a ScalableBulk machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.violations: List[Violation] = []
        self.commits_checked = 0
        for d in machine.directories:
            if isinstance(d, ScalableBulkDirectory):
                self._wrap(d)

    def _wrap(self, directory: ScalableBulkDirectory) -> None:
        original = directory._confirm_group

        def checked(entry):
            self._check(entry)
            original(entry)

        directory._confirm_group = checked

    def _check(self, entry) -> None:
        self.commits_checked += 1
        write_lines = set(entry.write_lines)
        if not write_lines:
            return
        targets = set(entry.inval_acc) | set(entry.local_sharers)
        for core in self.machine.cores:
            if core.core_id == entry.proc:
                continue
            for chunk in core.active_chunks():
                overlap = write_lines & (chunk.read_lines | chunk.write_lines)
                if overlap and core.core_id not in targets:
                    self.violations.append(Violation(
                        time=self.machine.sim.now,
                        committing_cid=entry.cid,
                        writer=entry.proc,
                        missed_core=core.core_id,
                        conflicting_tag=chunk.tag,
                        conflict_lines=overlap,
                    ))

    def assert_clean(self) -> None:
        """Raise with a readable report if any violation was recorded."""
        if self.violations:
            report = "\n".join(str(v) for v in self.violations[:10])
            raise AssertionError(
                f"{len(self.violations)} invalidation-completeness "
                f"violation(s):\n{report}")


def attach_oracle(machine) -> InvalidationOracle:
    """Build and attach the oracle to a ScalableBulk machine (call before
    ``machine.run()``).

    Raises ``ValueError`` on a machine without ScalableBulk directories:
    the other protocols never confirm a group, so the oracle would pass
    without checking a single commit.
    """
    if not any(isinstance(d, ScalableBulkDirectory)
               for d in machine.directories):
        raise ValueError(
            "the invalidation oracle checks ScalableBulk group "
            "confirmations; this machine has no ScalableBulk directory")
    return InvalidationOracle(machine)


__all__ = ["InvalidationOracle", "Violation", "attach_oracle"]
