"""Per-schedule invariants, reported under the SB4xx rule codes.

The monitor composes the existing runtime validators with checks that only
matter under adversarial scheduling:

* **co-held incompatibility** (SB401) — no directory may simultaneously
  hold two groups whose signatures collide; the collision rule must have
  failed one of them.  Checked at every admission (``grab_admit``) and
  confirmation (``group_formed``) with the directory's own
  ``incompatible_with`` test, so the unmutated protocol cannot
  false-positive: admission runs the identical test.
* **doomed-chunk commit** (SB401) — when a group confirms, any *other*
  core's active chunk that has consumed a line the group is overwriting
  while being a **registered sharer** of it is doomed: the protocol
  promises to invalidate registered sharers and squash their conflicting
  chunks, so that attempt — tag including the squash generation — must
  never complete its commit (``commit_complete``).  The exemptions keep
  the check exact.  A chunk whose own group already formed is serialized
  *before* the committer.  A line whose read is still in flight is served the
  post-commit value.  Pure write/write overlap does not doom: blind
  writes serialize behind the committer.  And an *unregistered* stale
  copy (the fill crossed a concurrent commit that reset the sharer list)
  is excluded because the execution stays serializable — a chunk that
  only read the line's previous version orders legally before the
  committer, which is not something the commit-timestamp order can see.
* **commit accounting** (SB406) — at quiescence every core committed
  exactly its scripted number of chunks, exactly once per (core, seq),
  with no unresolved squash-pending (OCI alias) chunk.

Every check reads the protocol's own hook points (:mod:`repro.obs.bus`);
nothing is patched.  The invalidation oracle maps to SB402 — run inside
the monitor's ``group_formed`` handler and filtered to the chunks the same
confirm doomed, because the oracle's global view counts a conflict the
moment a line enters a chunk's read-set, one message round-trip before
the data (fresh or stale) actually arrives and regardless of sharer
registration.  A
deadlocked quiescence maps to SB403, an exceeded event budget to SB404,
and every runtime conformance break (Tables 4/5) to SB405.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.directory_engine import ScalableBulkDirectory
from repro.obs.bus import NullBus
from repro.validation.oracle import InvalidationOracle, Violation
from repro.validation.orderings import ProtocolConformanceChecker


@dataclass(frozen=True)
class ExploreViolation:
    """One invariant break observed during a schedule run."""

    code: str     #: SB4xx rule code (see repro.analysis.findings.RULES)
    rule: str     #: short rule name
    time: int     #: simulated cycle of detection
    detail: str   #: what broke, specifically

    def to_json(self) -> Dict[str, Any]:
        return {"code": self.code, "rule": self.rule,
                "time": self.time, "detail": self.detail}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ExploreViolation":
        return cls(code=str(data["code"]), rule=str(data["rule"]),
                   time=int(data["time"]), detail=str(data["detail"]))


class InvariantMonitor(NullBus):
    """Composes every checker into one instrument and collects violations."""

    def __init__(self, expected_per_core: int) -> None:
        self.machine: Any = None
        self.expected_per_core = expected_per_core
        self.violations: List[ExploreViolation] = []
        self.conformance: Optional[ProtocolConformanceChecker] = None
        self.oracle: Optional[InvalidationOracle] = None
        #: oracle breaks on chunks their confirm doomed (drained at finish)
        self._lost: List[Violation] = []
        #: chunk tags (core, seq, gen) whose group formed — exempt from doom
        self._confirmed_tags: Set[Any] = set()
        #: doomed attempt tag -> why it must not commit
        self._doomed: Dict[Any, str] = {}
        #: (core, seq) -> commit_success deliveries observed
        self._commit_counts: Dict[Tuple[int, int], int] = {}
        self._coheld_seen: Set[Tuple[int, Any, Any]] = set()

    def attach(self, machine: Any) -> None:
        self.machine = machine
        # The conversation rules and the invalidation oracle encode
        # ScalableBulk semantics (leaders, groups, CSTs); the baseline
        # protocols reuse some message types with different roles, so
        # those two validators only run on ScalableBulk machines.
        # Commit accounting and deadlock/livelock apply to every protocol.
        if any(isinstance(d, ScalableBulkDirectory)
               for d in machine.directories):
            self.conformance = ProtocolConformanceChecker()
            self.oracle = InvalidationOracle()
            for checker in (self.conformance, self.oracle):
                checker.attach(machine)

    # ------------------------------------------------------------------
    def _flag(self, code: str, rule: str, detail: str) -> None:
        self.violations.append(ExploreViolation(
            code=code, rule=rule, time=int(self.machine.sim.now),
            detail=detail))

    def _cached(self, core: Any, line: int) -> bool:
        """Is ``line`` present in the core's local hierarchy right now?"""
        return core.hierarchy.caches_line(line)

    # ------------------------------------------------------------------
    # ScalableBulk directory hooks
    # ------------------------------------------------------------------
    def msg_send(self, time: int, msg: Any, latency: int, hops: int) -> None:
        if self.conformance is not None:
            self.conformance.msg_send(time, msg, latency, hops)

    def grab_admit(self, time: int, dir_id: int, cid: Any,
                   next_dir: Optional[int]) -> None:
        # an entry becomes held only on admission
        self._scan_coheld(self.machine.directories[dir_id])

    def group_formed(self, time: int, dir_id: Optional[int], cid: Any,
                     proc: int, order: Sequence[int],
                     write_lines: Iterable[int],
                     targets: Optional[Set[int]]) -> None:
        if dir_id is None or self.oracle is None:
            return  # a baseline agent's ordering point, not a confirm
        self._confirmed_tags.add(cid[0])
        # Fires before the commit applies: doom-marking reads the sharer
        # lists that apply_commit resets to just the writer.
        doomed_now = self._mark_doomed(cid, proc, write_lines)
        self._scan_coheld(self.machine.directories[dir_id])
        self._lost.extend(
            v for v in self.oracle.missed(cid, proc, write_lines, targets)
            if v.conflicting_tag in doomed_now)

    def _scan_coheld(self, directory: ScalableBulkDirectory) -> None:
        held = [e for e in directory.cst.values() if e.held]
        for i, a in enumerate(held):
            for b in held[i + 1:]:
                if not a.incompatible_with(b):
                    continue
                key = (directory.dir_id, a.cid, b.cid)
                if key in self._coheld_seen:
                    continue
                self._coheld_seen.add(key)
                self._flag(
                    "SB401", "co-held incompatible groups",
                    f"dir {directory.dir_id} holds {a.cid} and {b.cid} "
                    f"although their signatures collide")

    def _registered(self, core_id: int, line: int) -> bool:
        """Is ``core_id`` a registered sharer/owner of ``line`` at its home?"""
        config = self.machine.config
        page = line * config.line_bytes // config.page_bytes
        home = self.machine.page_mapper.lookup(page)
        if home is None:
            return False
        info = self.machine.directories[home].line_info(line)
        if info is None:
            return False
        return core_id in info.sharers or info.owner == core_id

    def _mark_doomed(self, cid: Any, proc: int,
                     write_lines: Iterable[int]) -> Set[Any]:
        """Mark chunks this confirm dooms; returns the tags marked now."""
        marked: Set[Any] = set()
        written = set(write_lines)
        if not written:
            return marked
        for core in self.machine.cores:
            if core.core_id == proc:
                continue
            for chunk in core.active_chunks():
                if chunk.tag in self._confirmed_tags:
                    continue  # its group formed first: ordered before us
                stale = {line for line in written & chunk.read_lines
                         if self._cached(core, line)
                         and self._registered(core.core_id, line)}
                if stale:
                    marked.add(chunk.tag)
                    self._doomed.setdefault(
                        chunk.tag,
                        f"it read lines {sorted(stale)[:4]} overwritten by "
                        f"commit {cid}")
        return marked

    # ------------------------------------------------------------------
    # Core hook: doomed commits, double commits
    # ------------------------------------------------------------------
    def commit_complete(self, time: int, core: int, tag: Any,
                        n_dirs: int) -> None:
        doom = self._doomed.get(tag)
        if doom is not None:
            self._flag("SB401", "doomed chunk committed",
                       f"P{tag.core} committed {tag} although {doom}")
        ident = (tag.core, tag.seq)
        count = self._commit_counts.get(ident, 0) + 1
        self._commit_counts[ident] = count
        if count > 1:
            self._flag("SB406", "double commit",
                       f"chunk {ident} reported committed {count} times")

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finish(self, machine: Any, error: Optional[BaseException]) -> None:
        """Map the runner's RuntimeErrors to deadlock/livelock findings;
        after a normal completion, run the quiescence-time checks."""
        self._drain_validators()
        if isinstance(error, RuntimeError):
            livelock = "max_events" in str(error)
            self._flag("SB404" if livelock else "SB403",
                       "livelock" if livelock else "deadlock", str(error))
        if error is not None:
            return
        for core in machine.cores:
            committed = int(core.stats.chunks_committed)
            if committed != self.expected_per_core:
                self._flag(
                    "SB406", "commit count mismatch",
                    f"P{core.core_id} committed {committed} chunks, "
                    f"expected {self.expected_per_core}")
            for chunk in core.active_chunks():
                if chunk.squash_pending:
                    self._flag(
                        "SB406", "unresolved squash-pending chunk",
                        f"P{core.core_id} quiesced with {chunk.tag} still "
                        f"awaiting its OCI alias outcome")

    def _drain_validators(self) -> None:
        for v in self._lost:
            self._flag("SB402", "lost invalidation", str(v))
        self._lost.clear()
        if self.conformance is not None:
            for ov in self.conformance.violations:
                self._flag("SB405", ov.rule, str(ov))
            self.conformance.violations.clear()


__all__ = ["ExploreViolation", "InvariantMonitor"]
