"""The liveness watchdog: "is anything still committing?".

A periodic, **read-only** check: every ``window`` cycles the watchdog
compares the machine-wide committed-chunk count against the previous
check.  No progress and unfinished cores -> one :class:`WatchdogFire`,
carrying a snapshot of the live protocol state (per-directory CST
entries, held bits, reservations, starvation tallies; per-core queue
depths) — emitted on the machine's ``watchdog_fire`` hook, so a recorder
anywhere in the run's instrument list sees it, and always kept on
``watchdog.fires``.

Because the check only *reads* machine state, attaching a watchdog never
changes what the simulation computes: its events consume sequence numbers
but all other events keep their relative order, and no stats field is
touched.  The empty-fault-plan regression test runs with the watchdog
attached to pin that down.

After ``max_fires`` total fires the watchdog stops rescheduling itself so
a genuinely deadlocked machine can quiesce — the runner then raises its
unfinished-cores error and the invariant monitor records SB403 (or SB404
when the event budget trips first).  While commits keep arriving the
watchdog keeps watching, silently, until every core finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.bus import NullBus, ctag_str

DEFAULT_WINDOW = 25_000
DEFAULT_MAX_FIRES = 3


@dataclass
class WatchdogFire:
    """One commit-free window observed on an unfinished machine."""

    time: int
    commits: int                       #: machine-wide committed chunks so far
    snapshot: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"time": self.time, "commits": self.commits,
                "snapshot": self.snapshot}


def machine_snapshot(machine: Any) -> Dict[str, Any]:
    """A JSON-able dump of the live group/CST/reservation state."""
    from repro.core.directory_engine import ScalableBulkDirectory
    dirs: List[Dict[str, Any]] = []
    for directory in machine.directories:
        if isinstance(directory, ScalableBulkDirectory):
            dirs.append({
                "dir": directory.dir_id,
                "cst": [{"cid": ctag_str(e.cid), "held": bool(e.held),
                         "ready": bool(e.ready())}
                        for e in sorted(directory.cst.values(),
                                        key=lambda e: ctag_str(e.cid) or "")],
                "reserved_for": (list(directory.reserved_for)
                                 if directory.reserved_for else None),
                "fail_counts": {f"{c}.{s}": n for (c, s), n
                                in sorted(directory.fail_counts.items())},
            })
    cores = [{
        "core": core.core_id,
        "queued": len(core.active_chunks()),
        "head": ctag_str(core.committing_head.tag)
        if core.committing_head is not None else None,
        "committed": int(core.stats.chunks_committed),
        "finished": bool(core.finished),
    } for core in machine.cores]
    return {"time": int(machine.sim.now), "dirs": dirs, "cores": cores}


class LivenessWatchdog(NullBus):
    """Periodic no-commit detector; see the module docstring."""

    def __init__(self, *, window: int = DEFAULT_WINDOW,
                 max_fires: int = DEFAULT_MAX_FIRES) -> None:
        if window <= 0:
            raise ValueError(f"watchdog window must be positive, got {window}")
        self.machine: Any = None
        self.window = int(window)
        self.max_fires = int(max_fires)
        self.fires: List[WatchdogFire] = []
        self.checks = 0
        self._last_commits = -1

    # ------------------------------------------------------------------
    def attach(self, machine: Any) -> None:
        """Schedule the first check ``window`` cycles from now."""
        self.machine = machine
        machine.sim.schedule(self.window, self._check)

    def _total_commits(self) -> int:
        return sum(int(c.stats.chunks_committed)
                   for c in self.machine.cores)

    def _check(self) -> None:
        self.checks += 1
        machine = self.machine
        if all(core.finished for core in machine.cores):
            return  # run complete; let the simulator quiesce
        commits = self._total_commits()
        if commits == self._last_commits:
            fire = WatchdogFire(time=int(machine.sim.now), commits=commits,
                                snapshot=machine_snapshot(machine))
            self.fires.append(fire)
            if machine.obs.enabled:
                machine.obs.watchdog_fire(fire.time, len(self.fires),
                                          commits, fire.snapshot)
            if len(self.fires) >= self.max_fires:
                # Stop watching so a wedged machine can quiesce and the
                # runner's unfinished-cores error (SB403) surfaces.
                return
        self._last_commits = commits
        machine.sim.schedule(self.window, self._check)


__all__ = ["DEFAULT_MAX_FIRES", "DEFAULT_WINDOW", "LivenessWatchdog",
           "WatchdogFire", "machine_snapshot"]
