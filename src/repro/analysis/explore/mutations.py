"""Injected protocol bugs that prove the explorer has teeth.

Each mutation patches *instance* methods of the freshly built machine's
ScalableBulk directories — never the shared class or ``CstEntry`` — so the
invariant monitor keeps checking against the unmutated semantics while the
protocol under test misbehaves.  The CI smoke tier requires every mutation
here to be caught by its paired scenario within the bounded sweep.

The three bugs (from the issue):

* ``drop-commit-nack`` — the directory ignores BULK_INV_NACK from a
  conservative (non-OCI) processor.  The invalidation is never resent, the
  nacking processor's ack never arrives, the leader holds its module
  forever while everyone else retries into it: livelock (SB404).
* ``skip-w-intersection`` — the admission test omits the W∩W signature
  probe, so two blind writers of the same line are co-held (SB401) and one
  of them commits without invalidating or squashing the other.
* ``collision-wrong-winner`` — a collision is resolved toward the
  *newcomer* when its leader has the higher ring priority, revoking a
  group the module already admitted.  Revocation is unsound by design
  (Section 3.2.1: grants are irrevocable): a revoked group may already be
  confirmed elsewhere, so its processor can observe both outcomes (SB405)
  or the protocol wedges on the orphaned state (SB403/404).

A fourth bug is registered with ``chaos_only=True``: the mutation check
(``--mutations`` / ``--ci-smoke`` / ``repro chaos --mutation-check``)
requires nominal exploration to *miss* it and the stress plan to catch
it:

* ``reservation-leak`` — a module never releases its starvation
  reservation once the reserved chunk commits (Section 3.2.2).  The bug
  is *invisible* until a reservation actually forms, which takes
  ``starvation_max_squashes`` genuine collisions of one chunk — far more
  than the tiny exploration scenarios produce under nominal timing.  The
  fault-injection campaign (``repro.faults``) reaches it with a squash
  storm: the reservation forms, the reserved chunk commits, the stale
  reservation then defers every later group forever (SB403/SB404).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.core.cst import CstEntry
from repro.core.directory_engine import ScalableBulkDirectory
from repro.network.message import Message


@dataclass(frozen=True)
class Mutation:
    """One injectable protocol bug."""

    name: str
    description: str
    scenario: str                    #: scenario name the CI sweep pairs it with
    expected: str                    #: SB4xx codes that count as detection
    apply: Callable[[Any], None]     #: patches a freshly built machine
    #: True: only fault injection can reach the bug; the mutation check
    #: requires nominal exploration to miss it.
    chaos_only: bool = False


def _sb_directories(machine: Any) -> List[ScalableBulkDirectory]:
    dirs = [d for d in machine.directories
            if isinstance(d, ScalableBulkDirectory)]
    if not dirs:
        raise ValueError(
            "mutations require a ScalableBulk machine; got protocol "
            f"{machine.config.protocol.value!r}")
    return dirs


def apply_drop_commit_nack(machine: Any) -> None:
    for directory in _sb_directories(machine):
        def on_nack(msg: Message) -> None:
            del msg  # bug: the nack vanishes; the inval is never resent
        directory._on_bulk_inv_nack = on_nack


def apply_skip_w_intersection(machine: Any) -> None:
    for directory in _sb_directories(machine):
        def collides(entry: CstEntry, other: CstEntry) -> bool:
            # Bug: only R-signature probes; the W/W intersection of
            # CstEntry.incompatible_with is skipped entirely.
            if entry.w_sig is None or other.w_sig is None:
                return False
            for line in entry.write_lines:
                if other.r_sig.contains(line):
                    return True
            for line in other.write_lines:
                if entry.r_sig.contains(line):
                    return True
            return False
        directory._collides = collides


def apply_collision_wrong_winner(machine: Any) -> None:
    for directory in _sb_directories(machine):
        def resolve(entry: CstEntry, other: CstEntry,
                    d: ScalableBulkDirectory = directory) -> None:
            if entry.order and other.order and entry.order[0] < other.order[0]:
                # Bug: revoke the already-admitted group in favour of the
                # newcomer whose leader has the higher ring priority.
                d._fail_group(other)
                d._maybe_advance(entry)
            else:
                d._fail_group(entry)
        directory._resolve_collision = resolve


def apply_reservation_leak(machine: Any) -> None:
    for directory in _sb_directories(machine):
        def release(cid: Any) -> None:
            del cid  # bug: the reservation (and its tally) outlive the commit
        directory._release_reservation = release


#: every mutation, keyed by name, with its paired scenario
MUTATIONS: Dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            name="drop-commit-nack",
            description="directory drops BULK_INV_NACK instead of resending",
            scenario="nack3",
            expected="SB403/SB404",
            apply=apply_drop_commit_nack,
        ),
        Mutation(
            name="skip-w-intersection",
            description="admission test skips the W/W signature probe",
            scenario="cross3",
            expected="SB401/SB402",
            apply=apply_skip_w_intersection,
        ),
        Mutation(
            name="collision-wrong-winner",
            description="collision revokes the held group for a "
                        "higher-priority newcomer",
            scenario="cross3",
            expected="SB403/SB404/SB405",
            apply=apply_collision_wrong_winner,
        ),
        Mutation(
            name="reservation-leak",
            description="starvation reservation never released after the "
                        "reserved chunk commits",
            scenario="cross3",
            expected="SB403/SB404",
            apply=apply_reservation_leak,
            chaos_only=True,
        ),
    )
}

__all__ = ["MUTATIONS", "Mutation",
           "apply_collision_wrong_winner", "apply_drop_commit_nack",
           "apply_reservation_leak", "apply_skip_w_intersection"]
