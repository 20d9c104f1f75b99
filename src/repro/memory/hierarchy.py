"""Per-core cache hierarchy: write-through L1 over write-back private L2.

Speculative (uncommitted chunk) writes are tracked per chunk tag so that a
squash can discard exactly the squashed chunk's lines and a commit can
promote them to committed-dirty in one pass.  Dirty L2 evictions notify the
home directory through a caller-supplied writeback callback, keeping
directory owner state consistent with the caches.

The per-access path (:meth:`CacheHierarchy.access`) returns the local
stall as an int and allocates nothing on a hit (see
:mod:`repro.memory.cache` on lazy lines).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set

from repro.config import SystemConfig
from repro.memory.cache import Cache

#: what :meth:`CacheHierarchy.access` returns when both levels miss: the
#: caller goes to the line's home directory
REMOTE = -1


class CacheHierarchy:
    """L1 + L2 for one core, with speculative-line bookkeeping."""

    def __init__(self, core_id: int, config: SystemConfig,
                 writeback_cb: Optional[Callable[[int], None]] = None) -> None:
        self.core_id = core_id
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self._writeback_cb = writeback_cb
        #: chunk tag -> speculatively written lines not yet committed
        self.spec_lines: Dict[object, Set[int]] = {}
        self.overflows = 0
        self._l2_round_trip = config.l2.round_trip_cycles

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool, ctag: object) -> int:
        """Perform one access and return its local stall in cycles: 0 on
        an L1 hit (hidden behind the 1-IPC pipeline), the L2 round trip
        on an L2 hit, or :data:`REMOTE` when both levels miss and the
        caller must go to the home directory."""
        l1 = self.l1
        l2 = self.l2
        # Cache.touch on both levels, inlined (the one per-access step
        # that reads a Cache's sets; it never reads a line's value)
        s1 = l1._sets.get(line_addr % l1.n_sets)
        in_l1 = s1 is not None and line_addr in s1
        if in_l1:
            l1.hits += 1
            s1[line_addr] = s1.pop(line_addr)  # re-insert at MRU
        else:
            l1.misses += 1
        # an L1 hit keeps L2 LRU warm too (write-through pairing)
        s2 = l2._sets.get(line_addr % l2.n_sets)
        if s2 is not None and line_addr in s2:
            l2.hits += 1
            s2[line_addr] = s2.pop(line_addr)
        else:
            l2.misses += 1
            if not in_l1:
                return REMOTE
        if not in_l1:
            # An L1 victim, speculative or not, is dropped: write-through
            # means the L2 still holds its copy.
            l1.install(line_addr)
        if is_write:
            self._mark_spec(line_addr, ctag)
        return 0 if in_l1 else self._l2_round_trip

    def fill_remote(self, line_addr: int, is_write: bool = False,
                    ctag: object = None) -> Optional[object]:
        """Install a line that arrived from the home directory; returns
        the tag of a chunk whose speculative line the L2 had to evict
        (an overflow), or None."""
        ev2 = self.l2.fill(line_addr)
        victim = ev2.line
        if ev2.overflow_ctag is not None:
            self.overflows += 1
            self._drop_spec_line(ev2.overflow_ctag, victim.line_addr)
        if victim is not None:
            self.l1.invalidate(victim.line_addr)  # inclusion
            if victim.dirty and self._writeback_cb is not None:
                self._writeback_cb(victim.line_addr)
        self.l1.install(line_addr)
        if is_write and ctag is not None:
            self._mark_spec(line_addr, ctag)
        return ev2.overflow_ctag

    def _mark_spec(self, line_addr: int, ctag: object) -> None:
        self.l1.mark_spec_write(line_addr, ctag)
        self.l2.mark_spec_write(line_addr, ctag)
        lines = self.spec_lines.get(ctag)
        if lines is None:
            lines = self.spec_lines[ctag] = set()
        lines.add(line_addr)

    def _drop_spec_line(self, ctag: object, line_addr: int) -> None:
        lines = self.spec_lines.get(ctag)
        if lines is not None:
            lines.discard(line_addr)

    # ------------------------------------------------------------------
    # Chunk lifecycle
    # ------------------------------------------------------------------
    def commit_chunk(self, ctag: object) -> None:
        """Promote a committed chunk's lines to committed-dirty."""
        for line_addr in self.spec_lines.pop(ctag, ()):  # noqa: B020
            self.l2.commit_spec(line_addr, ctag)
            self.l1.commit_spec(line_addr, ctag)

    def squash_chunk(self, ctag: object) -> int:
        """Discard a squashed chunk's speculative lines; returns the count."""
        lines = self.spec_lines.pop(ctag, set())
        for line_addr in lines:
            self.l1.invalidate(line_addr)
            self.l2.invalidate(line_addr)
        return len(lines)

    def invalidate(self, line_addr: int) -> bool:
        """Bulk-invalidation of one line; True if it was resident."""
        return self.invalidate_lines((line_addr,)) > 0

    def invalidate_lines(self, lines: Iterable[int]) -> int:
        """Bulk invalidation of a whole write set from both levels;
        returns how many of its lines were resident."""
        l1_drop = self.l1.invalidate
        l2_drop = self.l2.invalidate
        hits = 0
        for line_addr in lines:
            in_l1 = l1_drop(line_addr) is not None
            if l2_drop(line_addr) is not None or in_l1:
                hits += 1
        return hits

    def caches_line(self, line_addr: int) -> bool:
        return line_addr in self.l1 or line_addr in self.l2

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CacheHierarchy(core={self.core_id}, "
                f"l1={self.l1.occupancy}, l2={self.l2.occupancy})")


__all__ = ["CacheHierarchy", "REMOTE"]
