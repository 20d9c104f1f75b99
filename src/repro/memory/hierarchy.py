"""Per-core cache hierarchy: write-through L1 over write-back private L2.

Speculative (uncommitted chunk) writes are tracked per chunk tag so that a
squash can discard exactly the squashed chunk's lines and a commit can
promote them to committed-dirty in one pass.  Dirty L2 evictions notify the
home directory through a caller-supplied writeback callback, keeping
directory owner state consistent with the caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set

from repro.config import SystemConfig


@dataclass
class AccessResult:
    """Outcome of a load/store against the local hierarchy."""

    stall_cycles: int = 0          #: local stall (0 = L1 hit, hidden)
    remote: bool = False           #: missed both levels; go to the home dir
    overflow_ctag: Optional[object] = None  #: a chunk ran out of spec space


class CacheHierarchy:
    """L1 + L2 for one core, with speculative-line bookkeeping."""

    def __init__(self, core_id: int, config: SystemConfig,
                 writeback_cb: Optional[Callable[[int], None]] = None) -> None:
        # Imported here to avoid a cycle with memory/__init__.
        from repro.memory.cache import Cache

        self.core_id = core_id
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self._writeback_cb = writeback_cb
        #: chunk tag -> speculatively written lines not yet committed
        self.spec_lines: Dict[object, Set[int]] = {}
        self.overflows = 0

    def set_writeback_callback(self, cb: Callable[[int], None]) -> None:
        self._writeback_cb = cb

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool, ctag: object) -> AccessResult:
        """Perform one access; the caller handles the remote path."""
        if self.l1.lookup(line_addr) is not None:
            # L1 round trip is hidden behind the 1-IPC pipeline.
            self.l2.lookup(line_addr)  # keep L2 LRU warm (write-through pairing)
            if is_write:
                self._mark_spec(line_addr, ctag)
            return AccessResult(stall_cycles=0)

        if self.l2.lookup(line_addr) is not None:
            result = self._fill_l1(line_addr)
            if is_write:
                self._mark_spec(line_addr, ctag)
            result.stall_cycles = self.config.l2.round_trip_cycles
            return result

        return AccessResult(remote=True)

    def fill_remote(self, line_addr: int, is_write: bool = False,
                    ctag: object = None) -> AccessResult:
        """Install a line that arrived from the home directory."""
        result = AccessResult()
        ev2 = self.l2.fill(line_addr)
        if ev2.overflow_ctag is not None:
            self.overflows += 1
            result.overflow_ctag = ev2.overflow_ctag
            self._drop_spec_line(ev2.overflow_ctag, ev2.line.line_addr)
        if ev2.line is not None:
            self.l1.invalidate(ev2.line.line_addr)  # inclusion
            if ev2.line.dirty and self._writeback_cb is not None:
                self._writeback_cb(ev2.line.line_addr)
        l1_result = self._fill_l1(line_addr)
        if result.overflow_ctag is None:
            result.overflow_ctag = l1_result.overflow_ctag
        if is_write and ctag is not None:
            self._mark_spec(line_addr, ctag)
        return result

    def _fill_l1(self, line_addr: int) -> AccessResult:
        ev = self.l1.fill(line_addr)
        # An L1 eviction of a speculative line is harmless: write-through
        # means the L2 still holds the speculative copy.
        return AccessResult()

    def _mark_spec(self, line_addr: int, ctag: object) -> None:
        self.l1.mark_spec_write(line_addr, ctag)
        self.l2.mark_spec_write(line_addr, ctag)
        self.spec_lines.setdefault(ctag, set()).add(line_addr)

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


__all__ = ["AccessResult", "CacheHierarchy"]
