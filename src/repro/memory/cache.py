"""Set-associative cache with LRU replacement and speculative-line support.

Lines are identified by *line address* (byte address // line size).  Each
line can carry a speculative-writer tag (the chunk that wrote it before
committing).  The replacement policy avoids evicting speculative lines when
a non-speculative victim exists; if every way in a set is speculative the
eviction reports an *overflow*, which forces the owning chunk to commit
early (paper Section 2.2: "cache overflows ... can further reduce the
average size" of chunks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from repro.config import CacheConfig


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident line."""

    line_addr: int
    dirty: bool = False                 #: committed-dirty (owner copy)
    spec_writer: Optional[object] = None  #: chunk tag of uncommitted write


@dataclass(slots=True)
class EvictionResult:
    """Outcome of a fill that displaced a resident line."""

    line: Optional[CacheLine] = None    #: the victim (None if a way was free)
    overflow_ctag: Optional[object] = None  #: set when only speculative victims existed

    @property
    def wrote_back(self) -> bool:
        return self.line is not None and self.line.dirty


class Cache:
    """One level of set-associative cache, LRU within each set."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        # set index -> {line_addr: CacheLine}; LRU order = insertion order
        # (plain dicts preserve it, and re-insertion moves a key to MRU —
        # OrderedDict semantics without its per-op overhead)
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        #: set index -> {line_addr: None} shadow sets from a bulk prewarm
        #: fill, materialized into CacheLine dicts on first access.  A
        #: short run touches a fraction of the prewarmed sets, so deferring
        #: object creation keeps prewarm cost proportional to what the run
        #: actually uses.  Empty on caches that never bulk-fill.
        self._lazy: Dict[int, Dict[int, None]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self.n_sets

    def _set_at(self, idx: int) -> Optional[Dict[int, CacheLine]]:
        """The set at ``idx``, materializing a pending shadow set."""
        s = self._sets.get(idx)
        if s is None and self._lazy:
            pend = self._lazy.pop(idx, None)
            if pend is not None:
                s = self._sets[idx] = {a: CacheLine(a) for a in pend}
        return s

    def _materialize_all(self) -> None:
        if self._lazy:
            sets = self._sets
            for idx, pend in self._lazy.items():
                sets[idx] = {a: CacheLine(a) for a in pend}
            self._lazy.clear()

    def _set_for(self, line_addr: int) -> Dict[int, CacheLine]:
        idx = line_addr % self.n_sets
        s = self._set_at(idx)
        if s is None:
            s = self._sets[idx] = {}
        return s

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None; updates LRU on hit."""
        s = self._set_at(line_addr % self.n_sets)
        if s is None:
            self.misses += 1
            return None
        line = s.get(line_addr)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            # re-insertion moves the key to the MRU (last) position
            del s[line_addr]
            s[line_addr] = line
        return line

    def peek(self, line_addr: int) -> Optional[CacheLine]:
        """Lookup without LRU update or hit/miss accounting."""
        s = self._set_at(line_addr % self.n_sets)
        return s.get(line_addr) if s else None

    def fill(self, line_addr: int) -> EvictionResult:
        """Insert a line, evicting the LRU non-speculative way if needed."""
        s = self._set_for(line_addr)
        resident = s.pop(line_addr, None)
        if resident is not None:
            s[line_addr] = resident  # re-insert at MRU
            return EvictionResult()
        result = EvictionResult()
        if len(s) >= self.assoc:
            victim_addr = None
            for addr, line in s.items():  # iterates LRU -> MRU
                if line.spec_writer is None:
                    victim_addr = addr
                    break
            if victim_addr is None:
                # Every way holds uncommitted speculative data: overflow.
                # Report the LRU way's owner; the caller must commit it early.
                lru_addr, lru_line = next(iter(s.items()))
                result.overflow_ctag = lru_line.spec_writer
                victim_addr = lru_addr
            result.line = s.pop(victim_addr)
            self.evictions += 1
        s[line_addr] = CacheLine(line_addr)
        return result

    def fill_many(self, lines: Iterable[int]) -> None:
        """Bulk fill (prewarm): same residency, LRU order and eviction
        count as repeated :meth:`fill` calls, without allocating an
        :class:`EvictionResult` per line.  Victims are dropped — prewarm
        installs clean lines, so there is nothing to write back."""
        if self._sets or self._lazy:
            self._fill_many_resident(lines)
            return
        # Fast path for an empty cache (the prewarm case): every inserted
        # line is clean, so replacement is pure LRU and the whole sequence
        # can be replayed on shadow int-key dicts — same insertion order,
        # re-touch moves, first-key evictions and eviction count as the
        # real process — materializing CacheLine objects only for the
        # lines that survive.
        n_sets = self.n_sets
        assoc = self.assoc
        shadow: Dict[int, Dict[int, None]] = {}
        shadow_get = shadow.get
        evictions = 0
        for line_addr in lines:
            idx = line_addr % n_sets
            s = shadow_get(idx)
            if s is None:
                shadow[idx] = {line_addr: None}
                continue
            if line_addr in s:
                del s[line_addr]       # re-touch: move to MRU
                s[line_addr] = None
                continue
            if len(s) >= assoc:
                del s[next(iter(s))]   # LRU way (no spec lines exist here)
                evictions += 1
            s[line_addr] = None
        self.evictions += evictions
        self._lazy = shadow

    def _fill_many_resident(self, lines: Iterable[int]) -> None:
        """fill_many over a cache that already holds lines (exact replay,
        honouring speculative-victim avoidance)."""
        n_sets = self.n_sets
        assoc = self.assoc
        for line_addr in lines:
            idx = line_addr % n_sets
            s = self._set_at(idx)
            if s is None:
                s = self._sets[idx] = {}
            resident = s.pop(line_addr, None)
            if resident is not None:
                s[line_addr] = resident  # re-insert at MRU
                continue
            if len(s) >= assoc:
                victim = None
                for addr, line in s.items():  # iterates LRU -> MRU
                    if line.spec_writer is None:
                        victim = addr
                        break
                if victim is None:
                    victim = next(iter(s))
                del s[victim]
                self.evictions += 1
            s[line_addr] = CacheLine(line_addr)

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (bulk invalidation / squash). Returns it if present.

        A line of a still-shadowed prewarm set is dropped from the shadow
        without materializing its set: it is clean and not speculative,
        so the returned line is exactly what materializing would build."""
        idx = line_addr % self.n_sets
        s = self._sets.get(idx)
        if s is not None:
            return s.pop(line_addr, None)
        pend = self._lazy.get(idx)
        if pend is not None and line_addr in pend:
            del pend[line_addr]
            return CacheLine(line_addr)
        return None

    def mark_spec_write(self, line_addr: int, ctag: object) -> bool:
        """Tag a resident line as speculatively written by ``ctag``."""
        line = self.peek(line_addr)
        if line is None:
            return False
        line.spec_writer = ctag
        return True

    def commit_spec(self, line_addr: int, ctag: object) -> bool:
        """Promote a speculative line to committed-dirty state."""
        line = self.peek(line_addr)
        if line is None or line.spec_writer != ctag:
            return False
        line.spec_writer = None
        line.dirty = True
        return True

    def clear_dirty(self, line_addr: int) -> None:
        line = self.peek(line_addr)
        if line is not None:
            line.dirty = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self):
        """Iterate all resident line addresses (tests / validators)."""
        self._materialize_all()
        for s in self._sets.values():
            yield from s.keys()

    @property
    def occupancy(self) -> int:
        return (sum(len(s) for s in self._sets.values())
                + sum(len(s) for s in self._lazy.values()))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, line_addr: int) -> bool:
        s = self._set_at(line_addr % self.n_sets)
        return bool(s) and line_addr in s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Cache(sets={self.n_sets}, assoc={self.assoc}, "
                f"occupancy={self.occupancy})")


__all__ = ["Cache", "CacheLine", "EvictionResult"]
