"""Set-associative cache with LRU replacement and speculative-line support.

Lines are identified by *line address* (byte address // line size).  Each
line can carry a speculative-writer tag (the chunk that wrote it before
committing).  The replacement policy avoids evicting speculative lines when
a non-speculative victim exists; if every way in a set is speculative the
eviction reports an *overflow*, which forces the owning chunk to commit
early (paper Section 2.2: "cache overflows ... can further reduce the
average size" of chunks).

**Lazy lines.**  A set maps each resident line address to one of

* ``None``: clean and not speculative (what fills and the bulk prewarm
  store);
* :data:`_DIRTY`: committed-dirty and not speculative (what
  :meth:`Cache.commit_spec` stores);
* a :class:`CacheLine`: speculatively written by an uncommitted chunk.

The two markers are atoms the garbage collector does not track, so a set
holds a ``CacheLine`` only while its line is speculative.  A caller that
asks for a line (``lookup``, ``peek``, an eviction or invalidation that
reports it) gets a ``CacheLine`` built for it, ``dirty`` for a committed
line.  A residency test (``in``, :meth:`Cache.touch`) builds nothing, so
the per-access path of :class:`~repro.memory.hierarchy.CacheHierarchy`
allocates nothing on a hit.  Only this module reads the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union, cast

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


#: the set value of a committed-dirty, non-speculative line (``None``
#: stands for a clean one)
_DIRTY = True

#: one cache set: line address -> None, _DIRTY or its speculative line;
#: LRU order = insertion order (plain dicts preserve it, and re-insertion
#: moves a key to MRU — OrderedDict semantics without its per-op overhead)
CacheSet = Dict[int, Union[None, bool, CacheLine]]


def _built(line_addr: int, value: Union[None, bool, CacheLine]) -> CacheLine:
    """The :class:`CacheLine` a caller sees for a set value."""
    if isinstance(value, CacheLine):
        return value
    return CacheLine(line_addr, dirty=value is _DIRTY)


def _victim(s: CacheSet) -> Tuple[int, Optional[object]]:
    """The way a fill into the full set ``s`` evicts, and the overflow tag.

    The LRU non-speculative way, else (every way holds uncommitted
    speculative data: an overflow) the LRU way, whose owner is reported
    so the caller can commit it early.
    """
    for addr, line in s.items():  # iterates LRU -> MRU
        if not isinstance(line, CacheLine):  # None or _DIRTY
            return addr, None
    addr, line = next(iter(s.items()))
    return addr, cast(CacheLine, line).spec_writer


class Cache:
    """One level of set-associative cache, LRU within each set."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        #: set index -> set (``CacheHierarchy.access`` reads it: see
        #: :meth:`touch`)
        self._sets: Dict[int, CacheSet] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def touch(self, line_addr: int) -> bool:
        """Is the line resident?  Counts the hit or miss and moves a hit
        to MRU; builds nothing.  :meth:`CacheHierarchy.access
        <repro.memory.hierarchy.CacheHierarchy.access>` inlines this on
        both levels: two calls per access cost ~8% of ``chunks_per_s``
        on LU at 64 cores."""
        s = self._sets.get(line_addr % self.n_sets)
        if s is None or line_addr not in s:
            self.misses += 1
            return False
        self.hits += 1
        # popping and re-inserting moves the key to the MRU (last) position
        s[line_addr] = s.pop(line_addr)
        return True

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """:meth:`touch`, returning the resident line or None."""
        return self.peek(line_addr) if self.touch(line_addr) else None

    def peek(self, line_addr: int) -> Optional[CacheLine]:
        """Lookup without LRU update or hit/miss accounting.  A
        speculative line is the cache's own; any other is built for the
        caller, and changing it changes nothing in the cache."""
        s = self._sets.get(line_addr % self.n_sets)
        if s is None or line_addr not in s:
            return None
        return _built(line_addr, s[line_addr])

    def fill(self, line_addr: int) -> EvictionResult:
        """Insert a line, evicting the LRU non-speculative way if needed."""
        s = self._sets.setdefault(line_addr % self.n_sets, {})
        result = EvictionResult()
        if line_addr in s:
            s[line_addr] = s.pop(line_addr)  # re-insert at MRU
            return result
        if len(s) >= self.assoc:
            victim_addr, result.overflow_ctag = _victim(s)
            result.line = _built(victim_addr, s.pop(victim_addr))
            self.evictions += 1
        s[line_addr] = None
        return result

    def install(self, line_addr: int) -> None:
        """:meth:`fill` for a caller that drops the victim (a write-through
        L1, the prewarm): same residency, LRU order and eviction count,
        without building an :class:`EvictionResult`."""
        idx = line_addr % self.n_sets
        s = self._sets.get(idx)
        if s is None:
            self._sets[idx] = {line_addr: None}
            return
        if line_addr in s:
            s[line_addr] = s.pop(line_addr)
            return
        if len(s) >= self.assoc:
            del s[_victim(s)[0]]
            self.evictions += 1
        s[line_addr] = None

    def fill_many(self, lines: Iterable[int]) -> None:
        """Bulk fill (prewarm): repeated :meth:`install` calls."""
        if self._sets:
            for line_addr in lines:
                self.install(line_addr)
            return
        # Fast path for an empty cache (the prewarm case): every inserted
        # line is clean, so replacement is pure LRU — the first key of a
        # full set is the victim.
        n_sets = self.n_sets
        assoc = self.assoc
        sets = self._sets
        sets_get = sets.get
        evictions = 0
        for line_addr in lines:
            idx = line_addr % n_sets
            s = sets_get(idx)
            if s is None:
                sets[idx] = {line_addr: None}
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

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Drop a line (bulk invalidation / squash). Returns it if present."""
        s = self._sets.get(line_addr % self.n_sets)
        if s is None or line_addr not in s:
            return None
        return _built(line_addr, s.pop(line_addr))

    def mark_spec_write(self, line_addr: int, ctag: object) -> bool:
        """Tag a resident line as speculatively written by ``ctag``."""
        s = self._sets.get(line_addr % self.n_sets)
        if s is None or line_addr not in s:
            return False
        line = s[line_addr]
        if isinstance(line, CacheLine):
            line.spec_writer = ctag
        else:  # None or _DIRTY
            s[line_addr] = CacheLine(line_addr, dirty=line is _DIRTY,
                                     spec_writer=ctag)
        return True

    def commit_spec(self, line_addr: int, ctag: object) -> bool:
        """Promote a speculative line to committed-dirty state."""
        s = self._sets.get(line_addr % self.n_sets)
        if s is None:
            return False
        line = s.get(line_addr)
        # None and _DIRTY are not speculative
        if not isinstance(line, CacheLine) or line.spec_writer != ctag:
            return False
        s[line_addr] = _DIRTY
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self):
        """Iterate all resident line addresses (tests / validators)."""
        for s in self._sets.values():
            yield from s.keys()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, line_addr: int) -> bool:
        s = self._sets.get(line_addr % self.n_sets)
        return s is not None and line_addr in s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Cache(sets={self.n_sets}, assoc={self.assoc}, "
                f"occupancy={self.occupancy})")


__all__ = ["Cache", "CacheLine", "EvictionResult"]
