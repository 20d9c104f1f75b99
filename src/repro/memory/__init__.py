"""Memory hierarchy substrate: caches, page mapping, directory state.

Per Table 2 of the paper, each tile has a private write-through L1 and a
private write-back L2; physical pages are assigned to directory modules
first-touch; one directory module per tile tracks sharers/owner per line.

Writes are *lazy*: a chunk's stores stay speculative in the local caches
(tagged with the chunk tag) and only become architecturally visible when
the chunk commits.  Squashing a chunk discards its speculative lines.
"""

from repro.memory.cache import Cache, CacheLine, EvictionResult
from repro.memory.hierarchy import REMOTE, CacheHierarchy
from repro.memory.page_map import PageMapper
from repro.memory.directory import DirectoryModule, LineInfo

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheLine",
    "DirectoryModule",
    "EvictionResult",
    "LineInfo",
    "PageMapper",
    "REMOTE",
]
