"""Deterministic synthetic trace generation from an AppProfile.

The total work of an application is fixed (strong scaling, as in the
paper's Figures 7/8): it consists of ``n_partitions`` partitions, each with
``chunks_per_partition`` chunks of ``chunk_instructions`` instructions.  A
run with P active cores assigns partition j to core ``j % P``; the
single-processor baseline therefore executes every partition on core 0,
touching the union of all working sets — which is what produces the
paper's superlinear speedups for large-footprint applications.

Chunk contents are generated from a RNG keyed by
(seed, app, partition, chunk index), so every protocol and every machine
size replays the identical access stream for the same piece of work.

Address-space layout (byte addresses):

* partition-private region: ``PRIVATE_BASE + partition * stride``
* shared region:            ``SHARED_BASE``
* hot contended lines:      ``HOT_BASE``
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.engine.rng import DeterministicRng
from repro.workloads.profiles import AppProfile

PRIVATE_BASE = 1 << 22
SHARED_BASE = 1 << 28
HOT_BASE = 1 << 30


class SyntheticWorkload:
    """Generates and dispenses chunk specs for one application run."""

    def __init__(self, profile: AppProfile, config: SystemConfig,
                 active_cores: int, chunks_per_partition: int,
                 n_partitions: Optional[int] = None,
                 access_scale: float = 1.0, seed: Optional[int] = None) -> None:
        if active_cores < 1:
            raise ValueError("need at least one active core")
        self.profile = profile
        self.config = config
        self.active_cores = min(active_cores, config.n_cores)
        self.chunks_per_partition = chunks_per_partition
        #: reference machine size fixing the total work (default: the
        #: machine itself, so a 64-core run has one partition per core)
        self.n_partitions = n_partitions or config.n_cores
        self.access_scale = access_scale
        self.seed = config.seed if seed is None else seed
        self._root = DeterministicRng(self.seed, f"workload/{profile.name}")

        self.line_bytes = config.line_bytes
        self.page_bytes = config.page_bytes
        self.lines_per_page = config.lines_per_page

        # Per-core schedule: partition-major, chunks in order.
        self._schedule: Dict[int, List] = {c: [] for c in range(self.active_cores)}
        for part in range(self.n_partitions):
            core = part % self.active_cores
            for idx in range(self.chunks_per_partition):
                self._schedule[core].append((part, idx))
        self._cursor = {c: 0 for c in range(self.active_cores)}

    # ------------------------------------------------------------------
    # Page pre-mapping (the initialization phase's first touches)
    # ------------------------------------------------------------------
    def premap_pages(self, mapper) -> None:
        """Assign homes as the (unsimulated) init phase would have.

        Scattered sharing patterns (bucket/uniform/readmostly) end up
        page-interleaved across all directories — this is what produces
        the paper's multi-directory commit groups.  Neighbour patterns are
        homed at the partition that owns each slab (parallel init), and
        partition-private pages at their owner core.
        """
        p = self.profile
        n_dirs = mapper.n_directories
        shared_base = SHARED_BASE // self.page_bytes
        for i in range(p.shared_pages):
            if p.sharing_pattern == "neighbor":
                slab = max(1, p.shared_pages // max(1, self.n_partitions))
                owner_part = min(i // slab, self.n_partitions - 1)
                home = owner_part % self.active_cores
            else:
                home = i % n_dirs
            mapper.premap(shared_base + i, home)
        hot_page = HOT_BASE // self.page_bytes
        mapper.premap(hot_page, 0)
        private_base = PRIVATE_BASE // self.page_bytes
        stride = p.private_pages_per_partition + 8
        for part in range(self.n_partitions):
            owner = part % self.active_cores
            for j in range(p.private_pages_per_partition):
                mapper.premap(private_base + part * stride + j, owner)

    # ------------------------------------------------------------------
    # Cache prewarming (measurement starts after app warmup)
    # ------------------------------------------------------------------
    def prewarm_plan(self):
        """Yield (core_id, line_addr) fills for the steady-state caches.

        Each core gets the private working set of its partitions plus its
        own write slices of the shared region (bucket/uniform patterns) or
        its full slab (neighbour patterns).  Lines another core must read
        remotely remain cold, so communication misses — and the paper's
        RemoteShRd/RemoteDirtyRd traffic — still happen.  For the
        single-processor baseline, core 0 receives *every* partition's
        working set in sequence, so anything beyond one L2 naturally
        thrashes (the source of the paper's superlinear speedups).
        """
        for core, start, count in self.prewarm_runs():
            for line in range(start, start + count):
                yield core, line

    def prewarm_runs(self):
        """``prewarm_plan`` with consecutive lines coalesced into runs.

        Yields (core_id, start_line, count) triples; flattening each run
        back to per-line fills reproduces :meth:`prewarm_plan`'s sequence
        one-to-one (it is *defined* as this flattening).  The prewarm set
        is tens of thousands of lines laid out page-by-page, so the
        run-level view lets :meth:`Machine.prewarm
        <repro.harness.runner.Machine.prewarm>` amortize per-page work
        (home lookup, cache set walks) over whole runs.
        """
        p = self.profile
        lpp = self.lines_per_page
        private_base = PRIVATE_BASE // self.page_bytes
        shared_base = SHARED_BASE // self.page_bytes
        stride = p.private_pages_per_partition + 8
        slab = max(1, p.shared_pages // max(1, self.n_partitions))
        for part in range(self.n_partitions):
            core = part % self.active_cores
            for j in range(p.private_pages_per_partition):
                page = private_base + part * stride + j
                yield core, page * lpp, lpp
            if p.sharing_pattern == "neighbor":
                for j in range(slab):
                    page = shared_base + (part * slab + j) % p.shared_pages
                    yield core, page * lpp, lpp
            elif p.sharing_pattern in ("bucket", "uniform"):
                for j in range(p.shared_pages):
                    page = shared_base + j
                    start, per = self._slice_bounds(page, part)
                    if per:
                        yield core, start, per
        if p.sharing_pattern != "neighbor":
            # In steady state every shared page is resident in *some* cache
            # (page-interleaved across the active cores), so shared reads
            # are remote cache-to-cache transfers, not memory fetches.
            for j in range(p.shared_pages):
                page = shared_base + j
                yield j % self.active_cores, page * lpp, lpp
        hot_page = HOT_BASE // self.page_bytes
        yield 0, hot_page * lpp, lpp

    # ------------------------------------------------------------------
    # Dispensing (the Core's next_spec callback)
    # ------------------------------------------------------------------
    def next_spec(self, core_id: int) -> Optional[ChunkSpec]:
        sched = self._schedule.get(core_id)
        if not sched:
            return None
        i = self._cursor[core_id]
        if i >= len(sched):
            return None
        self._cursor[core_id] = i + 1
        part, idx = sched[i]
        return self.generate_chunk(part, idx)

    @property
    def total_chunks(self) -> int:
        return self.n_partitions * self.chunks_per_partition

    def remaining(self, core_id: int) -> int:
        sched = self._schedule.get(core_id, [])
        return len(sched) - self._cursor.get(core_id, 0)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_chunk(self, partition: int, chunk_idx: int) -> ChunkSpec:
        """Deterministically build the (partition, chunk_idx) chunk.

        One generated access stands for (roughly) one *distinct* cache
        line; the reuse accesses a real program would issue are L1 hits
        folded into the instruction gaps, so they cost pipeline cycles but
        need no simulation events.
        """
        p = self.profile
        rng = self._root.split(f"{partition}/{chunk_idx}")
        n_instr = self.config.chunk_size_instructions
        n_acc = max(4, int(p.lines_per_chunk * self.access_scale))
        n_acc = min(n_acc, n_instr)

        shared_pages = self._chunk_shared_pages(rng, partition)
        written_pages = self._written_subset(rng, shared_pages)
        private_pages = self._chunk_private_pages(rng, partition, chunk_idx)
        include_hot = rng.bernoulli(p.hot_conflict_prob)

        # Interleave shared runs into the private stream.
        n_shared = round(n_acc * p.shared_frac) if shared_pages else 0
        shared_slots = set(rng.sample(range(n_acc), min(n_shared, n_acc)))

        base_gap = max(0, (n_instr - n_acc) // n_acc)
        slack = n_instr - n_acc * (base_gap + 1)

        # The loop below makes every draw the per-access helpers would, in
        # the same order; it only binds what it reads to locals.
        draw = rng.random            # bernoulli(q) is draw() < q
        # what ChunkAccess(...) runs, minus the namedtuple's Python frame
        new_access = tuple.__new__
        line_bytes = self.line_bytes
        lines_per_page = self.lines_per_page
        write_frac = p.write_frac
        n_private = len(private_pages)
        private_run_p = 1.0 / max(1, p.locality_run)
        shared_run_p = 1.0 / max(1, p.shared_locality_run)
        hot_slot = n_acc // 2 if include_hot else -1
        accesses: List[ChunkAccess] = []
        append = accesses.append
        priv_cursor = 0      # private spatial-run position (line address)
        priv_left = 0        # accesses left in the run (0: start a new one)
        sh_cursor = 0        # shared run position
        sh_left = 0
        sh_write = False
        for i in range(n_acc):
            gap = base_gap
            if slack > 0:
                gap += 1
                slack -= 1
            if i == hot_slot:
                line = self._hot_line(rng)
                append(new_access(ChunkAccess,
                                  (gap, line * line_bytes, draw() < 0.5)))
                continue
            if i in shared_slots:
                if sh_left <= 0:
                    page = shared_pages[rng.zipf_index(len(shared_pages), 0.3)]
                    page_written = page in written_pages
                    if page_written and p.sharing_pattern == "bucket":
                        # Bucket (scatter) pages are write-only targets.
                        sh_write = True
                    else:
                        sh_write = (page_written and
                                    draw() < self._page_write_prob(page))
                    sh_cursor = self._shared_start_line(
                        rng, page, partition, sh_write,
                        page_written=page_written)
                    sh_left = max(1, rng.geometric(shared_run_p))
                else:
                    sh_cursor = self._advance_in_slice(sh_cursor, partition,
                                                       sh_write)
                sh_left -= 1
                append(new_access(ChunkAccess,
                                  (gap, sh_cursor * line_bytes, sh_write)))
            else:
                if priv_left <= 0:
                    page = private_pages[rng.zipf_index(n_private, 0.2)]
                    priv_cursor = self._line_in_page(rng, page)
                    priv_left = max(1, rng.geometric(private_run_p))
                else:
                    priv_cursor += 1
                    if priv_cursor % lines_per_page == 0:
                        priv_cursor -= lines_per_page  # stay on the page
                priv_left -= 1
                append(new_access(ChunkAccess, (gap, priv_cursor * line_bytes,
                                                draw() < write_frac)))
        return ChunkSpec(n_instructions=n_instr, accesses=accesses)

    # ------------------------------------------------------------------
    # Shared-region slicing (disjoint writes)
    # ------------------------------------------------------------------
    def _slice_bounds(self, page: int, partition: int):
        """The partition-owned line slice of a shared page."""
        per = max(1, self.lines_per_page // max(1, self.n_partitions))
        start = page * self.lines_per_page + (partition * per) % self.lines_per_page
        return start, per

    def _shared_start_line(self, rng: DeterministicRng, page: int,
                           partition: int, is_write: bool,
                           page_written: bool = False) -> int:
        own_slice = False
        if self.profile.line_disjoint_writes:
            if is_write:
                own_slice = True
            elif page_written or self.profile.sharing_pattern in ("bucket",
                                                                  "uniform"):
                # A read of a page that concurrent chunks may be writing:
                # usually the reader's own data, occasionally another
                # partition's slice (true cross-thread communication).
                own_slice = rng.bernoulli(self.profile.read_own_slice)
        if own_slice:
            start, per = self._slice_bounds(page, partition)
            return start + rng.randint(0, per - 1)
        return self._line_in_page(rng, page)

    def _advance_in_slice(self, cursor: int, partition: int,
                          is_write: bool) -> int:
        nxt = cursor + 1
        if is_write and self.profile.line_disjoint_writes:
            page = cursor // self.lines_per_page
            start, per = self._slice_bounds(page, partition)
            if nxt >= start + per or nxt >= (page + 1) * self.lines_per_page:
                return start
            return nxt
        if nxt % self.lines_per_page == 0:
            return nxt - self.lines_per_page
        return nxt

    # ------------------------------------------------------------------
    # Region helpers
    # ------------------------------------------------------------------
    def _chunk_shared_pages(self, rng: DeterministicRng, partition: int
                            ) -> List[int]:
        p = self.profile
        lo, hi = p.shared_pages_per_chunk
        k = rng.randint(lo, hi)
        if k == 0:
            return []
        base_page = SHARED_BASE // self.page_bytes
        pages: List[int] = []
        if p.sharing_pattern == "neighbor":
            # Partition j works on a contiguous slab of the shared array and
            # exchanges boundary pages with its neighbours every sweep.
            slab = max(1, p.shared_pages // max(1, self.n_partitions))
            start = partition * slab
            pages.append(base_page + (start + rng.randint(0, slab - 1))
                         % p.shared_pages)
            for i in range(1, k):
                # boundary pages: the tail of the previous slab or the head
                # of the next one (homed at the neighbouring tile)
                off = start - 1 if i % 2 else start + slab
                pages.append(base_page + off % p.shared_pages)
        elif p.sharing_pattern in ("bucket", "uniform", "readmostly"):
            skew = 0.0 if p.sharing_pattern == "bucket" else p.zipf_skew
            for _ in range(k):
                pages.append(base_page + rng.zipf_index(p.shared_pages, skew))
        return sorted(set(pages))

    def _written_subset(self, rng: DeterministicRng, pages: List[int]) -> set:
        frac = self.profile.shared_page_write_frac
        return {pg for pg in pages if rng.bernoulli(frac)}

    def _page_write_prob(self, page: int) -> float:
        """Write probability for an access landing on a written page."""
        # Calibrated so that written pages actually carry writes while the
        # overall shared write fraction stays near the profile's value.
        return max(self.profile.shared_write_frac, 0.5)

    def _chunk_private_pages(self, rng: DeterministicRng, partition: int,
                             chunk_idx: int) -> List[int]:
        p = self.profile
        base = (PRIVATE_BASE // self.page_bytes
                + partition * (p.private_pages_per_partition + 8))
        # The chunk walks a window of the partition's working set that
        # advances one page per chunk, so consecutive chunks of the same
        # partition reuse two thirds of their window (temporal locality a
        # real blocked loop nest exhibits at any thread count).
        window = 3
        start = chunk_idx % max(1, p.private_pages_per_partition)
        return [base + (start + j) % p.private_pages_per_partition
                for j in range(min(window, p.private_pages_per_partition))]

    def _line_in_page(self, rng: DeterministicRng, page: int) -> int:
        return page * self.lines_per_page + rng.randint(
            0, self.lines_per_page - 1)

    def _hot_line(self, rng: DeterministicRng) -> int:
        base_line = HOT_BASE // self.line_bytes
        return base_line + rng.randint(0, self.profile.hot_lines - 1)


__all__ = ["HOT_BASE", "PRIVATE_BASE", "SHARED_BASE", "SyntheticWorkload"]
