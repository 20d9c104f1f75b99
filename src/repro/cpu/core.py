"""Core model: burst execution of chunked access traces, squash/commit flow.

Execution model (paper Section 5): in-order cores, one instruction per
cycle, memory stalls on top.  Within a chunk the core runs in *bursts*:
local cache hits are costed synchronously; an L2 miss suspends the burst,
issues a read to the line's home directory, and resumes when data returns
(or retries on a nack while the line is locked by a commit, Section 3.1).

Chunk lifecycle::

    EXECUTING --exec done--> WAIT_COMMIT --head of queue--> COMMITTING
        ^                                                        |
        |                  squash (conflict / alias)             v
        +----------------- re-execute (gen+1) <------- COMMITTED / SQUASHED

A core may have up to ``max_active_chunks_per_core`` chunks alive (default
2: one executing, one committing).  Commits from one core are strictly
ordered: only the oldest completed chunk has a commit request in flight.
Squashing a chunk also squashes every younger active chunk of that core
(they may have consumed its speculative data).

Time accounting matches the paper's Figure 7/8 breakdown:

* **Useful** — 1 cycle per instruction of chunks that eventually commit;
* **Cache Miss** — stall cycles of chunks that eventually commit;
* **Commit** — cycles the core is blocked because all chunk slots are
  occupied by not-yet-committed chunks;
* **Squash** — wall-clock execution time of attempts that were squashed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.config import SystemConfig
from repro.cpu.chunk import Chunk, ChunkSpec, ChunkState, ChunkTag
from repro.engine.events import Event, Simulator
from repro.memory.hierarchy import REMOTE, CacheHierarchy
from repro.memory.page_map import PageMapper
from repro.network.message import MessageType, core_node, dir_node
from repro.network.noc import Network
from repro.obs.bus import NULL_BUS, NullBus
from repro.signatures.bulk_signature import SignatureFactory


@dataclass
class CoreStats:
    """Per-core cycle and event accounting."""

    useful_cycles: int = 0
    miss_stall_cycles: int = 0
    commit_stall_cycles: int = 0
    squash_cycles: int = 0
    chunks_committed: int = 0
    chunks_started: int = 0
    squashes_conflict: int = 0   #: squashes due to true data conflicts
    squashes_alias: int = 0      #: squashes due to signature aliasing
    read_nacks: int = 0
    overflow_truncations: int = 0
    finish_time: int = 0

    @property
    def total_accounted(self) -> int:
        return (self.useful_cycles + self.miss_stall_cycles
                + self.commit_stall_cycles + self.squash_cycles)


class _ExecCtx:
    """State of the currently executing chunk attempt."""

    __slots__ = ("chunk", "idx", "epoch", "consumed_instr", "acc_useful",
                 "acc_miss", "waiting_line", "waiting_is_write",
                 "waiting_since", "pending_event")

    def __init__(self, chunk: Chunk, epoch: int) -> None:
        self.chunk = chunk
        self.idx = 0
        self.epoch = epoch
        self.consumed_instr = 0
        self.acc_useful = 0
        self.acc_miss = 0
        self.waiting_line: Optional[int] = None
        self.waiting_is_write = False
        self.waiting_since = 0
        self.pending_event: Optional[Event] = None


class Core:
    """One processor tile: executes chunks and drives the commit queue."""

    def __init__(self, core_id: int, config: SystemConfig, sim: Simulator,
                 network: Network, page_mapper: PageMapper,
                 sig_factory: SignatureFactory,
                 next_spec: Callable[[int], Optional[ChunkSpec]]) -> None:
        self.core_id = core_id
        self.config = config
        self.sim = sim
        self.network = network
        self.page_mapper = page_mapper
        self.sig_factory = sig_factory
        self.next_spec = next_spec
        self.node = core_node(core_id)
        self.hierarchy = CacheHierarchy(core_id, config, self._send_writeback)
        self.stats = CoreStats()
        self.engine = None  #: protocol processor engine, attached by the runner
        self.obs: NullBus = NULL_BUS  #: instrumentation sink (repro.obs)

        self._exec: Optional[_ExecCtx] = None
        self._epoch = 0
        self._next_seq = 0
        self._commit_queue: List[Chunk] = []      # oldest first; head may be in flight
        self._respec: Deque[Chunk] = deque()      # squashed chunks to re-execute
        self._blocked_since: Optional[int] = None
        self.finished = False
        self._workload_exhausted = False
        self._line_bytes = config.line_bytes

    # ------------------------------------------------------------------
    # Introspection for protocol engines
    # ------------------------------------------------------------------
    def active_chunks(self) -> List[Chunk]:
        """All live chunks, oldest first (commit queue then executing)."""
        chunks = list(self._commit_queue)
        if self._exec is not None:
            chunks.append(self._exec.chunk)
        return chunks

    @property
    def committing_head(self) -> Optional[Chunk]:
        """The chunk whose commit request is in flight, if any."""
        if self._commit_queue and self._commit_queue[0].state is ChunkState.COMMITTING:
            return self._commit_queue[0]
        return None

    # ------------------------------------------------------------------
    # Startup / teardown
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(0, self._try_start_exec)

    def _maybe_finish(self) -> None:
        if (self._workload_exhausted and self._exec is None
                and not self._respec and not self._commit_queue
                and not self.finished):
            self.finished = True
            self.stats.finish_time = self.sim.now

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _try_start_exec(self) -> None:
        if self._exec is not None or self.finished:
            return
        if len(self._commit_queue) >= self.config.max_active_chunks_per_core:
            if self._blocked_since is None:
                self._blocked_since = self.sim.now
            return
        chunk = self._pull_next_chunk()
        if chunk is None:
            self._workload_exhausted = True
            self._maybe_finish()
            return
        chunk.state = ChunkState.EXECUTING
        chunk.start_time = self.sim.now
        self._epoch += 1
        self._exec = _ExecCtx(chunk, self._epoch)
        self.stats.chunks_started += 1
        if self.obs.enabled:
            self.obs.exec_start(self.sim.now, self.core_id, chunk.tag)
        self._run_burst()

    def _pull_next_chunk(self) -> Optional[Chunk]:
        if self._respec:
            return self._respec.popleft()
        spec = self.next_spec(self.core_id)
        if spec is None:
            return None
        tag = ChunkTag(self.core_id, self._next_seq, 0)
        self._next_seq += 1
        return Chunk(tag=tag, spec=spec, sig_factory=self.sig_factory,
                     line_bytes=self._line_bytes)

    def _run_burst(self) -> None:
        """Advance the current chunk until a remote miss or completion.

        A burst runs inside one event and sends no message, so nothing
        can probe the chunk before it ends: its read and write lines are
        collected and folded into the chunk once, when the burst stops.
        A line's home is looked up once per run of accesses to its page.
        """
        ctx = self._exec
        assert ctx is not None
        chunk = ctx.chunk
        tag = chunk.tag
        accesses = chunk.spec.accesses
        n_accesses = len(accesses)
        access = self.hierarchy.access
        home_of_page = self.page_mapper.home_of_page
        add_dir = chunk.dirs.add
        add_dir_written = chunk.dirs_written.add
        line_bytes = self._line_bytes
        page_bytes = self.config.page_bytes
        core_id = self.core_id
        reads: List[int] = []
        writes: List[int] = []
        idx = ctx.idx
        instr = 0       # gap + 1 per access: useful and elapsed cycles
        stall = 0       # local (L2 round-trip) stall cycles
        page = home = -1
        remote = False
        while idx < n_accesses:
            gap, byte_addr, is_write = accesses[idx]
            idx += 1
            instr += gap + 1
            line = byte_addr // line_bytes
            if byte_addr // page_bytes != page:
                page = byte_addr // page_bytes
                home = home_of_page(page, core_id)
                add_dir(home)
            if is_write:
                writes.append(line)
                add_dir_written(home)
            else:
                reads.append(line)
            cycles = access(line, is_write, tag)
            if cycles == REMOTE:
                remote = True
                break
            stall += cycles
        chunk.fold(reads, writes)
        ctx.idx = idx
        ctx.consumed_instr += instr
        ctx.acc_useful += instr
        ctx.acc_miss += stall
        elapsed = instr + stall

        if remote:
            ctx.waiting_line = line
            ctx.waiting_is_write = is_write
            # the stall clock starts when the core reaches the access
            ctx.waiting_since = self.sim.now + elapsed
            prefetches = self._lookahead_misses(ctx, line)
            ctx.pending_event = self.sim.schedule(
                elapsed,
                lambda e=ctx.epoch, l=line, pf=prefetches:
                    self._issue_read(e, l, pf),
            )
            return
        trailing = max(0, chunk.spec.n_instructions - ctx.consumed_instr)
        elapsed += trailing
        ctx.acc_useful += trailing
        ctx.pending_event = self.sim.schedule(
            elapsed, lambda e=ctx.epoch: self._exec_complete(e))

    def _lookahead_misses(self, ctx: _ExecCtx, blocking_line: int) -> list:
        """ROB/MSHR overlap: further missing lines of this chunk that can
        be fetched concurrently with the blocking miss."""
        budget = self.config.mlp_lookahead - 1
        if budget <= 0:
            return []
        found: List[int] = []
        seen = {blocking_line}
        accesses = ctx.chunk.spec.accesses
        l1 = self.hierarchy.l1
        l2 = self.hierarchy.l2
        for j in range(ctx.idx, min(ctx.idx + 24, len(accesses))):
            line = accesses[j].byte_addr // self._line_bytes
            if line in seen:
                continue
            seen.add(line)
            if line not in l1 and line not in l2:
                found.append(line)
                if len(found) >= budget:
                    break
        return found

    def _issue_read(self, epoch: int, line: int, prefetches=()) -> None:
        ctx = self._exec
        if ctx is None or ctx.epoch != epoch:
            return
        if ctx.waiting_since == 0:
            ctx.waiting_since = self.sim.now
        for target in (line, *prefetches):
            home = self.page_mapper.home_of_page(
                target * self._line_bytes // self.config.page_bytes,
                self.core_id)
            self.network.unicast(
                MessageType.READ_REQ, self.node, dir_node(home),
                line=target, requester=self.core_id,
            )

    def on_data(self, line: int) -> None:
        """A DATA_FROM_{MEM,SHARER,OWNER} reply arrived."""
        ctx = self._exec
        if ctx is None or ctx.waiting_line != line:
            # Stale reply for a squashed attempt: install and move on.
            self.hierarchy.fill_remote(line)
            return
        overflow_ctag = self.hierarchy.fill_remote(
            line, is_write=ctx.waiting_is_write, ctag=ctx.chunk.tag)
        ctx.acc_miss += max(0, self.sim.now - ctx.waiting_since)
        ctx.waiting_line = None
        ctx.waiting_since = 0
        if ctx.pending_event is not None:
            # a not-yet-fired issue for this line (its prefetch beat it)
            ctx.pending_event.cancel()
            ctx.pending_event = None
        if overflow_ctag == ctx.chunk.tag:
            ctx.chunk.truncated = True
            self.stats.overflow_truncations += 1
            self._exec_complete(ctx.epoch)
        else:
            self._run_burst()

    def on_read_nack(self, line: int) -> None:
        """The home directory bounced our read: retry after a backoff."""
        ctx = self._exec
        if ctx is None or ctx.waiting_line != line:
            return
        self.stats.read_nacks += 1
        ctx.pending_event = self.sim.schedule(
            self.config.nack_retry_backoff_cycles,
            lambda e=ctx.epoch, l=line: self._issue_read(e, l),
        )

    def _exec_complete(self, epoch: int) -> None:
        ctx = self._exec
        if ctx is None or ctx.epoch != epoch:
            return
        chunk = ctx.chunk
        chunk.state = ChunkState.WAIT_COMMIT
        chunk.exec_done_time = self.sim.now
        if self.obs.enabled:
            self.obs.exec_done(self.sim.now, self.core_id, chunk.tag)
        # Bank the attempt's cycles on the chunk; they move to core stats
        # only when the chunk commits (squashes waste them instead).
        chunk.acc_useful = ctx.acc_useful
        chunk.acc_miss = ctx.acc_miss
        self._exec = None
        self._commit_queue.append(chunk)
        if len(self._commit_queue) == 1:
            self._send_head_commit()
        self._try_start_exec()

    # ------------------------------------------------------------------
    # Commit flow
    # ------------------------------------------------------------------
    def _send_head_commit(self) -> None:
        head = self._commit_queue[0]
        head.state = ChunkState.COMMITTING
        head.commit_request_time = self.sim.now
        if head.first_commit_request_time < 0:
            head.first_commit_request_time = self.sim.now
        self.engine.request_commit(head)

    def on_commit_success(self, chunk: Chunk) -> None:
        """Protocol engine reports the head chunk committed."""
        assert self._commit_queue and self._commit_queue[0] is chunk, (
            f"commit success for non-head chunk {chunk.tag}")
        self._commit_queue.pop(0)
        chunk.state = ChunkState.COMMITTED
        chunk.commit_done_time = self.sim.now
        if self.obs.enabled:
            self.obs.commit_complete(self.sim.now, self.core_id, chunk.tag,
                                     len(chunk.dirs))
        self.hierarchy.commit_chunk(chunk.tag)
        self.stats.useful_cycles += chunk.acc_useful
        self.stats.miss_stall_cycles += chunk.acc_miss
        self.stats.chunks_committed += 1
        if self._commit_queue:
            self._send_head_commit()
        self._release_block()
        self._try_start_exec()
        self._maybe_finish()

    def _release_block(self) -> None:
        if (self._blocked_since is not None
                and len(self._commit_queue) < self.config.max_active_chunks_per_core):
            self.stats.commit_stall_cycles += self.sim.now - self._blocked_since
            self._blocked_since = None

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------
    def squash_from(self, chunk: Chunk, *, true_conflict: bool) -> List[Chunk]:
        """Squash ``chunk`` and every younger active chunk of this core.

        Returns the squashed chunks (oldest first).  The protocol engine is
        responsible for any in-flight-commit cleanup (recall) for the head.
        """
        victims: List[Chunk] = []
        for c in self.active_chunks():
            if victims or c is chunk:
                victims.append(c)
        if not victims:
            return []

        reason = "conflict" if true_conflict else "alias"
        for i, c in enumerate(victims):
            if self.obs.enabled:
                self.obs.squash(self.sim.now, self.core_id, c.tag, reason)
            end = c.exec_done_time if c.exec_done_time >= 0 else self.sim.now
            if c.state is ChunkState.EXECUTING:
                end = self.sim.now
            self.stats.squash_cycles += max(0, end - c.start_time)
            self.hierarchy.squash_chunk(c.tag)
            c.state = ChunkState.SQUASHED
            if i == 0:
                if true_conflict:
                    self.stats.squashes_conflict += 1
                else:
                    self.stats.squashes_alias += 1
            self._respec.append(c.reset_for_retry())

        victim_set = {id(c) for c in victims}
        self._commit_queue = [c for c in self._commit_queue
                              if id(c) not in victim_set]
        if self._exec is not None and id(self._exec.chunk) in victim_set:
            if self._exec.pending_event is not None:
                self._exec.pending_event.cancel()
            self._exec = None
            self._epoch += 1

        # If the surviving head lost its follower nothing changes; if the
        # head itself was squashed the engine has already cancelled the
        # in-flight request, and a new head (if any) must be (re)requested.
        if self._commit_queue and self._commit_queue[0].state is ChunkState.WAIT_COMMIT:
            self._send_head_commit()
        self._release_block()
        self._try_start_exec()
        return victims

    # ------------------------------------------------------------------
    # Invalidations / writebacks
    # ------------------------------------------------------------------
    def apply_invalidation(self, lines) -> int:
        """Drop the given lines from the local caches; returns hits."""
        return self.hierarchy.invalidate_lines(lines)

    def _send_writeback(self, line: int) -> None:
        home = self.page_mapper.lookup(
            line * self._line_bytes // self.config.page_bytes)
        if home is None:
            return
        self.network.unicast(
            MessageType.WRITEBACK, self.node, dir_node(home),
            line=line, writer=self.core_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Core({self.core_id}, queue={len(self._commit_queue)}, "
                f"executing={self._exec is not None})")


__all__ = ["Core", "CoreStats"]
