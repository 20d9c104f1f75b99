"""The unified instrumentation bus: typed hook points, zero-cost when off.

Every instrumented component (simulator, NoC, cores, directory modules,
processor engines, central agents) owns an ``obs`` attribute that defaults
to :data:`NULL_BUS` — a shared :class:`NullBus` whose hook methods are all
no-ops and whose ``enabled`` flag is ``False``.  Emit sites are written as::

    if self.obs.enabled:
        self.obs.group_formed(self.sim.now, self.dir_id, cid, proc, order)

so a run with no sink attached pays one attribute load and one falsy check
per hook point, never builds event payloads, and schedules exactly the same
simulator events as a build with no instrumentation at all.  The
determinism regression tests assert this: stats and event order are
byte-identical with and without an attached bus.

:class:`InstrumentationBus` is the live sink.  Each typed hook appends one
:class:`ObsEvent` to ``bus.events`` (messages can be muted with
``record_messages=False``) and feeds the on-event gauge rings in
``bus.gauges`` (see :mod:`repro.obs.gauges`).  Exporters and the commit
critical-path analyzer consume the same recorded stream.

Hook-point catalog (see ``docs/observability.md`` for the full table):

=================  =================================  =====================
hook               emitted from                       payload
=================  =================================  =====================
``sim_step``       engine/events.py (gauge only)      event-queue depth
``msg_send``       network/noc.py                     type, src, dst, lat
``msg_recv``       network/noc.py                     type, src, dst
``exec_start``     cpu/core.py                        core, chunk tag
``exec_done``      cpu/core.py                        core, chunk tag
``squash``         cpu/core.py                        victim tag, reason
``commit_request`` protocols/base.py                  cid, touched dirs
``commit_retry``   protocols/base.py                  cid
``commit_complete`` cpu/core.py                       chunk tag, n_dirs
``grab_recv``      core/directory_engine.py           dir, cid
``grab_admit``     core/directory_engine.py           dir, cid, successor
``group_formed``   directory / baseline engines       dir (None = agent),
                                                      write lines, targets
``group_failed``   core/directory_engine.py           dir, cid, genuine
``commit_finished`` core/directory_engine.py          leader dir, cid
``dir_occupancy``  directories (gauge only)           CST / queue depth
``dir_nack``       directory engines                  dir, cid, nacker
``oci_recall``     core/processor_engine.py           cid, collision dir
``arbiter_decision`` baselines/bulksc.py              cid, ok, in-flight
``watchdog_fire``  faults/watchdog.py                 fires, commits, state
``state_access``   analysis/races/sanitizer.py        cls, handler, attr, op
=================  =================================  =====================

**Instruments.**  Every checker, tracer, watchdog, profiler and
perturbation subclasses :class:`NullBus`, overrides only the hooks it
reads, and is handed to ``Machine.run(instruments=[...])``, which calls
each one's :meth:`~NullBus.attach`, runs, and calls its
:meth:`~NullBus.finish` whether the run raised or not.  A
:class:`FanOut` over the list becomes the components' ``obs``; when no
instrument overrides a hook a component emits, that component keeps
:data:`NULL_BUS` (a profiler-only run times the untraced code path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set)

from repro.obs.gauges import DEFAULT_CAPACITY, GaugeSet

# -- event kinds (the typed hook points) -------------------------------
SIM_STEP = "sim_step"
MSG_SEND = "msg_send"
MSG_RECV = "msg_recv"
EXEC_START = "exec_start"
EXEC_DONE = "exec_done"
SQUASH = "squash"
COMMIT_REQUEST = "commit_request"
COMMIT_RETRY = "commit_retry"
COMMIT_COMPLETE = "commit_complete"
GRAB_RECV = "grab_recv"
GRAB_ADMIT = "grab_admit"
GROUP_FORMED = "group_formed"
GROUP_FAILED = "group_failed"
COMMIT_FINISHED = "commit_finished"
DIR_OCCUPANCY = "dir_occupancy"
DIR_NACK = "dir_nack"
OCI_RECALL = "oci_recall"
ARBITER_DECISION = "arbiter_decision"
WATCHDOG_FIRE = "watchdog_fire"
STATE_ACCESS = "state_access"

#: Hooks that feed gauges only and never enter the event stream.
GAUGE_ONLY_KINDS = frozenset({SIM_STEP, DIR_OCCUPANCY})


def ctag_str(ctag: Any) -> Optional[str]:
    """Stable, human-readable form of a chunk tag or commit id.

    Commit ids are ``(ChunkTag, attempt)`` tuples; they render as
    ``P0.c1.g0#2`` (attempt 2 of chunk P0.c1.g0).  Plain tags render via
    their own ``__str__``.
    """
    if ctag is None:
        return None
    if isinstance(ctag, tuple) and len(ctag) == 2 and isinstance(ctag[1], int):
        return f"{ctag[0]}#{ctag[1]}"
    return str(ctag)


@dataclass
class ObsEvent:
    """One recorded hook firing."""

    time: int
    kind: str
    src: str                               #: "core3" | "dir5" | "noc" | "arbiter"
    ctag: Any = None                       #: chunk tag or commit id (raw object)
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "time": self.time, "kind": self.kind, "src": self.src,
            "ctag": ctag_str(self.ctag),
        }
        for key, value in self.fields.items():
            if isinstance(value, (set, frozenset)):
                value = sorted(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out


class NullBus:
    """The default sink and the base of every instrument: each hook and
    both lifecycle calls are no-ops, ``enabled`` is False.

    Components call hooks only behind an ``if self.obs.enabled:`` guard, so
    with the null bus attached no payload is ever built; these methods
    exist so an unguarded call is still safe and so every instrument
    inherits one canonical hook signature set.
    """

    enabled: bool = False

    # -- lifecycle (called by Machine.run) -------------------------------
    def attach(self, machine: Any) -> None:
        """Bind to ``machine`` before its run; raise to refuse it."""

    def finish(self, machine: Any, error: Optional[BaseException]) -> None:
        """The run ended; ``error`` is what it raised (None: it completed)."""

    # -- engine --------------------------------------------------------
    def sim_step(self, time: int, queue_depth: int) -> None:
        """One simulator event executed; ``queue_depth`` is the heap size."""

    # -- NoC -----------------------------------------------------------
    def msg_send(self, time: int, msg: Any, latency: int, hops: int) -> None:
        """A message was injected into the network."""

    def msg_recv(self, time: int, msg: Any) -> None:
        """A message was delivered to its endpoint handler."""

    # -- cores ---------------------------------------------------------
    def exec_start(self, time: int, core: int, tag: Any) -> None:
        """A chunk attempt began executing."""

    def exec_done(self, time: int, core: int, tag: Any) -> None:
        """A chunk attempt finished executing (entering WAIT_COMMIT)."""

    def squash(self, time: int, core: int, tag: Any, reason: str) -> None:
        """A chunk attempt was squashed (``reason``: conflict | alias)."""

    def commit_complete(self, time: int, core: int, tag: Any,
                        n_dirs: int) -> None:
        """The core retired a committed chunk."""

    # -- protocol engines (all protocols) ------------------------------
    def commit_request(self, time: int, core: int, cid: Any,
                       dirs: Sequence[int]) -> None:
        """A commit attempt's request left the processor."""

    def commit_retry(self, time: int, core: int, cid: Any) -> None:
        """A commit attempt failed; the processor will back off and retry."""

    # -- ScalableBulk directories --------------------------------------
    def grab_recv(self, time: int, dir_id: int, cid: Any) -> None:
        """A ``g`` (grab) message arrived at a directory module."""

    def grab_admit(self, time: int, dir_id: int, cid: Any,
                   next_dir: Optional[int]) -> None:
        """The module set its h bit; ``next_dir`` receives the grab next."""

    def group_formed(self, time: int, dir_id: Optional[int], cid: Any,
                     proc: int, order: Sequence[int],
                     write_lines: Iterable[int],
                     targets: Optional[Set[int]]) -> None:
        """A commit group formed (``dir_id`` None = a central agent).

        Fires before the commit applies.  ``targets`` are the cores the
        bulk invalidation will reach (``inval_acc | local_sharers``);
        None where no group-wide invalidation set exists (baselines)."""

    def group_failed(self, time: int, dir_id: int, cid: Any, proc: int,
                     genuine: bool, leader_here: bool) -> None:
        """This module failed the group (collision or reservation)."""

    def commit_finished(self, time: int, dir_id: int, cid: Any) -> None:
        """The leader collected all acks and released the group."""

    def dir_occupancy(self, time: int, dir_id: int, depth: int) -> None:
        """CST / service-queue depth changed (gauge only)."""

    def dir_nack(self, time: int, dir_id: int, cid: Any, proc: int) -> None:
        """A conservative processor bounced this module's invalidation."""

    # -- processor engines ---------------------------------------------
    def oci_recall(self, time: int, core: int, cid: Any,
                   collision_dir: int) -> None:
        """OCI killed an in-flight commit; a recall is being piggy-backed."""

    # -- central agents (baselines) ------------------------------------
    def arbiter_decision(self, time: int, cid: Any, ok: bool,
                         in_flight: int) -> None:
        """The BulkSC arbiter granted (ok) or nacked a commit request."""

    # -- fault injection (repro.faults) --------------------------------
    def watchdog_fire(self, time: int, fires: int, commits: int,
                      snapshot: Dict[str, Any]) -> None:
        """The liveness watchdog saw a commit-free window; ``snapshot`` is
        the live group/CST/reservation state it dumped."""

    # -- state-access sanitizer (repro.analysis.races) -----------------
    def state_access(self, time: int, src: str, cls: str, handler: str,
                     attr: str, op: str, ctag: Any) -> None:
        """The access sanitizer observed a tracked attribute change
        (``op``: grow | release | write) inside a handler invocation."""


#: The shared default sink.  Never mutated; safe to share machine-wide.
NULL_BUS = NullBus()


class InstrumentationBus(NullBus):
    """A live sink: records typed events and feeds on-event gauges."""

    enabled = True

    def __init__(self, *, record_messages: bool = True,
                 gauge_capacity: int = DEFAULT_CAPACITY) -> None:
        self.events: List[ObsEvent] = []
        self.gauges = GaugeSet(gauge_capacity)
        self.record_messages = record_messages

    # ------------------------------------------------------------------
    def _emit(self, time: int, kind: str, src: str, ctag: Any = None,
              **fields: Any) -> None:
        self.events.append(ObsEvent(time, kind, src, ctag, fields))

    # -- engine --------------------------------------------------------
    def sim_step(self, time: int, queue_depth: int) -> None:
        self.gauges.sample("sim_queue", time, queue_depth)

    # -- NoC -----------------------------------------------------------
    def msg_send(self, time: int, msg: Any, latency: int, hops: int) -> None:
        self.gauges.bump("noc_inflight", time, +1)
        if self.record_messages:
            self._emit(time, MSG_SEND, "noc", msg.ctag,
                       mtype=msg.mtype.value, src_node=str(msg.src),
                       dst_node=str(msg.dst), latency=latency, hops=hops,
                       bytes=msg.size_bytes)

    def msg_recv(self, time: int, msg: Any) -> None:
        self.gauges.bump("noc_inflight", time, -1)
        if self.record_messages:
            self._emit(time, MSG_RECV, "noc", msg.ctag,
                       mtype=msg.mtype.value, src_node=str(msg.src),
                       dst_node=str(msg.dst))

    # -- cores ---------------------------------------------------------
    def exec_start(self, time: int, core: int, tag: Any) -> None:
        self._emit(time, EXEC_START, f"core{core}", tag, core=core)

    def exec_done(self, time: int, core: int, tag: Any) -> None:
        self._emit(time, EXEC_DONE, f"core{core}", tag, core=core)

    def squash(self, time: int, core: int, tag: Any, reason: str) -> None:
        self._emit(time, SQUASH, f"core{core}", tag, core=core, reason=reason)

    def commit_complete(self, time: int, core: int, tag: Any,
                        n_dirs: int) -> None:
        self._emit(time, COMMIT_COMPLETE, f"core{core}", tag, core=core,
                   n_dirs=n_dirs)

    # -- protocol engines ----------------------------------------------
    def commit_request(self, time: int, core: int, cid: Any,
                       dirs: Sequence[int]) -> None:
        self._emit(time, COMMIT_REQUEST, f"core{core}", cid, core=core,
                   dirs=list(dirs))

    def commit_retry(self, time: int, core: int, cid: Any) -> None:
        self._emit(time, COMMIT_RETRY, f"core{core}", cid, core=core)

    # -- ScalableBulk directories --------------------------------------
    def grab_recv(self, time: int, dir_id: int, cid: Any) -> None:
        self._emit(time, GRAB_RECV, f"dir{dir_id}", cid, dir=dir_id)

    def grab_admit(self, time: int, dir_id: int, cid: Any,
                   next_dir: Optional[int]) -> None:
        self._emit(time, GRAB_ADMIT, f"dir{dir_id}", cid, dir=dir_id,
                   next_dir=next_dir)

    def group_formed(self, time: int, dir_id: Optional[int], cid: Any,
                     proc: int, order: Sequence[int],
                     write_lines: Iterable[int],
                     targets: Optional[Set[int]]) -> None:
        src = "arbiter" if dir_id is None else f"dir{dir_id}"
        self._emit(time, GROUP_FORMED, src, cid, dir=dir_id, proc=proc,
                   order=list(order))
        if dir_id is not None:
            self.gauges.bump("groups_live", time, +1)

    def group_failed(self, time: int, dir_id: int, cid: Any, proc: int,
                     genuine: bool, leader_here: bool) -> None:
        self._emit(time, GROUP_FAILED, f"dir{dir_id}", cid, dir=dir_id,
                   proc=proc, genuine=genuine, leader_here=leader_here)

    def commit_finished(self, time: int, dir_id: int, cid: Any) -> None:
        self._emit(time, COMMIT_FINISHED, f"dir{dir_id}", cid, dir=dir_id)
        self.gauges.bump("groups_live", time, -1)

    def dir_occupancy(self, time: int, dir_id: int, depth: int) -> None:
        self.gauges.sample(f"dir{dir_id}_cst", time, depth)

    def dir_nack(self, time: int, dir_id: int, cid: Any, proc: int) -> None:
        self._emit(time, DIR_NACK, f"dir{dir_id}", cid, dir=dir_id, proc=proc)
        self.gauges.bump("nacks_total", time, +1)

    # -- processor engines ---------------------------------------------
    def oci_recall(self, time: int, core: int, cid: Any,
                   collision_dir: int) -> None:
        self._emit(time, OCI_RECALL, f"core{core}", cid, core=core,
                   collision_dir=collision_dir)

    # -- central agents -------------------------------------------------
    def arbiter_decision(self, time: int, cid: Any, ok: bool,
                         in_flight: int) -> None:
        self._emit(time, ARBITER_DECISION, "arbiter", cid, ok=ok,
                   in_flight=in_flight)

    # -- fault injection -------------------------------------------------
    def watchdog_fire(self, time: int, fires: int, commits: int,
                      snapshot: Dict[str, Any]) -> None:
        self._emit(time, WATCHDOG_FIRE, "watchdog", None, fires=fires,
                   commits=commits, snapshot=snapshot)

    # -- state-access sanitizer ------------------------------------------
    def state_access(self, time: int, src: str, cls: str, handler: str,
                     attr: str, op: str, ctag: Any) -> None:
        self._emit(time, STATE_ACCESS, src, ctag, cls=cls, handler=handler,
                   attr=attr, op=op)

    # ------------------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[ObsEvent]:
        return [e for e in self.events if e.kind in kinds]

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"InstrumentationBus(events={len(self.events)}, "
                f"series={len(self.gauges.series())})")


#: Every hook point; the event-kind constants are the hook method names.
HOOKS = (SIM_STEP, MSG_SEND, MSG_RECV, EXEC_START, EXEC_DONE, SQUASH,
         COMMIT_REQUEST, COMMIT_RETRY, COMMIT_COMPLETE, GRAB_RECV,
         GRAB_ADMIT, GROUP_FORMED, GROUP_FAILED, COMMIT_FINISHED,
         DIR_OCCUPANCY, DIR_NACK, OCI_RECALL, ARBITER_DECISION,
         WATCHDOG_FIRE, STATE_ACCESS)


def _broadcast(subscribers: List[Callable[..., None]]) -> Callable[..., None]:
    def hook(*args: Any) -> None:
        for subscriber in subscribers:
            subscriber(*args)
    return hook


class FanOut(NullBus):
    """One sink over a list of instruments.

    Each hook is resolved once: with no subscriber it stays the inherited
    no-op, with one it is that instrument's bound method, with several a
    loop over them in list order.  ``hooks`` names the subscribed ones.
    """

    enabled = True

    def __init__(self, instruments: Sequence[NullBus]) -> None:
        self.hooks: Set[str] = set()
        for hook in HOOKS:
            default = getattr(NullBus, hook)
            subscribers = [getattr(i, hook) for i in instruments
                           if getattr(type(i), hook) is not default]
            if subscribers:
                self.hooks.add(hook)
                setattr(self, hook, subscribers[0] if len(subscribers) == 1
                        else _broadcast(subscribers))


def wire(machine: Any, instruments: Sequence[NullBus]) -> None:
    """Point every component's ``obs`` at the fan-out of ``instruments``.

    The event loop and the NoC emit per event and per message, so they
    take the fan-out only when a hook they emit has a subscriber; every
    component keeps :data:`NULL_BUS` when no hook has one.
    """
    fan = FanOut(instruments)
    if not fan.hooks:
        return
    machine.obs = fan
    if SIM_STEP in fan.hooks:
        machine.sim.obs = fan
    if fan.hooks & {MSG_SEND, MSG_RECV}:
        machine.network.obs = fan
    protocol = machine.protocol
    agents = [getattr(protocol, name, None) for name in ("arbiter", "vendor")]
    for component in chain(machine.cores, machine.directories,
                           getattr(protocol, "engines", ()), agents):
        if component is not None:
            component.obs = fan


__all__ = [
    "ARBITER_DECISION", "COMMIT_COMPLETE", "COMMIT_FINISHED",
    "COMMIT_REQUEST", "COMMIT_RETRY", "DIR_NACK", "DIR_OCCUPANCY",
    "EXEC_DONE", "EXEC_START", "GAUGE_ONLY_KINDS", "GRAB_ADMIT",
    "GRAB_RECV", "GROUP_FAILED", "GROUP_FORMED", "MSG_RECV", "MSG_SEND",
    "NULL_BUS", "NullBus", "InstrumentationBus", "ObsEvent", "OCI_RECALL",
    "FanOut", "HOOKS", "SIM_STEP", "SQUASH", "STATE_ACCESS", "WATCHDOG_FIRE",
    "ctag_str", "wire",
]
