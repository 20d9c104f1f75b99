"""Runtime access sanitizer: observe the races the static pass predicted.

The static model (:mod:`repro.analysis.races.model`) says which attributes
each handler *may* touch; this module watches what a real run *does*
touch.  :class:`AccessSanitizer` is an instrument: when it attaches it
interposes on the NoC endpoint handlers of the machine (the network holds
the bound ``handle_message`` captured at build time, so wrapping happens
at the registration table, not on the instances) and fingerprints every
tracked attribute before and after each handler invocation.  Each
observed change becomes an :class:`AccessRecord` (op ``grow`` /
``release`` / ``write``), emitted on the machine's ``state_access`` hook
and grouped into per-invocation :class:`HandlerSpan` windows.  The
sanitizer also keeps the ``msg_send``/``msg_recv`` stream it hears, and
each span remembers its indices into it at entry and exit — so a span can
be joined against the messages to ask "what did this module put on the
wire while it wrote?".

State mutated by *deferred* simulator callbacks (``sim.schedule`` closures
run outside any handler) is caught lazily: the next invocation on the same
object — or the sanitizer's ``finish`` at the end of the run — diffs
against the last known fingerprint and attributes the change to the
pseudo-handler ``"<deferred>"``.

The sanitizer is strictly opt-in.  Nothing in the default run path imports
it; with it detached the machine is byte-identical to an uninstrumented
build (the NULL_BUS discipline, regression-tested in
``tests/test_races_sanitizer.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.races.model import extract_state_model
from repro.obs.bus import MSG_RECV, MSG_SEND, NullBus

#: pseudo-handler name for changes observed between handler invocations
DEFERRED = "<deferred>"

_Fingerprint = Tuple[str, int, str]  #: (kind, size, digest)
#: one heard message: (MSG_SEND | MSG_RECV, src node, dst node, mtype value)
MessageEvent = Tuple[str, str, str, str]


@dataclass(frozen=True)
class AccessRecord:
    """One observed change of one tracked attribute."""

    time: int
    src: str            #: endpoint label, e.g. "dir2" / "core0" / "agent4"
    cls: str            #: class name of the touched object
    handler: str        #: dispatched handler method, or ``"<deferred>"``
    attr: str
    op: str             #: "grow" | "release" | "write"
    ctag: Any = None    #: chunk tag / commit id of the triggering message


@dataclass
class HandlerSpan:
    """One handler invocation: its window and what it changed."""

    time: int
    src: str
    src_node: str       #: ``str(NodeRef)`` — joins against msg dst_node
    cls: str
    handler: str
    ctag: Any
    start_event: int    #: len(sanitizer.messages) at entry
    end_event: int = 0  #: len(sanitizer.messages) at exit
    records: List[AccessRecord] = field(default_factory=list)


def _digest(value: Any, depth: int = 0) -> str:
    """A structural digest that sees *inside* mutable entries (CST entries
    mutate in place without changing container length or identity)."""
    if depth > 3:
        return "…"
    if value is None or isinstance(value, (int, float, bool, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple, deque)):
        return "[" + ",".join(_digest(v, depth + 1) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_digest(v, depth + 1)
                                     for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{_digest(k, depth + 1)}:{_digest(v, depth + 1)}"
                              for k, v in items) + "}"
    inner = getattr(value, "__dict__", None)
    if inner is not None:
        return "(" + ",".join(f"{k}={_digest(v, depth + 1)}"
                              for k, v in sorted(inner.items())) + ")"
    return repr(value)


def _probe(value: Any) -> _Fingerprint:
    if value is None:
        return ("none", 0, "")
    if isinstance(value, (dict, set, frozenset, list, tuple, deque)):
        return ("container", len(value), _digest(value))
    return ("scalar", 1, _digest(value))


def _classify(before: _Fingerprint, after: _Fingerprint) -> str:
    b_kind, b_size, _ = before
    a_kind, a_size, _ = after
    b_empty = b_kind == "none" or (b_kind == "container" and b_size == 0)
    a_empty = a_kind == "none" or (a_kind == "container" and a_size == 0)
    if b_empty and not a_empty:
        return "grow"
    if a_empty and not b_empty:
        return "release"
    if b_kind == "container" and a_kind == "container" and a_size != b_size:
        return "grow" if a_size > b_size else "release"
    return "write"


@dataclass
class _ClassMeta:
    attrs: Tuple[str, ...]
    dispatch: Dict[str, str]  #: MessageType *name* -> handler method


class AccessSanitizer(NullBus):
    """Interpose on a machine's NoC endpoints and record state accesses.

    List it in ``Machine.run``'s instruments, then read
    ``sanitizer.records`` / ``sanitizer.spans`` / ``sanitizer.messages``
    after the run (its ``finish`` records trailing deferred changes).
    """

    def __init__(self) -> None:
        self.machine: Any = None
        self.records: List[AccessRecord] = []
        self.spans: List[HandlerSpan] = []
        self.messages: List[MessageEvent] = []
        self._meta: Dict[str, _ClassMeta] = {}
        self._targets: List[Tuple[str, str, Any, _ClassMeta]] = []
        self._originals: Dict[Any, Any] = {}
        self._last: Dict[int, Dict[str, _Fingerprint]] = {}
        self._live: Dict[int, Tuple[str, str, Any, _ClassMeta]] = {}

    # ------------------------------------------------------------------
    def attach(self, machine: Any) -> None:
        self.machine = machine
        model = extract_state_model(machine.config.protocol.value.lower())
        for cls in model.classes:
            if not cls.handlers:
                continue
            self._meta[cls.name] = _ClassMeta(
                attrs=tuple(sorted(cls.attrs - cls.counters)),
                dispatch=dict(cls.dispatch))
        handlers = machine.network._handlers
        for node, handler in sorted(handlers.items(), key=lambda kv: str(kv[0])):
            obj = getattr(handler, "__self__", None)
            if obj is None:
                continue
            meta = self._meta.get(type(obj).__name__)
            if meta is None:
                continue
            src = f"{node.kind}{node.index}"
            self._originals[node] = handler
            self._targets.append((src, str(node), obj, meta))
            self._live[id(obj)] = (src, str(node), obj, meta)
            self._last[id(obj)] = self._fingerprint(obj, meta)
            handlers[node] = self._make_wrapper(src, str(node), obj, meta,
                                                handler)

    def msg_send(self, time: int, msg: Any, latency: int, hops: int) -> None:
        self.messages.append((MSG_SEND, str(msg.src), str(msg.dst),
                              msg.mtype.value))

    def msg_recv(self, time: int, msg: Any) -> None:
        self.messages.append((MSG_RECV, str(msg.src), str(msg.dst),
                              msg.mtype.value))

    def detach(self) -> None:
        """Restore the original endpoint handlers."""
        handlers = self.machine.network._handlers
        for node, original in self._originals.items():
            handlers[node] = original
        self._originals.clear()

    # ------------------------------------------------------------------
    def _fingerprint(self, obj: Any, meta: _ClassMeta
                     ) -> Dict[str, _Fingerprint]:
        out: Dict[str, _Fingerprint] = {}
        for attr in meta.attrs:
            if hasattr(obj, attr):
                out[attr] = _probe(getattr(obj, attr))
        return out

    def _make_wrapper(self, src: str, src_node: str, obj: Any,
                      meta: _ClassMeta, original: Any) -> Any:
        def wrapped(msg: Any) -> None:
            now = int(self.machine.sim.now)
            handler = meta.dispatch.get(msg.mtype.name, "handle_message")
            before = self._fingerprint(obj, meta)
            # deferred callbacks may have run since the last span here
            self._emit_diff(now, src, src_node, obj, meta, DEFERRED, None,
                            self._last[id(obj)], before)
            span = HandlerSpan(
                time=now, src=src, src_node=src_node,
                cls=type(obj).__name__, handler=handler, ctag=msg.ctag,
                start_event=len(self.messages))
            original(msg)
            span.end_event = len(self.messages)
            after = self._fingerprint(obj, meta)
            self._diff_into(span, before, after)
            self._last[id(obj)] = after
            self.spans.append(span)
        return wrapped

    def _diff_into(self, span: HandlerSpan,
                   before: Dict[str, _Fingerprint],
                   after: Dict[str, _Fingerprint]) -> None:
        for attr in sorted(set(before) | set(after)):
            b = before.get(attr, ("none", 0, ""))
            a = after.get(attr, ("none", 0, ""))
            if b == a:
                continue
            record = AccessRecord(time=span.time, src=span.src, cls=span.cls,
                                  handler=span.handler, attr=attr,
                                  op=_classify(b, a), ctag=span.ctag)
            span.records.append(record)
            self.records.append(record)
            obs = self.machine.obs
            if obs.enabled:
                obs.state_access(span.time, span.src, span.cls,
                                 span.handler, attr, record.op, span.ctag)

    def _emit_diff(self, now: int, src: str, src_node: str, obj: Any,
                   meta: _ClassMeta, handler: str, ctag: Any,
                   before: Dict[str, _Fingerprint],
                   after: Dict[str, _Fingerprint]) -> None:
        if before == after:
            return
        span = HandlerSpan(
            time=now, src=src, src_node=src_node, cls=type(obj).__name__,
            handler=handler, ctag=ctag,
            start_event=len(self.messages))
        span.end_event = span.start_event
        self._diff_into(span, before, after)
        self.spans.append(span)

    # ------------------------------------------------------------------
    def finish(self, machine: Any, error: Optional[BaseException]) -> None:
        """Attribute any trailing deferred-callback changes."""
        now = int(machine.sim.now)
        for key, (src, src_node, obj, meta) in sorted(self._live.items(),
                                                      key=lambda kv: kv[1][0]):
            current = self._fingerprint(obj, meta)
            self._emit_diff(now, src, src_node, obj, meta, DEFERRED, None,
                            self._last[key], current)
            self._last[key] = current

    # -- end-state queries for the confirm pass ------------------------
    def grew(self, cls: str, attr: str) -> bool:
        return any(r.cls == cls and r.attr == attr and r.op == "grow"
                   for r in self.records)

    def leaked_at(self, cls: str, attr: str) -> List[str]:
        """Endpoints whose instance grew ``attr``, never released it, and
        ends the run with it non-empty — per-instance, so one module's
        back-off cannot mask another module's live leak."""
        grew: Dict[str, bool] = {}
        released: Dict[str, bool] = {}
        for r in self.records:
            if r.cls != cls or r.attr != attr:
                continue
            if r.op == "grow":
                grew[r.src] = True
            elif r.op == "release":
                released[r.src] = True
        out: List[str] = []
        for src, _, obj, _ in self._targets:
            if type(obj).__name__ != cls or not grew.get(src):
                continue
            if released.get(src):
                continue
            kind, size, _ = _probe(getattr(obj, attr, None))
            if kind == "scalar" or (kind == "container" and size > 0):
                out.append(src)
        return out


__all__ = ["AccessRecord", "AccessSanitizer", "DEFERRED", "HandlerSpan"]
