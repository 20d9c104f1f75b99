"""Extract one message-flow automaton per protocol family.

Reuses the protocol model (:mod:`repro.analysis.races.model`) — dispatch
tables, transitively-closed handler send sites, root sends — and reduces
it to the *conversation level*: which role consumes which
message type, and which ``(sender role, type, receiver role)`` edges the
code implements.

Two things the race model leaves open are resolved here:

* **Reply destinations.**  A send whose destination is ``msg.src`` (the
  race model's ``"reply"`` sentinel) goes back to whoever sent the
  triggering message.  The automaton resolves it through the definite
  senders of the handler's trigger type: if exactly one role ever sends
  the trigger, the reply's destination is that role.
* **Dispatch exhaustiveness** (SB604 input).  The raw if/elif chains are
  re-scanned for a terminal ``else`` — a ``raise``, or delegation to
  ``handle_protocol_message`` — so an unexpected message fails loudly
  instead of being silently dropped.  The negated-guard idiom
  (``if mtype is not X: raise``) counts as exhaustive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flows.specs import MessageDecls, read_message_decls
from repro.analysis.races.model import (DISPATCH_METHODS, FAMILY_SOURCES,
                                        SUBSTRATE_SOURCES, ClassStateModel,
                                        _extract_source, _is_mtype_probe,
                                        _mtype_names, _read, _role_of_class)
from repro.network.message import ROLES


@dataclass(frozen=True)
class FlowSend:
    """One family-scoped send, reduced to conversation level."""

    src_role: str
    mtype: str
    dst_role: str                #: a role name, or "unknown" if unresolved
    path: str                    #: repo-relative source path
    line: int
    via: str                     #: "Class.method" the send is charged to
    triggers: Tuple[str, ...]    #: emitting handler's trigger types (root: ())


@dataclass(frozen=True)
class HandlerSite:
    """Where a (role, type) dispatch branch lives."""

    qualname: str                #: "Class.method"
    path: str
    line: int


@dataclass(frozen=True)
class DispatchGap:
    """A dispatch chain with no terminal else (SB604 raw material)."""

    qualname: str                #: "Class.method" of the dispatch function
    path: str
    line: int


@dataclass
class ExtractedModule:
    """One protocol or substrate module, parsed once for every family."""

    classes: List[ClassStateModel]
    gaps: List[DispatchGap]


@dataclass
class FlowAutomaton:
    """The per-family conversation automaton extracted from the code."""

    family: str
    types: Tuple[str, ...]       #: the family's message vocabulary
    #: role -> message type -> dispatching handler
    handled: Dict[str, Dict[str, HandlerSite]] = field(default_factory=dict)
    sends: List[FlowSend] = field(default_factory=list)
    #: (receiver role, trigger type) -> reacting sends
    reactions: Dict[Tuple[str, str], List[FlowSend]] = field(
        default_factory=dict)
    gaps: List[DispatchGap] = field(default_factory=list)

    def edges(self) -> Set[Tuple[str, str, str]]:
        """Resolved ``(sender role, type, receiver role)`` edges."""
        return {(s.src_role, s.mtype, s.dst_role) for s in self.sends
                if s.dst_role in ROLES}

    def unresolved(self) -> List[FlowSend]:
        return [s for s in self.sends if s.dst_role not in ROLES]


# ----------------------------------------------------------------------
# Dispatch exhaustiveness
# ----------------------------------------------------------------------
def _non_exhaustive_line(fn: ast.FunctionDef) -> Optional[int]:
    """Line of a dispatch chain missing its terminal else, else ``None``.

    Exhaustive shapes: a final ``else`` body (raise *or* delegation both
    count — delegation hands the type to the next dispatcher), and the
    negated guard ``if mtype is not X: raise`` (the guard is the
    default).  A function with no type-dispatch chain is exempt.
    """
    def is_probe(test: ast.expr) -> bool:
        return (isinstance(test, ast.Compare) and _is_mtype_probe(test.left)
                and bool(_mtype_names(test)))

    for stmt in fn.body:
        if not (isinstance(stmt, ast.If) and is_probe(stmt.test)):
            continue
        node = stmt
        while True:
            test = node.test
            if (isinstance(test, ast.Compare)
                    and isinstance(test.ops[0], (ast.IsNot, ast.NotEq))
                    and any(isinstance(s, (ast.Raise, ast.Return))
                            for s in node.body)):
                return None  # negated guard: the guard is the default
            orelse = node.orelse
            if (len(orelse) == 1 and isinstance(orelse[0], ast.If)
                    and is_probe(orelse[0].test)):
                node = orelse[0]
                continue
            if not orelse:
                return node.lineno
            return None  # terminal else present (raise or delegation)
    return None


def _scan_gaps(path_label: str, source: str) -> List[DispatchGap]:
    gaps: List[DispatchGap] = []
    for cnode in ast.parse(source).body:
        if not isinstance(cnode, ast.ClassDef):
            continue
        if _role_of_class(cnode) is None:
            continue
        for item in cnode.body:
            if (isinstance(item, ast.FunctionDef)
                    and item.name in DISPATCH_METHODS):
                line = _non_exhaustive_line(item)
                if line is not None:
                    gaps.append(DispatchGap(
                        qualname=f"{cnode.name}.{item.name}",
                        path=path_label, line=line))
    return gaps


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _family_rels(family: str) -> Tuple[str, ...]:
    if family == "substrate":
        return SUBSTRATE_SOURCES
    rels = list(FAMILY_SOURCES[family])
    rels.extend(r for r in SUBSTRATE_SOURCES if r not in rels)
    return tuple(rels)


def _resolve_reply(triggers: Tuple[str, ...],
                   senders: Dict[str, Set[str]]) -> str:
    """Destination of a ``msg.src`` reply: the unique sender role of the
    triggering type(s), or "unknown" when ambiguous or never sent."""
    roles: Set[str] = set()
    for trigger in triggers:
        roles |= senders.get(trigger, set())
    if len(roles) == 1:
        return roles.pop()
    return "unknown"


def build_automaton(family: str, types: Tuple[str, ...],
                    classes: List[ClassStateModel],
                    gaps: Optional[List[DispatchGap]] = None
                    ) -> FlowAutomaton:
    """Reduce extracted class models to the family's flow automaton.

    Exposed separately from :func:`extract_flow_automaton` so tests can
    drive it with synthetic toy-protocol classes.
    """
    auto = FlowAutomaton(family=family, types=types, gaps=list(gaps or ()))
    roleful = [c for c in classes if c.role is not None]

    for cls in roleful:
        assert cls.role is not None
        book = auto.handled.setdefault(cls.role, {})
        for mtype, method in sorted(cls.dispatch.items()):
            if mtype not in types:
                continue
            summary = cls.methods.get(method)
            book.setdefault(mtype, HandlerSite(
                qualname=f"{cls.name}.{method}", path=cls.path,
                line=summary.line if summary else cls.line))

    # pass 1: raw sends, with reply destinations left symbolic
    raw: List[FlowSend] = []
    senders: Dict[str, Set[str]] = {}
    for cls in roleful:
        role = cls.role
        assert role is not None
        seen_sites: Set[Tuple[str, str, int, Tuple[str, ...]]] = set()
        for method in sorted(cls.handlers):
            handler = cls.handlers[method]
            for site in handler.sends:
                for mtype in site.mtypes:
                    if mtype not in types:
                        continue
                    dedup = (mtype, site.dest, site.line, handler.triggers)
                    if dedup in seen_sites:
                        continue
                    seen_sites.add(dedup)
                    raw.append(FlowSend(
                        src_role=role, mtype=mtype, dst_role=site.dest,
                        path=cls.path, line=site.line,
                        via=f"{cls.name}.{site.via}",
                        triggers=handler.triggers))
                    senders.setdefault(mtype, set()).add(role)
        for site in cls.root_sends:
            for mtype in site.mtypes:
                if mtype not in types:
                    continue
                raw.append(FlowSend(
                    src_role=role, mtype=mtype, dst_role=site.dest,
                    path=cls.path, line=site.line,
                    via=f"{cls.name}.{site.via}", triggers=()))
                senders.setdefault(mtype, set()).add(role)

    # pass 2: resolve reply destinations through the triggers' senders
    for send in raw:
        dst = send.dst_role
        if dst == "reply":
            dst = _resolve_reply(send.triggers, senders)
        auto.sends.append(FlowSend(
            src_role=send.src_role, mtype=send.mtype, dst_role=dst,
            path=send.path, line=send.line, via=send.via,
            triggers=send.triggers))

    # reactions: (receiver role, trigger) -> the handler's resolved sends
    for send in auto.sends:
        for trigger in send.triggers:
            auto.reactions.setdefault(
                (send.src_role, trigger), []).append(send)
    return auto


def extract_modules(pkg_dir: Path,
                    source_overrides: Optional[Dict[str, str]] = None
                    ) -> Dict[str, ExtractedModule]:
    """Every family and substrate module (package-relative path ->
    extraction), each parsed once however many families share it."""
    out: Dict[str, ExtractedModule] = {}
    for rel in [*sum(FAMILY_SOURCES.values(), ()), *SUBSTRATE_SOURCES]:
        source = _read(pkg_dir, rel, source_overrides)
        if source is None or rel in out:
            continue
        label = "src/repro/" + rel
        out[rel] = ExtractedModule(_extract_source(label, source),
                                   _scan_gaps(label, source))
    return out


def family_automaton(family: str, modules: Dict[str, ExtractedModule],
                     decls: MessageDecls) -> FlowAutomaton:
    """One family's automaton from already-extracted modules."""
    classes: List[ClassStateModel] = []
    gaps: List[DispatchGap] = []
    for rel in _family_rels(family):
        if rel in modules:
            classes.extend(modules[rel].classes)
            gaps.extend(modules[rel].gaps)
    return build_automaton(family, decls.families.get(family, ()), classes,
                           gaps)


def extract_flow_automaton(family: str, pkg_dir: Optional[Path] = None,
                           source_overrides: Optional[Dict[str, str]] = None
                           ) -> FlowAutomaton:
    """The flow automaton of one family (protocol files + substrate).

    ``source_overrides`` maps package-relative paths to replacement
    source text — the seeded flow mutations inject doctored modules this
    way.
    """
    if pkg_dir is None:
        import repro
        pkg_dir = Path(repro.__file__).resolve().parent
    return family_automaton(family,
                            extract_modules(pkg_dir, source_overrides),
                            read_message_decls(pkg_dir, source_overrides))


__all__ = ["DispatchGap", "ExtractedModule", "FlowAutomaton", "FlowSend",
           "HandlerSite", "build_automaton", "extract_flow_automaton",
           "extract_modules", "family_automaton"]
