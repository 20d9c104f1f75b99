"""Cross the extracted protocol model against the declared specs.

| code  | finding |
|-------|---------|
| SB002 | an ``_on_*`` handler no dispatch table or method references |
| SB003 | a directory/agent handler that mutates state but neither sends
|       | nor schedules anything |
| SB004 | a declared message type that never hits the wire, sits in no
|       | family vocabulary, or breaks its piggy-back declaration |
| SB601 | a type sent to a role with no dispatch branch for it, or a
|       | dispatch branch waiting for a type nothing sends |
| SB602 | code/spec disagreement: an extracted edge the spec does not
|       | declare, or a declared edge with no implementing send |
| SB603 | a request with no static reply path back to the requester role |
| SB604 | a message-type dispatch chain with no terminal else |

Findings use the shared :class:`repro.analysis.findings.Finding` keys, so
the baseline/pragma machinery applies unchanged.  Piggy-backed types
(``PIGGYBACKED_TYPES``) never travel standalone and are exempt from
SB601/SB602 — they are checked by the SB004 carrier rules instead.
SB601 only sees a family's own vocabulary (``FAMILY_TYPES``); SB004's
vocabulary check makes sure no declared type falls outside all of them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flows.automaton import (ExtractedModule, FlowAutomaton,
                                            FlowSend, extract_modules,
                                            family_automaton)
from repro.analysis.flows.specs import (MessageDecls, ParsedSpec,
                                        SPEC_SOURCES, SpecError, load_spec,
                                        read_message_decls)
from repro.analysis.races.model import (FAMILY_SOURCES, MESSAGE_DECLS,
                                        ClassStateModel)
from repro.network.message import ROLES


def _dead_handlers(cls: ClassStateModel) -> List[Finding]:
    """SB002: ``_on_*`` methods neither dispatched nor called."""
    referenced = set(cls.dispatch.values())
    for summary in cls.methods.values():
        referenced |= summary.callees()
    return [Finding(
        code="SB002", path=cls.path, line=summary.line,
        anchor=f"{cls.name}.{name}",
        message=f"{cls.name}.{name} is never dispatched or called")
        for name, summary in cls.methods.items()
        if name.startswith("_on_") and name not in referenced]


def _silent_mutations(cls: ClassStateModel) -> List[Finding]:
    """SB003: a dir/agent handler whose whole effect is local mutation.

    A call to a method the class does not define (an inherited helper
    like ``apply_commit``) is assumed to advance time, so the rule only
    fires when every reached effect is visible to the model.
    """
    if cls.role not in ("dir", "agent"):
        return []
    return [Finding(
        code="SB003", path=cls.path, line=handler.line,
        anchor=handler.qualname,
        message=(f"{handler.qualname} (handling "
                 f"{', '.join(handler.triggers)}) mutates module state but "
                 f"sends/schedules nothing"))
        for handler in cls.handlers.values()
        if handler.writes and not (handler.sends or handler.deferred
                                   or handler.opaque_calls)]


def _orphan_types(decls: MessageDecls, sent: Set[str]) -> List[Finding]:
    """SB004: declared types that are orphaned, outside every family
    vocabulary, or piggy-backed inconsistently."""
    path = "src/repro/" + MESSAGE_DECLS
    vocabulary = {t for types in decls.families.values() for t in types}
    out: List[Finding] = []
    for name, line in sorted(decls.types.items()):
        carriers = decls.piggybacked.get(name)
        if carriers is not None:
            # a payload-flag type: sound iff its carriers fly and it
            # never appears on the wire as a standalone packet
            missing = [c for c in carriers if c not in sent]
            if name in sent:
                message = (f"MessageType.{name} is declared as piggy-backed "
                           f"(on {', '.join(carriers)}) but is also sent as "
                           f"a standalone packet")
            elif missing:
                message = (f"MessageType.{name} piggy-backs on "
                           f"{', '.join(missing)}, which "
                           f"{'is' if len(missing) == 1 else 'are'} never "
                           f"sent")
            else:
                continue
        elif name not in sent:
            message = f"MessageType.{name} is declared but never sent"
        elif name not in vocabulary:
            message = (f"MessageType.{name} is sent but belongs to no "
                       f"FAMILY_TYPES vocabulary, so no flow rule checks it")
        else:
            continue
        out.append(Finding(code="SB004", path=path, line=line,
                           anchor=f"MessageType.{name}", message=message))
    return out


def _sent_types(modules: Dict[str, ExtractedModule]) -> Set[str]:
    """Every message type any scanned method puts on the wire."""
    return {mtype for module in modules.values() for cls in module.classes
            for summary in cls.methods.values() for site in summary.sends
            for mtype in site.mtypes}


def _dangling(auto: FlowAutomaton, exempt: Set[str]) -> List[Finding]:
    """SB601: sent-but-never-handled / handled-but-never-sent."""
    out: List[Finding] = []
    first_send: Dict[Tuple[str, str], FlowSend] = {}
    sent_types: Set[str] = set()
    for send in auto.sends:
        sent_types.add(send.mtype)
        first_send.setdefault((send.mtype, send.dst_role), send)

    for (mtype, dst), send in sorted(first_send.items()):
        if mtype in exempt:
            continue
        if dst in ROLES:
            handled_here = mtype in auto.handled.get(dst, {})
        else:  # unresolved destination: any handler anywhere will do
            handled_here = any(mtype in book
                               for book in auto.handled.values())
        if not handled_here:
            out.append(Finding(
                code="SB601", path=send.path, line=send.line,
                anchor=f"{auto.family}/{mtype}:never-handled",
                message=(f"{mtype} is sent to role '{dst}' by {send.via} "
                         f"but no {auto.family} handler at that role "
                         f"dispatches it")))

    for role in sorted(auto.handled):
        for mtype, site in sorted(auto.handled[role].items()):
            if mtype in exempt or mtype in sent_types:
                continue
            out.append(Finding(
                code="SB601", path=site.path, line=site.line,
                anchor=f"{auto.family}/{mtype}:never-sent",
                message=(f"{site.qualname} dispatches {mtype} but nothing "
                         f"in the {auto.family} conversation ever sends "
                         f"it")))
    return out


def _conformance(auto: FlowAutomaton, parsed: ParsedSpec,
                 exempt: Set[str]) -> List[Finding]:
    """SB602: extracted edges vs the declared spec, both directions."""
    out: List[Finding] = []
    spec_edges = set(parsed.spec.edges)

    first_edge: Dict[Tuple[str, str, str], FlowSend] = {}
    for send in auto.sends:
        if send.dst_role in ROLES:
            first_edge.setdefault(
                (send.src_role, send.mtype, send.dst_role), send)

    for edge, send in sorted(first_edge.items()):
        if send.mtype in exempt:
            continue
        if edge not in spec_edges:
            src, mtype, dst = edge
            out.append(Finding(
                code="SB602", path=send.path, line=send.line,
                anchor=f"{auto.family}/{src}-{mtype}->{dst}:undeclared",
                message=(f"{send.via} sends {mtype} from role '{src}' to "
                         f"role '{dst}' but the {auto.family} ProtocolSpec "
                         f"declares no such edge")))

    # a send with an unresolved destination conservatively implements
    # every declared (src, mtype, *) edge
    wildcards = {(s.src_role, s.mtype) for s in auto.unresolved()}
    covered = set(first_edge)
    covered |= {e for e in spec_edges if (e[0], e[1]) in wildcards}
    for edge in sorted(spec_edges - covered):
        src, mtype, dst = edge
        out.append(Finding(
            code="SB602", path=parsed.path, line=parsed.line,
            anchor=f"{auto.family}/{src}-{mtype}->{dst}:unimplemented",
            message=(f"the {auto.family} ProtocolSpec declares "
                     f"'{src}' --{mtype}--> '{dst}' but no code path "
                     f"implements that send")))
    return out


def _reply_paths(auto: FlowAutomaton, parsed: ParsedSpec) -> List[Finding]:
    """SB603: every declared request must statically reach a reply.

    BFS over the reaction relation from the request's delivery point: the
    conversation is live iff some chain of handler reactions delivers one
    of the declared reply (or retry) types back to the requester role.
    """
    out: List[Finding] = []
    spec = parsed.spec
    for request in sorted(spec.replies):
        accepted = set(spec.replies[request]) | set(spec.retries)
        req_sends = [s for s in auto.sends
                     if s.mtype == request and s.dst_role in ROLES]
        for send in sorted(req_sends, key=lambda s: (s.src_role, s.dst_role)):
            requester = send.src_role
            reachable: Set[Tuple[str, str]] = set()
            frontier: List[Tuple[str, str]] = [(send.dst_role, request)]
            while frontier:
                node = frontier.pop()
                if node in reachable:
                    continue
                reachable.add(node)
                for reaction in auto.reactions.get(node, ()):
                    dsts = ([reaction.dst_role]
                            if reaction.dst_role in ROLES else list(ROLES))
                    frontier.extend((d, reaction.mtype) for d in dsts)
            if not any((requester, t) in reachable for t in accepted):
                out.append(Finding(
                    code="SB603", path=send.path, line=send.line,
                    anchor=f"{auto.family}/{request}:no-reply-path",
                    message=(f"{request} (sent '{requester}' -> "
                             f"'{send.dst_role}' by {send.via}) has no "
                             f"static reply path: no reaction chain sends "
                             f"{' / '.join(sorted(accepted))} back to "
                             f"'{requester}'")))
    return out


def _dispatch_gaps(auto: FlowAutomaton) -> List[Finding]:
    """SB604: dispatch chains missing their terminal else."""
    return [Finding(
        code="SB604", path=gap.path, line=gap.line,
        anchor=f"{gap.qualname}:non-exhaustive",
        message=(f"{gap.qualname} dispatches on the message type but has "
                 f"no terminal else: an unexpected type is silently "
                 f"dropped"))
        for gap in auto.gaps]


def lint_flows(pkg_dir: Optional[Path] = None,
               source_overrides: Optional[Dict[str, str]] = None
               ) -> List[Finding]:
    """The protocol-flow pass (SB002–SB004, SB6xx) over every family
    plus the substrate.

    ``source_overrides`` maps package-relative paths to replacement
    source text (seeded-mutation fixtures).
    """
    if pkg_dir is None:
        import repro
        pkg_dir = Path(repro.__file__).resolve().parent

    decls = read_message_decls(pkg_dir, source_overrides)
    modules = extract_modules(pkg_dir, source_overrides)
    exempt = set(decls.piggybacked)

    out: Dict[str, Finding] = {}

    def add(findings: List[Finding]) -> None:
        for finding in findings:
            out.setdefault(finding.key, finding)

    # SB002/SB003 judge protocol code only, not the shared substrate
    for rel in sorted(set(sum(FAMILY_SOURCES.values(), ())) & set(modules)):
        for cls in modules[rel].classes:
            add(_dead_handlers(cls))
            add(_silent_mutations(cls))
    add(_orphan_types(decls, _sent_types(modules)))

    for family in SPEC_SOURCES:
        auto = family_automaton(family, modules, decls)
        add(_dangling(auto, exempt))
        add(_dispatch_gaps(auto))
        try:
            parsed = load_spec(family, pkg_dir, source_overrides)
        except SpecError as exc:
            add([Finding(
                code="SB602", path=exc.path, line=exc.line,
                anchor=f"{family}:invalid-spec",
                message=f"unusable {family} ProtocolSpec: {exc}")])
            continue
        if parsed is None:
            add([Finding(
                code="SB602", path="src/repro/" + SPEC_SOURCES[family],
                line=0, anchor=f"{family}:missing-spec",
                message=(f"no PROTOCOL_SPEC declared for the {family} "
                         f"family (expected in {SPEC_SOURCES[family]})"))])
            continue
        add(_conformance(auto, parsed, exempt))
        add(_reply_paths(auto, parsed))
    return [out[key] for key in sorted(out)]


__all__ = ["lint_flows"]
