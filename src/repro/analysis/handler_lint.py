"""Pass 1: handler-coverage linter (rules SB001-SB004).

The protocols dispatch messages through hand-written ``if mtype is
MessageType.X`` chains, and the set of types each role must handle is a
*distributed* fact: the sender lives in one file, the dispatch table in
another.  This pass recovers both sides from the AST and cross-references
them:

* every message type sent to a directory / core / agent must have a
  dispatch branch in some class of that role within the same protocol
  family (SB001);
* every ``_on_*`` handler method must be reachable from a dispatch table
  or another method (SB002);
* a directory/agent handler that mutates module state but neither sends a
  message nor schedules an event advances protocol state in zero simulated
  time — flagged so such transitions are at least deliberate (SB003);
* every type declared in ``network/message.py`` must appear on the wire
  somewhere (SB004).

The entry point is :func:`lint_handlers`; tests can point it at modified
source trees (or inject doctored module sources via ``source_overrides``)
to prove that seeded defects are caught.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

#: protocol family -> module files (relative to the ``repro`` package).
FAMILY_SOURCES: Dict[str, Tuple[str, ...]] = {
    "scalablebulk": ("core/directory_engine.py", "core/processor_engine.py"),
    "bulksc": ("baselines/bulksc.py",),
    "tcc": ("baselines/tcc.py",),
    "seq": ("baselines/seq.py",),
}

#: coherence substrate, shared by every family: base dispatch + senders.
SUBSTRATE_SOURCES: Tuple[str, ...] = (
    "memory/directory.py", "protocols/base.py", "cpu/core.py",
    "memory/hierarchy.py",
)

MESSAGE_DECLS = "network/message.py"

_SEND_METHODS = {"unicast", "multicast", "broadcast"}
_SCHED_METHODS = {"schedule", "schedule_at"}
_MUTATOR_METHODS = {"add", "append", "discard", "remove", "pop", "clear",
                    "update", "setdefault", "extend", "popitem"}


# ----------------------------------------------------------------------
# Per-module extraction
# ----------------------------------------------------------------------
@dataclass
class ClassInfo:
    name: str
    role: Optional[str]                  #: "dir" | "core" | "agent" | None
    line: int
    dispatch: Dict[str, str] = field(default_factory=dict)  #: mtype -> method
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    calls: Dict[str, Set[str]] = field(default_factory=dict)  #: m -> self.m2
    sends_or_schedules: Set[str] = field(default_factory=set)
    mutates_self: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    path: str                            #: repo-relative path
    classes: List[ClassInfo] = field(default_factory=list)
    #: (mtype name, destination kind, line); kind in dir/core/agent/unknown
    sends: List[Tuple[str, str, int]] = field(default_factory=list)


def _role_of_class(node: ast.ClassDef) -> Optional[str]:
    names = [node.name] + [ast.unparse(b) for b in node.bases]
    text = " ".join(names)
    if "Arbiter" in text or "Vendor" in text:
        return "agent"
    if "Directory" in text:
        return "dir"
    if "Engine" in text or node.name == "Core":
        return "core"
    return None


def _mtype_names(expr: ast.AST) -> List[str]:
    """All ``MessageType.X`` attribute references inside ``expr``."""
    out = []
    for node in ast.walk(expr):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "MessageType"):
            out.append(node.attr)
    return out


def _is_mtype_probe(expr: ast.AST) -> bool:
    """Does ``expr`` read ``msg.mtype`` or a local named ``mtype``?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "mtype":
            return True
        if isinstance(node, ast.Name) and node.id == "mtype":
            return True
    return False


def _handler_target(body: Sequence[ast.stmt]) -> Optional[str]:
    """The ``self._on_x(msg)`` callee a dispatch branch delegates to."""
    for stmt in body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"):
                return node.func.attr
    return None


#: Methods whose if/elif chains over ``msg.mtype`` are dispatch tables.
#: ``_dispatch`` holds the chain when ``handle_message`` only delegates to
#: it (the per-instance seam host-time attribution wraps).
DISPATCH_METHODS = ("handle_message", "handle_protocol_message", "_dispatch")


def _extract_dispatch(fn: ast.FunctionDef, into: Dict[str, str]) -> None:
    """Parse an if/elif dispatch chain over the message type.

    Handles ``is`` / ``==`` / ``in (tuple)`` comparisons, and the negated
    guard idiom ``if mtype is not MessageType.X: raise`` (the rest of the
    function then handles X).
    """
    def visit_if(node: ast.If) -> None:
        test = node.test
        if isinstance(test, ast.Compare) and _is_mtype_probe(test.left):
            op = test.ops[0]
            names = _mtype_names(test)
            if isinstance(op, (ast.Is, ast.Eq, ast.In)) and names:
                target = _handler_target(node.body) or fn.name
                for name in names:
                    into.setdefault(name, target)
            elif isinstance(op, (ast.IsNot, ast.NotEq)) and names:
                # negated guard: the *function* handles these types
                raises = any(isinstance(s, (ast.Raise, ast.Return))
                             for s in node.body)
                if raises:
                    for name in names:
                        into.setdefault(name, fn.name)
        for stmt in node.orelse:
            if isinstance(stmt, ast.If):
                visit_if(stmt)

    for stmt in fn.body:
        if isinstance(stmt, ast.If):
            visit_if(stmt)


def _scan_method(cls: ClassInfo, fn: ast.FunctionDef) -> None:
    callees: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            # self.method(...)
            if isinstance(base, ast.Name) and base.id == "self":
                callees.add(func.attr)
            # self.network.unicast / self.sim.schedule  (any depth)
            if func.attr in _SEND_METHODS | _SCHED_METHODS:
                cls.sends_or_schedules.add(fn.name)
            # self.attr.add(...) and friends mutate module state
            if (func.attr in _MUTATOR_METHODS
                    and isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"):
                cls.mutates_self.add(fn.name)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                # self.x = ... / self.x[k] = ...
                probe = t
                while isinstance(probe, ast.Subscript):
                    probe = probe.value
                if (isinstance(probe, ast.Attribute)
                        and isinstance(probe.value, ast.Name)
                        and probe.value.id == "self"):
                    cls.mutates_self.add(fn.name)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                probe = t
                while isinstance(probe, ast.Subscript):
                    probe = probe.value
                if (isinstance(probe, ast.Attribute)
                        and isinstance(probe.value, ast.Name)
                        and probe.value.id == "self"):
                    cls.mutates_self.add(fn.name)
    cls.calls[fn.name] = callees


def _dst_kind(expr: ast.AST) -> str:
    """Destination kind of a send: dir / core / agent / unknown."""
    text = ast.unparse(expr)
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", ""))
            if name == "dir_node":
                return "dir"
            if name == "core_node":
                return "core"
            if name == "arbiter_node":
                return "agent"
    if ".arbiter." in text or ".vendor." in text or "arbiter_node" in text:
        return "agent"
    if "self.node" == text:
        return "unknown"
    return "unknown"


def _resolve_mtype_arg(arg: ast.AST, fn: Optional[ast.FunctionDef]
                       ) -> List[str]:
    """Message-type names a send's first argument can take."""
    names = _mtype_names(arg)
    if names:
        return names
    if isinstance(arg, ast.Name) and fn is not None:
        # e.g. reply = MessageType.A if dirty else MessageType.B
        out: List[str] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == arg.id:
                        out.extend(_mtype_names(node.value))
        return out
    return []


def _extract_module(path_label: str, source: str) -> ModuleInfo:
    tree = ast.parse(source)
    info = ModuleInfo(path=path_label)

    # enclosing-function map for resolving variable message types
    func_of: Dict[int, ast.FunctionDef] = {}
    for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        for node in ast.walk(fn):
            func_of.setdefault(id(node), fn)

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_METHODS and node.args):
            mtypes = _resolve_mtype_arg(node.args[0], func_of.get(id(node)))
            kind = (_dst_kind(node.args[2]) if len(node.args) >= 3
                    else "unknown")
            for name in mtypes:
                info.sends.append((name, kind, node.lineno))

    for cnode in tree.body:
        if not isinstance(cnode, ast.ClassDef):
            continue
        cls = ClassInfo(name=cnode.name, role=_role_of_class(cnode),
                        line=cnode.lineno)
        for item in cnode.body:
            if isinstance(item, ast.FunctionDef):
                cls.methods[item.name] = item
                _scan_method(cls, item)
                if item.name in DISPATCH_METHODS:
                    _extract_dispatch(item, cls.dispatch)
        info.classes.append(cls)
    return info


# ----------------------------------------------------------------------
# Cross-referencing
# ----------------------------------------------------------------------
def _reaches_send_or_schedule(cls: ClassInfo, method: str) -> bool:
    """Transitively (within the class): does ``method`` send or schedule?

    Calls to methods *not* defined in this module (inherited helpers like
    ``apply_commit``) are conservatively assumed to advance time, so the
    rule only fires on handlers whose whole effect is local mutation.
    """
    seen: Set[str] = set()
    stack = [method]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        if m in cls.sends_or_schedules:
            return True
        for callee in cls.calls.get(m, ()):
            if callee not in cls.methods:
                return True  # inherited/unknown: assume it advances time
            stack.append(callee)
    return False


def _declared_types(source: str) -> Dict[str, int]:
    """Message type names declared on the MessageType enum, with lines."""
    tree = ast.parse(source)
    out: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "MessageType":
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for t in item.targets:
                        if isinstance(t, ast.Name):
                            out[t.id] = item.lineno
    return out


def _piggybacked_types(source: str) -> Dict[str, Tuple[str, ...]]:
    """The ``PIGGYBACKED_TYPES`` mapping, read from the module's AST.

    Parsed statically (not imported) so fixture overrides of
    ``network/message.py`` see their own mapping.  Keys and carrier
    entries are ``MessageType.X`` attributes; anything else is ignored.
    """
    def name_of(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "MessageType"):
            return node.attr
        return None

    tree = ast.parse(source)
    out: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        targets = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "PIGGYBACKED_TYPES"
                   for t in targets):
            continue
        if not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            rider = name_of(key) if key is not None else None
            if rider is None:
                continue
            carriers = []
            if isinstance(val, (ast.Tuple, ast.List)):
                carriers = [name_of(e) for e in val.elts]
            out[rider] = tuple(c for c in carriers if c)
    return out


def _read(pkg_dir: Path, rel: str,
          overrides: Optional[Dict[str, str]]) -> Optional[str]:
    if overrides and rel in overrides:
        return overrides[rel]
    file = pkg_dir / rel
    if not file.exists():
        return None
    return file.read_text()


def lint_handlers(pkg_dir: Optional[Path] = None,
                  source_overrides: Optional[Dict[str, str]] = None
                  ) -> List[Finding]:
    """Run the handler-coverage pass over the installed ``repro`` package.

    ``source_overrides`` maps package-relative paths to replacement source
    text — used by tests to inject seeded defects without touching disk.
    """
    if pkg_dir is None:
        import repro
        pkg_dir = Path(repro.__file__).resolve().parent

    findings: List[Finding] = []
    modules: Dict[str, ModuleInfo] = {}
    for rel in set(sum(FAMILY_SOURCES.values(), ())) | set(SUBSTRATE_SOURCES):
        src = _read(pkg_dir, rel, source_overrides)
        if src is not None:
            modules[rel] = _extract_module("src/repro/" + rel, src)

    substrate = [modules[r] for r in SUBSTRATE_SOURCES if r in modules]

    all_sent: Set[str] = set()
    for family, rels in FAMILY_SOURCES.items():
        mods = [modules[r] for r in rels if r in modules]
        if not mods:
            continue
        handled: Dict[str, Set[str]] = {"dir": set(), "core": set(),
                                        "agent": set()}
        for mod in mods + substrate:
            for cls in mod.classes:
                if cls.role in handled:
                    handled[cls.role] |= set(cls.dispatch)
        # substrate sends count against every family's dispatch tables
        sends = [(m, k, ln, mod.path) for mod in mods + substrate
                 for (m, k, ln) in mod.sends]
        any_handled = handled["dir"] | handled["core"] | handled["agent"]
        for mtype, kind, line, path in sends:
            all_sent.add(mtype)
            ok = (mtype in handled.get(kind, set()) if kind != "unknown"
                  else mtype in any_handled)
            if not ok:
                findings.append(Finding(
                    code="SB001", path=path, line=line,
                    anchor=f"{family}/{kind}/{mtype}",
                    message=(f"{mtype} is sent to role '{kind}' but no "
                             f"{family} {kind}-side dispatch handles it")))

        # SB002 / SB003 are per-class, computed once per family module
        for mod in mods:
            for cls in mod.classes:
                dispatched = set(cls.dispatch.values())
                called_somewhere = set().union(*cls.calls.values()) \
                    if cls.calls else set()
                for name, fn in cls.methods.items():
                    if (name.startswith("_on_")
                            and name not in dispatched
                            and name not in called_somewhere):
                        findings.append(Finding(
                            code="SB002", path=mod.path, line=fn.lineno,
                            anchor=f"{cls.name}.{name}",
                            message=(f"{cls.name}.{name} is never dispatched "
                                     f"or called")))
                if cls.role in ("dir", "agent"):
                    for mtype, name in cls.dispatch.items():
                        if name not in cls.methods:
                            continue
                        if (name in cls.mutates_self
                                and not _reaches_send_or_schedule(cls, name)):
                            findings.append(Finding(
                                code="SB003", path=mod.path,
                                line=cls.methods[name].lineno,
                                anchor=f"{cls.name}.{name}",
                                message=(f"{cls.name}.{name} (handling "
                                         f"{mtype}) mutates module state but "
                                         f"sends/schedules nothing")))

    decl_src = _read(pkg_dir, MESSAGE_DECLS, source_overrides)
    if decl_src is not None:
        piggybacked = _piggybacked_types(decl_src)
        for name, line in _declared_types(decl_src).items():
            carriers = piggybacked.get(name)
            if carriers is not None:
                # A payload-flag type: sound iff its carriers fly and it
                # itself never appears on the wire as a standalone packet.
                missing = [c for c in carriers if c not in all_sent]
                if name in all_sent:
                    findings.append(Finding(
                        code="SB004", path="src/repro/" + MESSAGE_DECLS,
                        line=line, anchor=f"MessageType.{name}",
                        message=(f"MessageType.{name} is declared as piggy-"
                                 f"backed (on {', '.join(carriers)}) but is "
                                 f"also sent as a standalone packet")))
                elif missing:
                    findings.append(Finding(
                        code="SB004", path="src/repro/" + MESSAGE_DECLS,
                        line=line, anchor=f"MessageType.{name}",
                        message=(f"MessageType.{name} piggy-backs on "
                                 f"{', '.join(missing)}, which "
                                 f"{'is' if len(missing) == 1 else 'are'} "
                                 f"never sent")))
            elif name not in all_sent:
                findings.append(Finding(
                    code="SB004", path="src/repro/" + MESSAGE_DECLS,
                    line=line, anchor=f"MessageType.{name}",
                    message=f"MessageType.{name} is declared but never sent"))

    return findings


__all__ = ["FAMILY_SOURCES", "SUBSTRATE_SOURCES", "lint_handlers"]
