"""The static protocol model: the one AST extraction of protocol source.

Every static pass that reasons about messages reads the protocol modules
through this module: it recovers each class's message dispatch table
(the hand-written ``if mtype is MessageType.X`` chains) and, for every
handler, computes the *effective* footprint of the handler:

* the per-module state attributes it **reads** and **writes** (``self.X``
  loads, stores, ``del``, augmented assignment, and mutator-method calls
  like ``self.cst.pop(...)``), transitively closed over same-class helper
  calls: ``self._fail_group(entry)`` charges ``_fail_group``'s footprint
  to the dispatching handler;
* **alias-aware** container accesses: ``entry = self.cst.get(cid)``
  followed by ``entry.got_g = True`` is a write *to the CST* — locals and
  helper parameters bound to a state container are tracked and their
  accesses attributed to the owning attribute (CST entries are modeled at
  the granularity of the ``cst`` dict that owns them);
* the **growth direction** of each write — *additive* (``add``,
  ``append``, ``x[k] = v``, assignment of a real value) versus *cleanup*
  (``pop``, ``discard``, ``clear``, ``del``, assignment of a falsy
  constant) — which is what the SB504 reconciliation rule keys on;
* its **send sites** (``unicast``/``multicast``/``broadcast``) with the
  resolved message types, destination role and source line;
* whether each attribute is a pure **counter** (only ever written via
  ``+= <constant>``): commutative writes that cannot race by reordering.

Infrastructure attributes (``self.sim``, ``self.network``, ``self.obs``,
…) are excluded: the model tracks *protocol state*, the structures the
paper's Tables 4/5 orderings exist to protect.

The SB5xx race rules consume the model directly; the SB6xx flow pass
(:mod:`repro.analysis.flows`) reduces it to per-family conversation
automata and also derives the handler-coverage rules SB002–SB004 from it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

#: the module declaring ``MessageType``, ``PIGGYBACKED_TYPES`` and
#: ``FAMILY_TYPES``
MESSAGE_DECLS = "network/message.py"

#: the substrate module whose handlers guard shared line state
SUBSTRATE_MODULE = "memory/directory.py"

#: Methods whose if/elif chains over ``msg.mtype`` are dispatch tables.
#: ``_dispatch`` holds the chain when ``handle_message`` only delegates to
#: it (the per-instance seam host-time attribution wraps).
DISPATCH_METHODS = ("handle_message", "handle_protocol_message", "_dispatch")

_SEND_METHODS = {"unicast", "multicast", "broadcast"}
_SCHED_METHODS = {"schedule", "schedule_at"}
_ADDITIVE_METHODS = {"add", "append", "appendleft", "update", "setdefault",
                     "extend", "insert"}
_CLEANUP_METHODS = {"pop", "popleft", "discard", "remove", "clear",
                    "popitem"}
_MUTATOR_METHODS = _ADDITIVE_METHODS | _CLEANUP_METHODS
#: plumbing attributes that are not protocol state
_INFRA_ATTRS = {"config", "sim", "network", "node", "obs", "protocol",
                "page_mapper", "dir_id", "core", "stats", "core_id",
                "hierarchy", "sig_factory", "workload"}

Root = Tuple[str, str]  #: ("attr", X) for self.X-rooted, ("name", n) local


@dataclass
class SendSite:
    """One message-emission site inside a method body."""

    mtypes: Tuple[str, ...]      #: resolved MessageType names
    #: "dir" | "core" | "agent" | "reply" (back to ``msg.src``) | "unknown"
    dest: str
    line: int
    via: str                     #: method the send syntactically lives in


@dataclass
class CallSite:
    """A ``self._helper(...)`` call, with the state roots of its args so
    the closure can bind helper parameters to state containers."""

    callee: str
    line: int
    arg_roots: Tuple[Optional[Root], ...]


@dataclass
class MethodSummary:
    """Direct (non-transitive) facts about one method."""

    name: str
    line: int
    params: Tuple[str, ...] = ()
    reads: Dict[str, int] = field(default_factory=dict)    #: attr -> 1st line
    writes: Dict[str, int] = field(default_factory=dict)   #: attr -> 1st line
    additive: Set[str] = field(default_factory=set)
    cleanup: Set[str] = field(default_factory=set)
    #: accesses through bare-name roots (params / unresolved locals)
    name_reads: Dict[str, int] = field(default_factory=dict)
    name_writes: Dict[str, int] = field(default_factory=dict)
    name_additive: Set[str] = field(default_factory=set)
    name_cleanup: Set[str] = field(default_factory=set)
    aliases: Dict[str, str] = field(default_factory=dict)  #: local -> attr
    sends: List[SendSite] = field(default_factory=list)
    schedules: List[int] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    def callees(self) -> Set[str]:
        return {c.callee for c in self.calls}


@dataclass
class HandlerModel:
    """One handler's transitive, alias-resolved footprint."""

    cls: str
    role: Optional[str]          #: "dir" | "core" | "agent" | None
    method: str
    line: int
    triggers: Tuple[str, ...]    #: MessageType names dispatched to it
    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    additive: Set[str] = field(default_factory=set)
    cleanup: Set[str] = field(default_factory=set)
    sends: List[SendSite] = field(default_factory=list)
    deferred: bool = False       #: reaches sim.schedule (callbacks run later)
    #: reached ``self.X(...)`` calls to methods the class does not define
    #: (inherited helpers such as ``apply_commit``): their effects are
    #: outside the model, so they must be assumed to send or schedule
    opaque_calls: Set[str] = field(default_factory=set)

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.method}"


@dataclass
class ClassStateModel:
    """Everything the race rules need about one protocol class."""

    name: str
    role: Optional[str]
    path: str                    #: repo-relative source path
    line: int
    attrs: Set[str] = field(default_factory=set)       #: tracked state attrs
    counters: Set[str] = field(default_factory=set)    #: commutative counters
    #: attrs initialized empty (None / empty container): they owe a release
    releasable: Set[str] = field(default_factory=set)
    methods: Dict[str, MethodSummary] = field(default_factory=dict)
    dispatch: Dict[str, str] = field(default_factory=dict)  #: mtype -> method
    handlers: Dict[str, HandlerModel] = field(default_factory=dict)
    #: methods transitively reachable from any handler
    reachable: Set[str] = field(default_factory=set)
    #: sends from methods not reachable from any handler (protocol roots,
    #: e.g. ``send_commit_request``)
    root_sends: List[SendSite] = field(default_factory=list)


@dataclass
class StateModel:
    """The whole-family model: classes of one protocol plus the substrate."""

    family: str
    classes: List[ClassStateModel] = field(default_factory=list)

    def handler_classes(self) -> List[ClassStateModel]:
        return [c for c in self.classes if c.handlers]


# ----------------------------------------------------------------------
# Dispatch tables and message-type resolution
# ----------------------------------------------------------------------
def _read(pkg_dir: Path, rel: str,
          overrides: Optional[Dict[str, str]]) -> Optional[str]:
    """Source of a package-relative module, or its fixture override."""
    if overrides and rel in overrides:
        return overrides[rel]
    file = pkg_dir / rel
    if not file.exists():
        return None
    return file.read_text()


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


# ----------------------------------------------------------------------
# Per-method scan
# ----------------------------------------------------------------------
def _root_of(node: ast.AST) -> Optional[Root]:
    """The state root of an access path: ``self.cst[cid].w_sig`` has root
    ``("attr", "cst")``; ``entry.state`` has root ``("name", "entry")``."""
    probe = node
    while isinstance(probe, (ast.Subscript, ast.Attribute)):
        if (isinstance(probe, ast.Attribute)
                and isinstance(probe.value, ast.Name)):
            if probe.value.id == "self":
                return ("attr", probe.attr)
            return ("name", probe.value.id)
        probe = probe.value
    return None


def _is_cleanup_value(value: Optional[ast.AST]) -> bool:
    """Assigning None/0/False/-1/empty-literal releases state, it does not
    grow it — the distinction SB504 keys on."""
    if value is None:
        return False
    if isinstance(value, ast.Constant):
        return not value.value
    if (isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub)
            and isinstance(value.operand, ast.Constant)):
        return True  # negative sentinel, e.g. ``occupant_proc = -1``
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    return False


_EMPTY_CTORS = {"set", "dict", "list", "deque", "defaultdict"}


def _is_releasable_init(value: Optional[ast.AST]) -> bool:
    """Does ``__init__`` start the attribute in an *empty* state (None or
    an empty container)?  Only such attrs owe an eventual release — a
    scalar clock initialized to 0 does not (SB504 scope)."""
    if value is None:
        return False
    if isinstance(value, ast.Constant):
        return value.value is None
    if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Call) and not value.args:
        name = (value.func.id if isinstance(value.func, ast.Name)
                else getattr(value.func, "attr", ""))
        return name in _EMPTY_CTORS
    return False


def _note(book: Dict[str, int], key: str, line: int, *,
          infra_check: bool = True) -> None:
    if infra_check and key in _INFRA_ATTRS:
        return
    book.setdefault(key, line)


def _scan_method(fn: ast.FunctionDef) -> MethodSummary:
    s = MethodSummary(name=fn.name, line=fn.lineno,
                      params=tuple(a.arg for a in fn.args.args
                                   if a.arg != "self"))

    def record_store(target: ast.AST, line: int, cleanup: bool) -> None:
        root = _root_of(target)
        if root is None:
            return
        kind, key = root
        if kind == "attr":
            if key in _INFRA_ATTRS:
                return
            _note(s.writes, key, line)
            (s.cleanup if cleanup else s.additive).add(key)
            if isinstance(target, ast.Subscript):
                _note(s.reads, key, line)
        else:
            _note(s.name_writes, key, line, infra_check=False)
            (s.name_cleanup if cleanup else s.name_additive).add(key)

    def note_alias(target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        hits = set()
        for node in ast.walk(value):
            root = _root_of(node) if isinstance(node, ast.Attribute) else None
            if root and root[0] == "attr" and root[1] not in _INFRA_ATTRS:
                hits.add(root[1])
        if len(hits) == 1:
            s.aliases[target.id] = hits.pop()

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                record_store(t, t.lineno, _is_cleanup_value(node.value))
                if node.value is not None:
                    note_alias(t, node.value)
        elif isinstance(node, ast.AugAssign):
            record_store(node.target, node.target.lineno, cleanup=False)
            root = _root_of(node.target)
            if root is not None:
                if root[0] == "attr":
                    _note(s.reads, root[1], node.target.lineno)
                else:
                    _note(s.name_reads, root[1], node.target.lineno,
                          infra_check=False)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                record_store(t, t.lineno, cleanup=True)
        elif isinstance(node, ast.For):
            note_alias(node.target, node.iter)
        elif isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                s.calls.append(CallSite(
                    callee=func.attr, line=node.lineno,
                    arg_roots=tuple(_name_of(a) for a in node.args)))
            if func.attr in _SEND_METHODS and node.args:
                mtypes = tuple(_resolve_mtype_arg(node.args[0], fn))
                s.sends.append(SendSite(
                    mtypes=mtypes, dest=_send_dest(node), line=node.lineno,
                    via=fn.name))
            if func.attr in _SCHED_METHODS:
                s.schedules.append(node.lineno)
            if func.attr in _MUTATOR_METHODS:
                root = _root_of(base)
                if root is None:
                    continue
                cleanup = func.attr in _CLEANUP_METHODS
                kind, key = root
                if kind == "attr":
                    if key in _INFRA_ATTRS:
                        continue
                    _note(s.writes, key, node.lineno)
                    _note(s.reads, key, node.lineno)
                    (s.cleanup if cleanup else s.additive).add(key)
                else:
                    _note(s.name_writes, key, node.lineno, infra_check=False)
                    _note(s.name_reads, key, node.lineno, infra_check=False)
                    (s.name_cleanup if cleanup else s.name_additive).add(key)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = _root_of(node)
            if root is None:
                continue
            if root[0] == "attr":
                _note(s.reads, root[1], node.lineno)
            else:
                _note(s.name_reads, root[1], node.lineno, infra_check=False)
    return s


def _name_of(node: ast.AST) -> Optional[Root]:
    """Root for a bare-``Name`` argument (``self._helper(entry)``)."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    return _root_of(node)


def _send_dest(call: ast.Call) -> str:
    """Destination role of a send call (third positional arg by idiom).

    ``msg.src`` destinations are *replies*: the concrete role depends on
    who sent the triggering message, so they resolve to the sentinel
    ``"reply"`` (the flow analysis resolves it through the trigger's
    senders; the causality graph treats it like ``"unknown"``).
    """
    if len(call.args) < 3:
        return "unknown"
    dst = call.args[2]
    if isinstance(dst, ast.Attribute) and dst.attr == "src":
        return "reply"
    text = ast.unparse(dst)
    for node in ast.walk(call.args[2]):
        if isinstance(node, ast.Call):
            name = (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", ""))
            if name == "dir_node":
                return "dir"
            if name == "core_node":
                return "core"
            if name == "arbiter_node":
                return "agent"
    if "arbiter" in text or "vendor" in text:
        return "agent"
    if "dir_node" in text:
        return "dir"
    if "core_node" in text:
        return "core"
    return "unknown"


def _is_counter_write(node: ast.AST) -> bool:
    """``self.x += <literal>`` — the commutative-counter idiom."""
    return (isinstance(node, ast.AugAssign)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.value, ast.Constant))


# ----------------------------------------------------------------------
# Transitive, alias-resolving closure
# ----------------------------------------------------------------------
def _closure(cls: "ClassStateModel", entry: str) -> HandlerModel:
    """Effective footprint of ``entry``: helper calls are inlined, helper
    parameters bound to state containers carry their accesses back to the
    owning attribute, and helper footprints are charged at the caller's
    call line so anchors stay stable under helper-internal edits."""
    out = HandlerModel(cls=cls.name, role=cls.role, method=entry,
                       line=cls.methods[entry].line, triggers=())
    seen: Set[Tuple[str, Tuple[Tuple[str, str], ...]]] = set()
    stack: List[Tuple[str, Dict[str, str], int]] = [(entry, {}, 0)]
    while stack:
        name, env, via = stack.pop()
        if name not in cls.methods:
            out.opaque_calls.add(name)
            continue
        key = (name, tuple(sorted(env.items())))
        if key in seen:
            continue
        seen.add(key)
        s = cls.methods[name]
        scope = dict(env)
        scope.update(s.aliases)
        for attr, line in s.reads.items():
            out.reads.setdefault(attr, via or line)
        for attr, line in s.writes.items():
            out.writes.setdefault(attr, via or line)
        out.additive |= s.additive
        out.cleanup |= s.cleanup
        for local, line in s.name_reads.items():
            if local in scope:
                out.reads.setdefault(scope[local], via or line)
        for local, line in s.name_writes.items():
            if local in scope:
                out.writes.setdefault(scope[local], via or line)
        out.additive |= {scope[n] for n in s.name_additive if n in scope}
        out.cleanup |= {scope[n] for n in s.name_cleanup if n in scope}
        for site in s.sends:
            out.sends.append(site if not via else SendSite(
                mtypes=site.mtypes, dest=site.dest, line=via, via=site.via))
        if s.schedules:
            out.deferred = True
        for call in s.calls:
            callee_env: Dict[str, str] = {}
            if call.callee in cls.methods:
                params = cls.methods[call.callee].params
                for i, root in enumerate(call.arg_roots):
                    if root is None or i >= len(params):
                        continue
                    kind, val = root
                    attr = (val if kind == "attr" and val not in _INFRA_ATTRS
                            else scope.get(val) if kind == "name" else None)
                    if attr:
                        callee_env[params[i]] = attr
            stack.append((call.callee, callee_env, via or call.line))
    out.sends.sort(key=lambda site: (site.line, site.mtypes))
    return out


def _extract_class(cnode: ast.ClassDef, path: str) -> ClassStateModel:
    cls = ClassStateModel(name=cnode.name, role=_role_of_class(cnode),
                          path=path, line=cnode.lineno)
    counter_only: Dict[str, bool] = {}
    for item in cnode.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        cls.methods[item.name] = _scan_method(item)
        if item.name in DISPATCH_METHODS:
            _extract_dispatch(item, cls.dispatch)
        for node in ast.walk(item):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    root = _root_of(t)
                    if (root is None or root[0] != "attr"
                            or root[1] in _INFRA_ATTRS):
                        continue
                    attr = root[1]
                    if isinstance(t, ast.Subscript):
                        counter_only[attr] = False
                        continue
                    cls.attrs.add(attr)
                    is_counter = _is_counter_write(node)
                    if item.name == "__init__" and not is_counter:
                        counter_only.setdefault(attr, True)
                        if _is_releasable_init(getattr(node, "value", None)):
                            cls.releasable.add(attr)
                    else:
                        counter_only[attr] = (
                            counter_only.get(attr, True) and is_counter)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS):
                    root = _root_of(func.value)
                    if root and root[0] == "attr":
                        counter_only[root[1]] = False
    cls.counters = {a for a, ok in counter_only.items()
                    if ok and a in cls.attrs}

    # handlers: one model per dispatched method (triggers grouped)
    triggers_of: Dict[str, List[str]] = {}
    for mtype, method in cls.dispatch.items():
        triggers_of.setdefault(method, []).append(mtype)
    for method, triggers in sorted(triggers_of.items()):
        if method not in cls.methods:
            continue
        handler = _closure(cls, method)
        handler.triggers = tuple(sorted(triggers))
        cls.handlers[method] = handler

    # reachability: which methods any handler can reach
    for method in cls.handlers:
        stack = [method]
        while stack:
            name = stack.pop()
            if name in cls.reachable or name not in cls.methods:
                continue
            cls.reachable.add(name)
            stack.extend(cls.methods[name].callees())

    # root sends: emitted by methods no handler reaches
    for name, summary in cls.methods.items():
        if name in cls.reachable or name == "__init__":
            continue
        cls.root_sends.extend(summary.sends)
    return cls


def _extract_source(path_label: str, source: str) -> List[ClassStateModel]:
    tree = ast.parse(source)
    return [_extract_class(node, path_label) for node in tree.body
            if isinstance(node, ast.ClassDef)]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def extract_state_model(family: str, pkg_dir: Optional[Path] = None,
                        source_overrides: Optional[Dict[str, str]] = None
                        ) -> StateModel:
    """The state-access model for one protocol family plus the substrate.

    ``source_overrides`` maps package-relative paths to replacement source
    text — the seeded-mutation tests inject doctored modules this way.
    """
    if pkg_dir is None:
        import repro
        pkg_dir = Path(repro.__file__).resolve().parent
    model = StateModel(family=family)
    rels = list(FAMILY_SOURCES[family]) + [SUBSTRATE_MODULE]
    for rel in rels:
        src = _read(pkg_dir, rel, source_overrides)
        if src is None:
            continue
        model.classes.extend(_extract_source("src/repro/" + rel, src))
    return model


def extract_all_models(pkg_dir: Optional[Path] = None,
                       source_overrides: Optional[Dict[str, str]] = None
                       ) -> Dict[str, StateModel]:
    """One :class:`StateModel` per protocol family, in declaration order."""
    return {family: extract_state_model(family, pkg_dir, source_overrides)
            for family in FAMILY_SOURCES}


__all__ = ["CallSite", "ClassStateModel", "DISPATCH_METHODS", "FAMILY_SOURCES",
           "HandlerModel", "MESSAGE_DECLS", "MethodSummary", "SendSite",
           "StateModel", "SUBSTRATE_MODULE", "SUBSTRATE_SOURCES",
           "extract_all_models", "extract_state_model"]
