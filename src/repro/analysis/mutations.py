"""Seeded protocol bugs: one registry, one pinned teeth matrix.

Each :class:`Mutation` is a paper rule broken on purpose, written as a
source transform of the *real* protocol file.  Every checker consumes the
same doctored text:

* the static passes (``flows``, ``races``) take it as
  ``source_overrides``: nothing on disk changes;
* ``explore`` and ``chaos`` run it through :meth:`Mutation.apply`, which
  compiles the doctored file into a fresh module object (real filename,
  never entered in ``sys.modules``) and binds every method whose AST
  differs onto the built machine's instances of that class, then rebinds
  those instances' dispatch tables (the doctored ``HANDLERS`` where the
  transform edits one).  The classes themselves stay the real ones, so
  every ``isinstance`` check of the checkers (invariant monitor, oracle,
  watchdog, fault injectors) still holds.

``caught`` pins the mutation's row of the teeth matrix, pass -> what
catches it.  For ``flows``/``races``: exactly the finding keys the
mutation adds to the unmutated tree's.  For ``explore``/``chaos``: the
SB4xx codes that count as detection.  A pass absent from ``caught`` must
*miss* the bug: no new finding, or a clean run.  An all-missed row is a
real result: a bug no checker sees yet.

``scenario`` names the explore scenario the dynamic passes run the bug
on; it is ``None`` when the bug changes nothing a machine runs.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MethodType, ModuleType
from typing import (Any, Callable, Dict, FrozenSet, Optional, Sequence, Set,
                    Tuple)

from repro.network.message import bind_handlers, handler_names

#: the matrix's columns
PASSES = ("flows", "races", "explore", "chaos")
#: the columns pinned as exact new finding keys (the rest: detecting codes)
STATIC_PASSES = ("flows", "races")

_PKG = Path(__file__).resolve().parent.parent
_SB_DIR = "core/directory_engine.py"
_DECLS = "network/message.py"
_TCC = "baselines/tcc.py"
_BULKSC = "baselines/bulksc.py"
_SEQ = "baselines/seq.py"


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: a source transform and its pinned matrix row."""

    name: str
    description: str
    rel_path: str                            #: package-relative file doctored
    transform: Callable[[str], str]
    scenario: Optional[str]                  #: None: no machine runs it
    caught: Dict[str, Tuple[str, ...]] = field(default_factory=dict,
                                               hash=False)

    def overrides(self, pkg_dir: Optional[Path] = None) -> Dict[str, str]:
        """The doctored file as the static passes take it."""
        source = ((pkg_dir or _PKG) / self.rel_path).read_text()
        return {self.rel_path: self.transform(source)}

    def apply(self, machine: Any) -> None:
        """Bind every method the transform changes onto ``machine``'s
        instances of its class, and rebuild the dispatch table of every
        instance that holds a changed method or whose class's
        ``HANDLERS`` the transform edits: the table bound the real
        methods at build time.

        Raises ``ValueError`` when that would not mutate the run: the
        transform changes no method or table of any object the machine
        built, or a changed method already ran or was captured at build
        time (a network handler, ``__init__``)."""
        module, changed, tables = _doctor(self.rel_path, self.transform)
        handlers = {(id(h.__self__), h.__name__)
                    for h in machine.network._handlers.values()
                    if hasattr(h, "__self__")}
        bound = 0
        for obj in _built_objects(machine):
            rebind = False
            for cls in type(obj).__mro__:
                if cls.__module__ != module.__name__:
                    continue
                rebind |= cls.__qualname__ in tables
                for method in changed.get(cls.__qualname__, ()):
                    owner = next(c for c in type(obj).__mro__
                                 if c is cls or method in vars(c))
                    if owner is not cls:
                        continue  # a subclass overrides it
                    if method == "__init__" or (id(obj), method) in handlers:
                        raise ValueError(
                            f"{self.name}: {cls.__qualname__}.{method} was "
                            "bound when the machine was built; the run "
                            "would keep the unmutated code")
                    raw = vars(getattr(module, cls.__qualname__))[method]
                    setattr(obj, method,
                            raw.__func__ if isinstance(raw, staticmethod)
                            else MethodType(raw, obj))
                    bound += 1
                    rebind = True
            if rebind and hasattr(obj, "_table"):
                doctored = {cls: tables[cls.__qualname__]
                            for cls in type(obj).__mro__
                            if cls.__module__ == module.__name__
                            and cls.__qualname__ in tables}
                obj._table = bind_handlers(
                    obj, handler_names(type(obj), doctored))
                bound += 1
        if not bound:
            raise ValueError(
                f"{self.name} changes no method or handler table of any "
                f"object a {machine.config.protocol.value} machine builds")


@lru_cache(maxsize=None)
def _doctor(rel_path: str, transform: Callable[[str], str]
            ) -> Tuple[ModuleType, Dict[str, FrozenSet[str]],
                       Dict[str, Dict[str, str]]]:
    """(fresh module compiled from the doctored file, class -> names of
    the methods whose AST the transform changed, class -> its doctored
    ``HANDLERS`` where the transform changed that table)."""
    path = _PKG / rel_path
    original = path.read_text()
    source = transform(original)
    module = ModuleType("repro." + rel_path[:-3].replace("/", "."))
    module.__file__ = str(path)
    exec(compile(source, str(path), "exec"), vars(module))
    before = _methods(original)
    changed: Dict[str, Set[str]] = {}
    for (cls, method), dump in _methods(source).items():
        if before.get((cls, method)) != dump:
            changed.setdefault(cls, set()).add(method)
    real = importlib.import_module(module.__name__)
    tables = {name: vars(cls).get("HANDLERS", {})
              for name, cls in vars(module).items()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and vars(cls).get("HANDLERS")
              != vars(getattr(real, name, object)).get("HANDLERS")}
    return (module, {cls: frozenset(names) for cls, names in changed.items()},
            tables)


def _methods(source: str) -> Dict[Tuple[str, str], str]:
    """(class, method) -> the method's position-free AST dump."""
    return {(node.name, item.name): ast.dump(item)
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)}


def _built_objects(machine: Any) -> Sequence[Any]:
    """Every object the machine and its protocol hold: directories,
    cores, processor engines, central agents."""
    seen: Dict[int, Any] = {}
    for holder in (machine, machine.protocol):
        for value in vars(holder).values():
            for obj in value if isinstance(value, list) else (value,):
                seen.setdefault(id(obj), obj)
    return list(seen.values())


def _must_replace(src: str, old: str, new: str) -> str:
    """Replace every ``old``; a missing anchor raises, so a transform
    can never silently leave the tree unmutated."""
    if old not in src:
        raise ValueError(f"anchor text not found: {old.strip()[:60]!r}")
    return src.replace(old, new)


def _edit(*pairs: Tuple[str, str]) -> Callable[[str], str]:
    """A transform applying each ``(old, new)`` replacement in turn."""
    def transform(src: str) -> str:
        for old, new in pairs:
            src = _must_replace(src, old, new)
        return src
    return transform


def _keys(rel_path: str, *findings: str) -> Tuple[str, ...]:
    """Finding keys in ``rel_path`` from ``"CODE anchor"`` strings."""
    return tuple(f"{code} src/repro/{rel_path}::{anchor}"
                 for code, anchor in (f.split(" ", 1) for f in findings))


_SILENT_DIRECTORY = """class SilentDirectory:
    HANDLERS = {"COMMIT_DONE": "_on_commit_done"}

    def _on_commit_done(self, msg):
        self.cst.pop(msg.ctag, None)
        self.count = 1


"""
_FAIL_BLOCK = ("        self.cst.pop(cid, None)\n"
               "        self.failed_cids.add(cid)\n")
_G_SUCCESS_BLOCK = ("        entry.state = ChunkCommitState.CONFIRMED\n"
                    "        self.apply_commit(entry.local_write_lines, "
                    "entry.proc)\n")


#: every seeded bug, keyed by name
MUTATIONS: Dict[str, Mutation] = {m.name: m for m in (
    # -- ScalableBulk directory: the paper's rules broken --------------
    Mutation(
        "drop-commit-nack",
        "directory counts a BULK_INV_NACK but never resends the "
        "invalidation, so the leader waits forever",
        _SB_DIR, _edit((
            "        self.sim.schedule(base + jitter,\n"
            "                          lambda: self._resend_bulk_inv("
            "msg.ctag, proc))\n", "")),
        "nack3",
        {"flows": _keys(_SB_DIR, "SB003 ScalableBulkDirectory."
                                 "_on_bulk_inv_nack"),
         "explore": ("SB403", "SB404"), "chaos": ("SB403", "SB404")}),
    Mutation(
        "skip-w-intersection",
        "admission test probes only R signatures, skipping the W/W half "
        "of Section 3.2.1's incompatibility",
        _SB_DIR, _edit((
            "        return entry.incompatible_with(other)\n",
            "        return (any(other.r_sig.contains(line)\n"
            "                    for line in entry.write_lines)\n"
            "                or any(entry.r_sig.contains(line)\n"
            "                       for line in other.write_lines))\n")),
        "cross3",
        {"explore": ("SB401", "SB402")}),
    Mutation(
        "collision-wrong-winner",
        "a collision revokes the held group for a higher-priority "
        "newcomer, though Section 3.2.1 never revokes an admitted group",
        _SB_DIR, _edit((
            "                self._fail_group(entry)\n"
            "                return\n",
            "                if (entry.order and other.order\n"
            "                        and entry.order[0] < other.order[0]):\n"
            "                    self._fail_group(other)\n"
            "                    self._maybe_advance(entry)\n"
            "                else:\n"
            "                    self._fail_group(entry)\n"
            "                return\n")),
        "cross3",
        {"explore": ("SB403", "SB404", "SB405")}),
    Mutation(
        "reservation-leak",
        "starvation reservation (Section 3.2.2) never released after the "
        "reserved chunk commits",
        _SB_DIR, _edit(("self.reserved_for = None",
                        "self.reserved_for = ident")),
        "cross3",
        {"races": _keys(_SB_DIR, "SB504 ScalableBulkDirectory:"
                                 "reserved_for:leak"),
         "chaos": ("SB403", "SB404")}),
    Mutation(
        "recall-watch-leak",
        "OCI recall watch entries are added but never consumed",
        _SB_DIR, _edit(("self.recall_watch.discard(entry.cid)",
                        "self.recall_watch.copy()"),
                       ("self.recall_watch.discard(cid)",
                        "self.recall_watch.copy()")),
        "cross3",
        {"races": _keys(_SB_DIR, "SB504 ScalableBulkDirectory:"
                                 "recall_watch:leak")}),
    Mutation(
        "fail-group-reorder",
        "G_FAILURE is multicast before the collision module records the "
        "failure locally",
        _SB_DIR, _edit((_FAIL_BLOCK, ""),
                       ("        if entry.leader_here:\n",
                        _FAIL_BLOCK + "        if entry.leader_here:\n")),
        "cross3",
        {"races": _keys(_SB_DIR, "SB502 ScalableBulkDirectory."
                                 "_fail_group->G_FAILURE")}),
    # -- ScalableBulk directory: flow and dispatch defects -------------
    Mutation(
        "delete-handler",
        "directory stops dispatching G_SUCCESS",
        _SB_DIR, _edit(('        "G_SUCCESS": "_on_g_success",\n', "")),
        "cross3",
        {"flows": _keys(_SB_DIR, "SB002 ScalableBulkDirectory._on_g_success",
                        "SB601 scalablebulk/G_SUCCESS:never-handled"),
         "explore": ("SB403",), "chaos": ("SB403",)}),
    Mutation(
        "orphan-handler",
        "directory stops dispatching G_FAILURE",
        _SB_DIR, _edit(('        "G_FAILURE": "_on_g_failure",\n', "")),
        "cross3",
        {"flows": _keys(_SB_DIR, "SB002 ScalableBulkDirectory._on_g_failure",
                        "SB601 scalablebulk/G_FAILURE:never-handled"),
         "explore": ("SB403",), "chaos": ("SB403",)}),
    Mutation(
        "silent-handler",
        "a directory handler mutates state without sending or scheduling",
        _SB_DIR, _edit(("class ScalableBulkDirectory(",
                        _SILENT_DIRECTORY + "class ScalableBulkDirectory(")),
        None,
        {"flows": _keys(_SB_DIR, "SB003 SilentDirectory._on_commit_done")}),
    Mutation(
        "undeclared-send",
        "directory leaks G_SUCCESS to the processor, an edge no spec "
        "declares",
        _SB_DIR, _edit((_G_SUCCESS_BLOCK, _G_SUCCESS_BLOCK + (
            "        self.network.unicast(MessageType.G_SUCCESS, self.node,\n"
            "                             core_node(entry.proc), "
            "ctag=msg.ctag)\n"))),
        "cross3",
        {"flows": _keys(_SB_DIR, "SB601 scalablebulk/G_SUCCESS:never-handled",
                        "SB602 scalablebulk/dir-G_SUCCESS->core:undeclared"),
         "explore": ("SB403", "SB405"), "chaos": ("SB403", "SB405")}),
    Mutation(
        "misspelled-handler",
        "a directory HANDLERS entry names a method that does not exist; "
        "no machine can be built with it (binding the table raises)",
        _SB_DIR, _edit(('"BULK_INV_NACK": "_on_bulk_inv_nack"',
                        '"BULK_INV_NACK": "_on_bulk_inv_nak"')),
        None,
        {"flows": _keys(_SB_DIR, "SB002 ScalableBulkDirectory."
                                 "_on_bulk_inv_nack",
                        "SB604 ScalableBulkDirectory.HANDLERS:"
                        "BULK_INV_NACK")}),
    # -- message declarations ------------------------------------------
    Mutation(
        "ghost-type",
        "a declared message type is never sent",
        _DECLS, _edit(('COMMIT_RECALL = "commit_recall"',
                       'COMMIT_RECALL = "commit_recall"\n'
                       '    GHOST_MSG = "ghost_msg"')),
        None,
        {"flows": _keys(_DECLS, "SB004 MessageType.GHOST_MSG")}),
    Mutation(
        "vocabulary-gap",
        "COMMIT_DONE missing from FAMILY_TYPES while still sent and "
        "handled",
        _DECLS, _edit((
            "        MessageType.COMMIT_DONE, MessageType.COMMIT_RECALL,\n",
            "        MessageType.COMMIT_RECALL,\n")),
        None,
        {"flows": (_keys(_DECLS, "SB004 MessageType.COMMIT_DONE")
                   + _keys(_SB_DIR, "SB602 scalablebulk/dir-COMMIT_DONE->dir:"
                                    "unimplemented"))}),
    # -- baselines -----------------------------------------------------
    Mutation(
        "drop-reply",
        "TCC TID vendor never answers TID_REQ",
        _TCC, _edit((
            "        self.network.unicast(MessageType.TID_GRANT, self.node,\n"
            "                             core_node(proc), ctag=cid, "
            "tid=tid)\n", "")),
        "tcc3",
        {"flows": (_keys(_DECLS, "SB004 MessageType.TID_GRANT")
                   + _keys(_TCC, "SB601 tcc/TID_GRANT:never-sent",
                           "SB602 tcc/agent-TID_GRANT->core:unimplemented",
                           "SB603 tcc/TID_REQ:no-reply-path")),
         "explore": ("SB403",), "chaos": ("SB403",)}),
    Mutation(
        "arbiter-skip-w-probe",
        "BulkSC arbiter grants without probing in-flight W signatures",
        _BULKSC, _edit((
            "        return chunks_collide(write_lines, r_sig, w_sig,\n"
            "                              other.write_lines, other.r_sig, "
            "other.w_sig)\n",
            "        return chunks_collide(write_lines, r_sig, r_sig,\n"
            "                              other.write_lines, other.r_sig, "
            "other.r_sig)\n")),
        "bulksc3"),
    Mutation(
        "seq-early-release",
        "SEQ directory frees itself for the next occupant when the commit "
        "order arrives, before its invalidations are done",
        _SEQ, _edit(
            ("dir_id=self.dir_id)\n        self._free()\n",
             "dir_id=self.dir_id)\n"),
            ("\"acks_left\": 0}\n",
             "\"acks_left\": 0}\n        self._free()\n")),
        "seq3",
        {"explore": ("SB403", "SB404")}),
)}

__all__ = ["MUTATIONS", "Mutation", "PASSES", "STATIC_PASSES"]
