"""Read declared ``PROTOCOL_SPEC``s and message declarations from sources.

Every declaration is parsed from the AST, never imported: the seeded
flow-mutation fixtures inject doctored module sources via
``source_overrides``, and an import would see the installed tree instead
of the fixture.  The parsed keyword literals are still fed through the
real :class:`repro.protocols.spec.ProtocolSpec` constructor so its
validation (role names, reply/edge consistency) applies to fixture specs
exactly as it does to the committed ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.analysis.races.model import MESSAGE_DECLS, _read
from repro.protocols.spec import ProtocolSpec

#: family -> module (package-relative) declaring its ``PROTOCOL_SPEC``.
#: ScalableBulk's conversation spans two files; the spec lives with the
#: directory engine, which owns every multi-party edge.
SPEC_SOURCES: Dict[str, str] = {
    "scalablebulk": "core/directory_engine.py",
    "bulksc": "baselines/bulksc.py",
    "tcc": "baselines/tcc.py",
    "seq": "baselines/seq.py",
    "substrate": "memory/directory.py",
}


class SpecError(ValueError):
    """A ``PROTOCOL_SPEC`` declaration that cannot be used."""

    def __init__(self, message: str, path: str, line: int) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


@dataclass(frozen=True)
class ParsedSpec:
    """A spec plus where it was declared (for finding anchors)."""

    spec: ProtocolSpec
    path: str        #: repo-relative source path
    line: int


def parse_spec(path_label: str, source: str) -> Optional[ParsedSpec]:
    """The ``PROTOCOL_SPEC = ProtocolSpec(...)`` declaration, if any.

    The declaration must be keyword-only with literal values — exactly
    the shape :mod:`repro.protocols.spec` documents.  A malformed or
    invalid declaration raises :class:`SpecError` (surfaced as an SB602
    finding); a missing one returns ``None``.
    """
    tree = ast.parse(source)
    for node in tree.body:
        targets: Tuple[ast.expr, ...] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = tuple(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = (node.target,), node.value
        if not any(isinstance(t, ast.Name) and t.id == "PROTOCOL_SPEC"
                   for t in targets):
            continue
        line = node.lineno
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "ProtocolSpec"):
            raise SpecError("PROTOCOL_SPEC must be a ProtocolSpec(...) "
                            "literal", path_label, line)
        kwargs: Dict[str, Any] = {}
        if value.args:
            raise SpecError("PROTOCOL_SPEC arguments must be keyword-only",
                            path_label, line)
        for kw in value.keywords:
            if kw.arg is None:
                raise SpecError("PROTOCOL_SPEC must not use **kwargs",
                                path_label, line)
            try:
                kwargs[kw.arg] = ast.literal_eval(kw.value)
            except ValueError as exc:
                raise SpecError(
                    f"PROTOCOL_SPEC field {kw.arg!r} is not a pure literal",
                    path_label, line) from exc
        try:
            spec = ProtocolSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc), path_label, line) from exc
        return ParsedSpec(spec=spec, path=path_label, line=line)
    return None


def load_spec(family: str, pkg_dir: Path,
              source_overrides: Optional[Dict[str, str]] = None
              ) -> Optional[ParsedSpec]:
    """The declared spec of ``family`` from its home module."""
    rel = SPEC_SOURCES[family]
    source = _read(pkg_dir, rel, source_overrides)
    if source is None:
        return None
    return parse_spec("src/repro/" + rel, source)


@dataclass
class MessageDecls:
    """What ``network/message.py`` declares, read from its AST."""

    #: ``MessageType`` member name -> declaration line
    types: Dict[str, int] = field(default_factory=dict)
    #: ``PIGGYBACKED_TYPES``: rider type -> the carrier types it rides on
    piggybacked: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: ``FAMILY_TYPES``: family name -> its message vocabulary
    families: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def _member(node: Optional[ast.expr]) -> Optional[str]:
    """``X`` for a ``MessageType.X`` expression, else ``None``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "MessageType"):
        return node.attr
    return None


def _type_table(value: ast.Dict) -> Dict[str, Tuple[str, ...]]:
    """A ``{key: (MessageType.X, ...)}`` literal as names.  Keys may be
    ``MessageType`` members or strings; anything else is skipped."""
    out: Dict[str, Tuple[str, ...]] = {}
    for key, val in zip(value.keys, value.values):
        name = (key.value if isinstance(key, ast.Constant)
                and isinstance(key.value, str) else _member(key))
        if name is None:
            continue
        members: Tuple[str, ...] = ()
        if isinstance(val, (ast.Tuple, ast.List)):
            members = tuple(m for m in map(_member, val.elts) if m)
        out[name] = members
    return out


def read_message_decls(pkg_dir: Path,
                       source_overrides: Optional[Dict[str, str]] = None
                       ) -> MessageDecls:
    """The ``MessageType`` members, ``PIGGYBACKED_TYPES`` and
    ``FAMILY_TYPES`` declared in ``network/message.py``."""
    decls = MessageDecls()
    source = _read(pkg_dir, MESSAGE_DECLS, source_overrides)
    if source is None:
        return decls
    tables = {"PIGGYBACKED_TYPES": decls.piggybacked,
              "FAMILY_TYPES": decls.families}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "MessageType":
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for t in item.targets:
                        if isinstance(t, ast.Name):
                            decls.types[t.id] = item.lineno
            continue
        targets: Tuple[ast.expr, ...] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = tuple(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = (node.target,), node.value
        if not isinstance(value, ast.Dict):
            continue
        for t in targets:
            if isinstance(t, ast.Name) and t.id in tables:
                tables[t.id].update(_type_table(value))
    return decls


__all__ = ["MessageDecls", "ParsedSpec", "SPEC_SOURCES", "SpecError",
           "load_spec", "parse_spec", "read_message_decls"]
