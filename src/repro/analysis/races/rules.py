"""Pass 4: state-access rules SB502 and SB504 over the :mod:`model`.

* **SB502 — send before state update**: a method emits a message and
  *then* mutates an attribute that the message's audience (the handlers
  the sent type dispatches to, in any class of the family) reads.  The
  receiver's reaction can race the sender's late write.
* **SB504 — unreconciled state growth**: an attribute is grown
  (container insert / assignment of a live value) by handler-reachable
  code, but no handler-reachable path ever shrinks or releases it — the
  squash/abort reconciliation the paper's failure paths owe is missing
  (the reservation-leak family).

Counters (``+= constant`` only) are exempt everywhere: their writes
commute.  Findings are deterministic: sorted by key, deduplicated across
families (the substrate is analyzed once per family but reported once).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.races.model import StateModel, extract_all_models


def _fmt_attrs(attrs: Set[str]) -> str:
    ordered = sorted(attrs)
    if len(ordered) > 4:
        return ", ".join(ordered[:4]) + f", … ({len(ordered)} attrs)"
    return ", ".join(ordered)


# ----------------------------------------------------------------------
# SB502: a send precedes a mutation the audience can observe racing
# ----------------------------------------------------------------------
def _audience_reads(model: StateModel, mtypes: Tuple[str, ...]) -> Set[str]:
    reads: Set[str] = set()
    for cls in model.handler_classes():
        for mtype in mtypes:
            method = cls.dispatch.get(mtype)
            if method in cls.handlers:
                reads |= set(cls.handlers[method].reads)
    return reads


def _check_send_before_update(model: StateModel) -> List[Finding]:
    findings: List[Finding] = []
    for cls in model.handler_classes():
        for name in sorted(cls.reachable):
            summary = cls.methods.get(name)
            if summary is None or not summary.sends:
                continue
            per_key: Dict[Tuple[str, ...], Set[str]] = {}
            first_line: Dict[Tuple[str, ...], int] = {}
            for site in summary.sends:
                if not site.mtypes:
                    continue
                audience = _audience_reads(model, site.mtypes)
                late: Set[str] = set()
                for attr, line in summary.writes.items():
                    if line > site.line and attr in audience:
                        late.add(attr)
                for local, line in summary.name_writes.items():
                    attr = summary.aliases.get(local)
                    if attr and line > site.line and attr in audience:
                        late.add(attr)
                late -= cls.counters
                if late:
                    key = tuple(sorted(site.mtypes))
                    per_key.setdefault(key, set()).update(late)
                    first_line.setdefault(key, site.line)
            for key, attrs in sorted(per_key.items()):
                findings.append(Finding(
                    code="SB502", path=cls.path, line=first_line[key],
                    anchor=f"{cls.name}.{name}->{'/'.join(key)}",
                    message=(f"{cls.name}.{name} sends {'/'.join(key)} and "
                             f"afterwards mutates {_fmt_attrs(attrs)}, which "
                             f"the message's audience reads — the reaction "
                             f"can race the late update")))
    return findings


# ----------------------------------------------------------------------
# SB504: state grown by handlers but never reconciled/released
# ----------------------------------------------------------------------
def _check_unreconciled_growth(model: StateModel) -> List[Finding]:
    findings: List[Finding] = []
    for cls in model.handler_classes():
        grown: Dict[str, str] = {}        #: attr -> first growing handler
        released: Set[str] = set()
        for method in sorted(cls.handlers):
            handler = cls.handlers[method]
            for attr in (handler.additive & cls.releasable) - cls.counters:
                grown.setdefault(attr, method)
            released |= handler.cleanup
        for attr, method in sorted(grown.items()):
            if attr in released:
                continue
            findings.append(Finding(
                code="SB504", path=cls.path,
                line=cls.handlers[method].writes.get(
                    attr, cls.handlers[method].line),
                anchor=f"{cls.name}:{attr}:leak",
                message=(f"{cls.name}.{attr} is grown by handler "
                         f"{method} (and possibly others) but no "
                         f"handler-reachable path ever shrinks or releases "
                         f"it — squash/abort reconciliation is missing")))
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_races(pkg_dir: Optional[Path] = None,
               source_overrides: Optional[Dict[str, str]] = None
               ) -> List[Finding]:
    """Run SB502 and SB504 over every family; deduplicated, sorted."""
    out: Dict[str, Finding] = {}
    for model in extract_all_models(pkg_dir, source_overrides).values():
        for finding in (_check_send_before_update(model)
                        + _check_unreconciled_growth(model)):
            out.setdefault(finding.key, finding)
    return sorted(out.values(), key=lambda f: f.key)


__all__ = ["lint_races"]
