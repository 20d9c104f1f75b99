"""Findings, rule registry and the suppression baseline.

Every analysis pass reports :class:`Finding` objects.  A finding carries a
rule code (``SB002``…), the file and line it anchors to, a *stable anchor*
(the enclosing ``Class.method`` qualname, or a symbolic location for model
-checker findings) and a short explanation of why the pattern is a problem.

Suppression works on the *key* ``"<code> <path>::<anchor>"`` — deliberately
line-number free, so a baseline entry survives unrelated edits to the file.
The baseline file (``lint-baseline.txt`` at the repo root) lets the linter
land before the codebase is fully clean: existing findings are recorded
there with a justification and only *new* findings fail the gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: rule code -> (title, one-line rationale).  Documented in docs/analysis.md.
RULES: Dict[str, Tuple[str, str]] = {
    # -- pass 5: protocol-flow analysis, handler coverage ----------------
    "SB002": ("dead handler",
              "an _on_* handler method is never referenced by any dispatch "
              "table nor called by another method; it is unreachable code "
              "masquerading as protocol surface"),
    "SB003": ("silent state mutation",
              "a directory/agent handler mutates module state but neither "
              "schedules an event nor sends a message, so the state change "
              "costs zero simulated time and is invisible to the timeline"),
    "SB004": ("orphan message type",
              "a message type is declared in network/message.py but never "
              "put on the wire by any protocol, sits in no FAMILY_TYPES "
              "vocabulary (so no flow rule checks it), or breaks its "
              "PIGGYBACKED_TYPES declaration"),
    # -- pass 2: group-order model checker ------------------------------
    "SB201": ("traversal order not total",
              "order_gvec must return a permutation of the group sorted by "
              "priority rank with the leader first (Section 3.2)"),
    "SB202": ("priority inversion",
              "a g message must only flow from higher-priority to lower-"
              "priority modules (deadlock-freedom argument, Section 3.2)"),
    "SB203": ("ambiguous collision module",
              "two colliding groups must agree on a single Collision module "
              "— the highest-priority common module — or a group can be "
              "failed at two places (or none)"),
    "SB204": ("group deadlock",
              "a reachable hold-and-wait state exists in which no group can "
              "complete; grab acquisition must follow one global priority "
              "order"),
    # -- schedule exploration (repro.analysis.explore) -------------------
    "SB401": ("serializability violation",
              "under this message interleaving a chunk that read data later "
              "overwritten by an earlier-committed chunk itself committed "
              "without being squashed, or two conflicting groups were held "
              "or confirmed concurrently at one directory — atomic-block "
              "semantics are broken"),
    "SB402": ("lost invalidation",
              "a group was confirmed whose accumulated inval_vec misses a "
              "core holding a truly conflicting active chunk (the "
              "invalidation-completeness oracle fired under exploration)"),
    "SB403": ("deadlock",
              "the simulation quiesced with unfinished cores: some chunk "
              "can never commit under this interleaving (e.g. an ack that "
              "is never re-solicited)"),
    "SB404": ("livelock",
              "the schedule exceeded the event budget without finishing: "
              "the protocol keeps exchanging messages without making "
              "commit progress"),
    "SB405": ("ordering violation",
              "a Tables 4/5 message-ordering rule was broken under this "
              "interleaving (runtime conformance checker fired)"),
    "SB406": ("commit accounting mismatch",
              "a core finished with the wrong number of committed chunks, "
              "a squash-pending (OCI alias) chunk was never resolved, or a "
              "commit was double-counted — the OCI re-validation path "
              "mis-resolved under this interleaving"),
    # -- pass 4: state-access analysis (repro.analysis.races) ------------
    "SB502": ("send before state update",
              "a method emits a message and afterwards mutates state the "
              "message's audience reads; the receiver's reaction can race "
              "the late write and observe either version"),
    "SB504": ("unreconciled state growth",
              "a state attribute starting empty is grown by handler-"
              "reachable code but no handler-reachable path ever shrinks "
              "or releases it — squash/abort reconciliation is missing "
              "(the reservation-leak family)"),
    # -- pass 5: protocol-flow analysis (repro.analysis.flows) -----------
    "SB601": ("dangling message flow",
              "a message type is sent but no class of the destination role "
              "dispatches it, or a table entry waits for a type nothing "
              "ever sends — half a conversation, dead on arrival either "
              "way"),
    "SB602": ("spec conformance break",
              "the flow automaton extracted from the code and the declared "
              "ProtocolSpec disagree: a (sender, type, receiver) edge "
              "exists in code but not in the spec, or a declared edge has "
              "no implementing send site"),
    "SB603": ("conversation deadlock candidate",
              "a request type has no static reply path back to the "
              "requester role: no chain of handler reactions from the "
              "receiver ever emits one of the spec's declared reply/retry "
              "types toward the sender, so the requester can wait forever"),
    "SB604": ("malformed handler table",
              "a role's HANDLERS table is not a literal dict of strings, "
              "keys a type that is no declared MessageType, or names a "
              "method the class and its bases do not define: the runtime "
              "could not bind it"),
    # -- pass 3: determinism lint ----------------------------------------
    "SB301": ("unordered iteration reaches scheduler",
              "iterating a set/dict and scheduling events or sending "
              "messages inside the loop makes event order depend on hash/"
              "insertion order instead of an explicit sort key"),
    "SB302": ("unseeded randomness",
              "random draws outside engine/rng.py bypass the seed-derived "
              "stream splitting and break run-to-run reproducibility"),
    "SB303": ("id()-based ordering",
              "CPython id() values vary run to run; using them as a sort "
              "key or in comparisons makes event order non-reproducible"),
    "SB304": ("wall-clock read",
              "time.time()/datetime.now() and friends leak host time into "
              "the simulation, which must depend only on (config, seed)"),
}


@dataclass(frozen=True)
class Finding:
    """One report from an analysis pass."""

    code: str          #: rule code, e.g. "SB601"
    path: str          #: repo-relative, forward-slash path
    line: int          #: 1-based line (0 for whole-file/model findings)
    anchor: str        #: stable location key (qualname or symbolic)
    message: str       #: what is wrong, specifically

    @property
    def why(self) -> str:
        return RULES.get(self.code, ("", "unknown rule"))[1]

    @property
    def key(self) -> str:
        """Line-number-free identity used for suppression."""
        return f"{self.code} {self.path}::{self.anchor}"

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        title = RULES.get(self.code, ("?",))[0]
        return f"{loc}: {self.code} [{title}] {self.message}"


class Baseline:
    """The suppression file: one ``<code> <path>::<anchor>`` key per line.

    Anything after the key on a line is a free-form justification; it is
    kept (per key) so ``--write-baseline`` can regenerate the file without
    destroying the reasons humans wrote down.  Lines starting with ``#``
    and blank lines are ignored.
    """

    def __init__(self, keys: Optional[Set[str]] = None,
                 justifications: Optional[Dict[str, str]] = None) -> None:
        self.keys: Set[str] = set(keys or ())
        self.justifications: Dict[str, str] = dict(justifications or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        keys: Set[str] = set()
        justifications: Dict[str, str] = {}
        for raw in path.read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) >= 2:
                key = f"{parts[0]} {parts[1]}"
                keys.add(key)
                if len(parts) == 3 and parts[2].strip():
                    justifications[key] = parts[2].strip()
        return cls(keys, justifications)

    def split(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Finding], Set[str]]:
        """Partition into (fresh, suppressed) and report stale keys."""
        fresh, suppressed = [], []
        seen: Set[str] = set()
        for f in findings:
            seen.add(f.key)
            (suppressed if f.key in self.keys else fresh).append(f)
        stale = self.keys - seen
        return fresh, suppressed, stale

    @staticmethod
    def render(findings: Iterable[Finding],
               justifications: Optional[Dict[str, str]] = None,
               keep_keys: Iterable[str] = ()) -> str:
        """Serialize findings as a fresh baseline file body.

        ``justifications`` (typically the previous baseline's) are carried
        over per key; keys without one get a TODO marker so the reviewer
        can see which entries still owe an explanation.  ``keep_keys`` are
        previous-baseline keys to carry over verbatim — entries owned by
        passes that did not run this invocation (``--select``),
        which the current findings therefore cannot vouch for.
        """
        justifications = justifications or {}
        lines = [
            "# lint-baseline.txt — accepted findings of `python -m repro lint`.",
            "# One `<code> <path>::<anchor>` key per line; the rest of the",
            "# line is a justification (preserved across --write-baseline).",
            "",
        ]
        keys = {f.key for f in findings}
        keys.update(keep_keys)
        for key in sorted(keys):
            reason = justifications.get(key, "TODO: justify this entry")
            lines.append(f"{key}  {reason}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Inline suppression pragmas
# ----------------------------------------------------------------------
#: ``# repro: allow SB304`` (one or more codes, comma/space separated) on
#: the finding's own line suppresses it at the source instead of in the
#: central baseline file — the justification lives next to the code.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\s+(SB\d+(?:[,\s]+SB\d+)*)")


def file_pragmas(source: str) -> Dict[int, Set[str]]:
    """1-based line -> rule codes allowed by an inline pragma there."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(line)
        if match:
            out[lineno] = set(re.findall(r"SB\d+", match.group(1)))
    return out


def apply_pragmas(findings: Sequence[Finding], repo_root: Path
                  ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (kept, pragma-suppressed).

    A finding is suppressed when the line it anchors to carries a
    ``# repro: allow <code>`` pragma for its rule code.  Whole-file and
    model findings (line 0) cannot be pragma-suppressed — they have no
    single source line to annotate.
    """
    pragmas: Dict[str, Dict[int, Set[str]]] = {}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for f in findings:
        if not f.line:
            kept.append(f)
            continue
        if f.path not in pragmas:
            target = repo_root / f.path
            try:
                pragmas[f.path] = file_pragmas(target.read_text())
            except OSError:
                pragmas[f.path] = {}
        if f.code in pragmas[f.path].get(f.line, ()):
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


def repo_paths() -> Tuple[Path, Path]:
    """(package dir of ``repro``, repo root guess).

    The repo root is the parent of the ``src`` directory when the package
    is run from a checkout; otherwise the package dir's grandparent.
    """
    import repro
    pkg = Path(repro.__file__).resolve().parent
    return pkg, pkg.parent.parent


__all__ = ["Baseline", "Finding", "PRAGMA_RE", "RULES", "apply_pragmas",
           "file_pragmas", "repo_paths"]
