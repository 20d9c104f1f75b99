"""``python -m repro lint``: run the analysis passes and gate on them.

Exit status is 0 when every finding is either fixed, suppressed by an
inline ``# repro: allow SB***`` pragma on its own line, or recorded in the
baseline file — non-zero otherwise.  CI fails PRs that introduce new
``SB***`` findings while the pre-existing, justified ones stay suppressed.

Every pass runs by default: the group-order model checker, the
determinism lint, the SB5xx state-access race pass
(:mod:`repro.analysis.races`) and the protocol-flow pass
(:mod:`repro.analysis.flows`, SB002–SB004 and SB6xx).  ``--select SB6``
(any rule-code prefix) runs exactly the passes that can emit matching
codes and reports/baselines only those findings — baseline entries owned
by unselected passes are neither stale nor rewritten.  ``--confirm``
additionally labels each SB5xx finding CONFIRMED (with a replayable
schedule) or UNOBSERVED by running the access sanitizer over the explore
scenarios.  ``--jobs N`` runs the passes in parallel worker processes
with a deterministic merge.

Exit status: 0 when every finding is suppressed (or none exist), 1 when
fresh findings remain, 2 on usage errors (argparse).  ``--format json``
emits the machine-readable report documented in docs/analysis.md.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.determinism import lint_determinism
from repro.analysis.findings import (Baseline, Finding, RULES, apply_pragmas,
                                     repo_paths)
from repro.analysis.group_check import check_group_order
from repro.harness.parallel import run_ordered

DEFAULT_BASELINE = "lint-baseline.txt"

#: analysis pass -> the rule codes it can emit.  Drives ``--select`` (which
#: passes must run for a code prefix) and the stale-baseline exemption
#: (entries owned by a pass that did not run are not stale).
PASS_RULES: Dict[str, Tuple[str, ...]] = {
    "group": ("SB201", "SB202", "SB203", "SB204"),
    "determinism": ("SB301", "SB302", "SB303", "SB304"),
    "races": ("SB501", "SB502", "SB503", "SB504"),
    "flows": ("SB002", "SB003", "SB004",
              "SB601", "SB602", "SB603", "SB604"),
}

_PassPayload = Tuple[str, Optional[Path], int]


def _run_pass(payload: _PassPayload) -> List[Finding]:
    """One analysis pass; top-level so ``--jobs`` can pickle it."""
    name, pkg_dir, max_dirs = payload
    if name == "group":
        return check_group_order(max_dirs=max_dirs)
    if name == "determinism":
        return lint_determinism(pkg_dir)
    if name == "races":
        from repro.analysis.races.rules import lint_races
        return lint_races(pkg_dir)
    if name == "flows":
        from repro.analysis.flows.rules import lint_flows
        return lint_flows(pkg_dir)
    raise ValueError(f"unknown analysis pass {name!r}")


def run_all(pkg_dir: Optional[Path] = None, max_dirs: int = 4, *,
            jobs: int = 1, only: Optional[Sequence[str]] = None
            ) -> List[Finding]:
    """Analysis passes over the installed ``repro`` package, merged sorted.

    ``only`` names the exact passes to run (``--select``); otherwise every
    pass runs.  The result is sorted by ``(code, path, anchor)``, so the
    report is byte-identical regardless of ``jobs`` or pass scheduling.
    """
    passes = [name for name in PASS_RULES if only is None or name in only]
    payloads: List[_PassPayload] = [(name, pkg_dir, max_dirs)
                                    for name in passes]
    batches = run_ordered(_run_pass, payloads, jobs=jobs)
    findings = [f for batch in batches for f in batch]
    findings.sort(key=lambda f: (f.code, f.path, f.anchor))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="protocol linter + determinism/race static analysis")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"suppression file (default: "
                             f"<repo>/{DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, suppressing nothing")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the baseline "
                             "(existing per-key justifications are kept)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule-code prefixes, e.g. "
                             "'SB3' or 'SB002,SB2'")
    parser.add_argument("--max-dirs", type=int, default=4,
                        help="model-checker configuration bound (default 4; "
                             "CI uses 5)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule-code prefixes; run only "
                             "the passes that can emit matching codes and "
                             "report only matching findings, e.g. 'SB6' or "
                             "'SB301,SB5'")
    parser.add_argument("--confirm", action="store_true",
                        help="label SB5xx findings CONFIRMED/UNOBSERVED by "
                             "running the access sanitizer (slow)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the analysis passes "
                             "(deterministic merge; default 1)")
    parser.add_argument("--explain", action="store_true",
                        help="list the rule codes and exit")
    parser.add_argument("--pkg-dir", type=Path, default=None,
                        help=argparse.SUPPRESS)  # test fixtures only
    args = parser.parse_args(argv)

    if args.explain:
        for code, (title, why) in sorted(RULES.items()):
            print(f"{code}  {title}\n       {why}")
        return 0

    if args.pkg_dir is not None:
        pkg_dir = args.pkg_dir.resolve()
        repo_root = pkg_dir.parent.parent
    else:
        pkg_dir, repo_root = repo_paths()
    baseline_path = args.baseline or repo_root / DEFAULT_BASELINE

    select = (tuple(p.strip() for p in args.select.split(",") if p.strip())
              if args.select else ())
    rule_prefixes = (tuple(p.strip() for p in args.rules.split(",")
                           if p.strip()) if args.rules else ())
    ran = [name for name, codes in PASS_RULES.items()
           if not select or any(code.startswith(select) for code in codes)]
    if not ran:
        parser.error(f"--select {args.select!r} matches no analysis pass")
    findings = run_all(pkg_dir, max_dirs=args.max_dirs, jobs=args.jobs,
                       only=ran)
    if select:
        findings = [f for f in findings if f.code.startswith(select)]
    if rule_prefixes:
        findings = [f for f in findings if f.code.startswith(rule_prefixes)]
    findings, pragma_suppressed = apply_pragmas(findings, repo_root)

    unchecked_codes: Set[str] = {code for name in PASS_RULES
                                 if name not in ran
                                 for code in PASS_RULES[name]}

    def _checked(key: str) -> bool:
        """Could this baseline key have been (re-)found this invocation?

        Keys owned by a pass that did not run, or filtered out by
        ``--select``/``--rules``, were never looked for — they are not
        stale and must survive ``--write-baseline``.  Keys with a code no
        pass emits are garbage and always count as stale.
        """
        code = key.split(" ", 1)[0]
        if code in unchecked_codes:
            return False
        if select and not code.startswith(select):
            return False
        if rule_prefixes and not code.startswith(rule_prefixes):
            return False
        return True

    if args.write_baseline:
        previous = Baseline.load(baseline_path)
        found_keys = {f.key for f in findings}
        keep = sorted(k for k in previous.keys
                      if not _checked(k) and k not in found_keys)
        baseline_path.write_text(
            Baseline.render(findings, previous.justifications,
                            keep_keys=keep))
        kept = f" (+{len(keep)} kept from unselected passes)" if keep else ""
        print(f"wrote {len(findings)} finding(s) to {baseline_path}{kept}")
        return 0

    baseline = (Baseline() if args.no_baseline
                else Baseline.load(baseline_path))
    fresh, suppressed, stale = baseline.split(findings)
    stale = {key for key in stale if _checked(key)}

    witnesses = []
    if args.confirm:
        from repro.analysis.races.confirm import confirm_findings
        witnesses = confirm_findings(
            [f for f in findings if f.code.startswith("SB5")],
            runs_per_scenario=4)

    if args.format == "json":
        print(json.dumps({
            "findings": [{"code": f.code, "path": f.path, "line": f.line,
                          "anchor": f.anchor, "message": f.message,
                          "why": f.why} for f in fresh],
            "suppressed": len(suppressed),
            "pragma_suppressed": len(pragma_suppressed),
            "stale_baseline_keys": sorted(stale),
            **({"witnesses": [w.to_json() for w in witnesses]}
               if args.confirm else {}),
        }, indent=2))
    else:
        for f in fresh:
            print(f.render())
            print(f"    why: {f.why}")
        for key in sorted(stale):
            print(f"warning: stale baseline entry (no longer found): {key}")
        for w in witnesses:
            print(f"{w.status}: {w.key}")
            if w.detail:
                print(f"    {w.detail}")
        print(f"repro lint: {len(fresh)} finding(s), "
              f"{len(suppressed)} suppressed by baseline, "
              f"{len(pragma_suppressed)} by inline pragma, "
              f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if fresh else 0


__all__ = ["main", "run_all"]
