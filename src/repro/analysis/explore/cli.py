"""``python -m repro explore``: drive the schedule-exploration checker.

Modes:

* default — explore one scenario (``--scenario``) with ``--mode``
  exhaustive (DFS over tie-breaks), random (seeded tie-break sampling) or
  delay (random plus bounded delivery delays).  Exit 1 on a violation;
  the failing schedule is shrunk and written to ``--save`` (or shown).
* ``--mutate NAME`` — same, against a protocol with one injected bug;
  exit 0 iff exploration catches it.
* ``--mutations`` — the mutation check, shared with ``repro chaos
  --mutation-check``: every seeded bug a machine runs is explored
  nominally and run under the storm-heavy stress plan.  Exit 1 unless
  exploration catches every bug whose ``explore`` cell in
  :data:`repro.analysis.mutations.MUTATIONS` pins it caught, and the
  stress plan alone catches a chaos-only bug (``reservation-leak``).
  The rest of each row holds at the teeth matrix's knobs (seed 0, 120
  schedules, depth 10); ``tests/test_teeth_matrix.py`` checks it.
* ``--ci-smoke`` — the bounded CI tier: the unmutated smoke sweep must
  explore clean AND the mutation check must pass.
* ``--replay ARTIFACT`` — re-run a saved artifact (an explore trace or a
  ``repro chaos`` artifact); exit 0 iff the replay reproduces its
  primary failure.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.explore.scenarios import SCENARIOS, SMOKE_SCENARIOS
from repro.analysis.explore.strategies import (DEFAULT_KNOBS, check_mutation,
                                               explore)
from repro.analysis.explore.trace import (counterexample, replay_command,
                                          save_artifact)
from repro.analysis.mutations import MUTATIONS, Mutation


def _explore_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: explore one (scenario, mutation) pair.

    Returns only plain data — the exploration verdict plus, on failure,
    the (optionally shrunk) counterexample artifact — so results cross
    the process boundary without pickling any machine state.  Shrinking
    runs inside the worker: it is the expensive part, which is exactly
    why it should be fanned out.
    """
    mutation = MUTATIONS[payload["mutation"]] if payload["mutation"] else None
    report = explore(SCENARIOS[payload["scenario"]], mutation,
                     payload["knobs"])
    out: Dict[str, Any] = {
        "scenario": payload["scenario"], "mutation": payload["mutation"],
        "clean": report.clean, "schedules_run": report.schedules_run}
    if report.violation is not None:
        out["codes"] = report.violation.codes
        out["trace"] = counterexample(report.violation, mutation,
                                      minimize=payload["minimize"])
    return out


def _knobs(args: argparse.Namespace) -> Dict[str, Any]:
    return {"mode": args.mode, "schedules": args.schedules,
            "depth": args.depth, "seed": args.seed}


def print_violations(artifact: Dict[str, Any]) -> None:
    for v in artifact["violations"]:
        print(f"  {v['code']} [{v['rule']}] t={v['time']}: {v['detail']}")


def _emit_violation(trace: Dict[str, Any], args: argparse.Namespace) -> None:
    """Render a worker-produced counterexample artifact."""
    if args.save:
        save_artifact(trace, args.save)
        print(f"trace written to {args.save}")
    if args.format == "json":
        print(json.dumps(trace, indent=2, sort_keys=True))
    else:
        print_violations(trace)
        sched = trace["schedule"]
        print(f"  schedule: ties={sched['ties']} "
              f"delays={dict(sched['delays'])}")


def _pinned(mutation: Mutation, pass_name: str) -> str:
    return "/".join(mutation.caught.get(pass_name, ())) or "missed"


def mutation_check(knobs: Dict[str, Any], jobs: int = 1) -> int:
    """Run :func:`check_mutation` over every runnable mutation; print one
    line per mutation and return the exit code."""
    from repro.harness.parallel import run_ordered
    payloads = [{"mutation": name, "knobs": knobs}
                for name, m in MUTATIONS.items() if m.scenario is not None]
    failed: List[str] = []

    def show(_i: int, _payload: Dict[str, Any], r: Dict[str, Any]) -> None:
        mutation = MUTATIONS[r["mutation"]]
        nominal = "/".join(r["nominal_codes"]) or "clean"
        chaos = "/".join(r["chaos_codes"]) or "clean"
        status = "ok     " if r["passed"] else "FAIL   "
        line = (f"{status} {r['mutation']:24s} on {r['scenario']:7s} "
                f"nominal={nominal:12s} ({r['schedules_run']} schedules) "
                f"chaos={chaos}")
        if not r["passed"]:
            line += (f"  (pinned explore={_pinned(mutation, 'explore')}, "
                     f"chaos={_pinned(mutation, 'chaos')})")
            failed.append(r["mutation"])
        print(line)

    print(f"mutation check ({knobs['mode']} exploration, storm-heavy "
          f"stress plan, seed {knobs['seed']}):")
    run_ordered(check_mutation, payloads, jobs=jobs, on_result=show)
    if failed:
        print(f"{len(failed)} mutation(s) fail their pinned cells: "
              f"{', '.join(failed)}")
        return 1
    print(f"all {len(payloads)} mutations pass the mutation check")
    return 0


def _run_sweep(names: Sequence[str], mutation: Optional[str],
               args: argparse.Namespace) -> int:
    """Explore ``names`` (with ``mutation`` injected, if any); exit 1 on
    a violation, or on a mutation exploration missed."""
    from repro.harness.parallel import run_ordered
    payloads = [{"scenario": name, "mutation": mutation,
                 "knobs": _knobs(args), "minimize": args.minimize}
                for name in names]
    failures: List[str] = []

    def show(_i: int, _payload: Dict[str, Any],
             data: Dict[str, Any]) -> None:
        name, runs = data["scenario"], data["schedules_run"]
        if data["clean"]:
            if mutation is None:
                print(f"clean   {name} ({runs} schedules)")
            else:
                print(f"MISSED  {mutation} on {name} ({runs} schedules)")
                failures.append(name)
            return
        codes = "/".join(data["codes"])
        if mutation is None:
            failures.append(name)
            print(f"FAIL    {name}: {codes} after {runs} schedules")
        else:
            print(f"caught  {mutation} on {name}: {codes}")
        _emit_violation(data["trace"], args)

    run_ordered(_explore_worker, payloads, jobs=args.jobs, on_result=show)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="schedule-exploration model checker for the protocol "
                    "engines (see docs/verification.md)")
    parser.add_argument("--scenario", default=None,
                        help="scenario name (see --list); default: the "
                             "CI smoke set")
    parser.add_argument("--mode", choices=("exhaustive", "random", "delay"),
                        default=DEFAULT_KNOBS["mode"])
    parser.add_argument("--schedules", type=int,
                        default=DEFAULT_KNOBS["schedules"],
                        help="schedule budget per scenario (default "
                             f"{DEFAULT_KNOBS['schedules']})")
    parser.add_argument("--depth", type=int, default=DEFAULT_KNOBS["depth"],
                        help="exhaustive mode: deepest choice point allowed "
                             f"to deviate (default {DEFAULT_KNOBS['depth']})")
    parser.add_argument("--seed", type=int, default=DEFAULT_KNOBS["seed"],
                        help="random/delay mode sampling seed; also seeds "
                             "the mutation check's stress plan")
    parser.add_argument("--jobs", type=int, default=1,
                        help="explore scenarios/mutations on N worker "
                             "processes (0 = all cores); per-scenario "
                             "results and exit codes are unchanged")
    parser.add_argument("--mutate", default=None, metavar="NAME",
                        help="inject one protocol bug (see --list)")
    parser.add_argument("--mutations", action="store_true",
                        help="mutation check: exploration must catch "
                             "every mutation pinned caught by explore; a "
                             "chaos-only one must be caught by chaos alone")
    parser.add_argument("--ci-smoke", action="store_true",
                        help="bounded CI tier: clean sweep + mutation check")
    parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                        help="re-run a saved artifact (explore or chaos) "
                             "and check it reproduces; the replay is "
                             "instrumented and its commit critical path "
                             "reported")
    parser.add_argument("--trace", default=None, metavar="OUT",
                        help="with --replay: also write a Perfetto trace "
                             "of the replayed run to OUT")
    parser.add_argument("--save", default=None, metavar="PATH",
                        help="write the (shrunk) failing artifact here")
    parser.add_argument("--no-minimize", dest="minimize",
                        action="store_false",
                        help="keep the raw failing schedule instead of "
                             "shrinking it")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and mutations, then exit")
    args = parser.parse_args(argv)
    from repro.harness.parallel import resolve_jobs
    args.jobs = resolve_jobs(args.jobs)

    if args.list:
        print("scenarios:")
        for name, s in SCENARIOS.items():
            smoke = " [smoke]" if name in SMOKE_SCENARIOS else ""
            print(f"  {name:10s} {s.protocol.value:13s} {s.n_cores} cores, "
                  f"pattern={s.pattern}, oci={s.oci}{smoke}")
        print("mutations (pinned explore / chaos cells):")
        for name, m in MUTATIONS.items():
            if m.scenario is not None:
                print(f"  {name:24s} on {m.scenario}: {m.description} "
                      f"({_pinned(m, 'explore')} / {_pinned(m, 'chaos')})")
        return 0

    if args.replay:
        return replay_command(args.replay, args.trace)

    if args.ci_smoke:
        sweep = _run_sweep(SMOKE_SCENARIOS, None, args)
        check = mutation_check(_knobs(args), args.jobs)
        return 1 if (sweep or check) else 0

    if args.mutations:
        return mutation_check(_knobs(args), args.jobs)

    runnable = [n for n, m in MUTATIONS.items() if m.scenario is not None]
    if args.mutate is not None and args.mutate not in runnable:
        parser.error(f"unknown mutation {args.mutate!r} "
                     f"(choices: {', '.join(runnable)})")
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            parser.error(f"unknown scenario {args.scenario!r} "
                         f"(choices: {', '.join(SCENARIOS)})")
        names: Sequence[str] = [args.scenario]
    elif args.mutate is not None:
        names = [str(MUTATIONS[args.mutate].scenario)]
    else:
        names = SMOKE_SCENARIOS
    return _run_sweep(names, args.mutate, args)


__all__ = ["main", "mutation_check", "print_violations"]
