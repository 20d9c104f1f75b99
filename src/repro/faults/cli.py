"""``python -m repro chaos``: seeded fault-injection campaigns.

Modes:

* default — generate ``--plans N`` fault plans from ``--seed`` (rotated
  over the campaign scenarios, or pinned with ``--scenario``) and run
  each with the liveness watchdog and the full invariant monitor
  attached.  Exit 1 on any safety/liveness violation or watchdog fire;
  every failing plan is shrunk and written as a replayable artifact
  under ``--artifacts DIR`` (or shown inline).  ``--max-events`` and
  ``--watchdog`` travel with the artifact, so it replays as it failed.
* ``--replay ARTIFACT`` — re-run a saved artifact (a chaos artifact or
  a ``repro explore`` trace); exit 0 iff the replay reproduces its
  primary failure.
* ``--mutation-check`` — the mutation check shared with ``repro explore
  --mutations``: every seeded bug a machine runs is explored nominally
  *and* run under a storm-heavy stress plan.  Exit 1 unless exploration
  catches every bug pinned caught by ``explore``, and a chaos-only bug
  (e.g. ``reservation-leak``), pinned caught under chaos, is caught by
  the stress plan and, demonstrating why chaos is needed, missed
  nominally.
* ``--list`` — fault kinds, campaign scenarios and chaos-only mutations.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.explore.cli import mutation_check, print_violations
from repro.analysis.explore.scenarios import SCENARIOS
from repro.analysis.explore.strategies import DEFAULT_KNOBS
from repro.analysis.explore.trace import replay_command, save_artifact
from repro.analysis.mutations import MUTATIONS
from repro.faults.campaign import (DEFAULT_SCENARIOS, chaos_worker,
                                   generate_campaign)
from repro.faults.plan import FAULT_KINDS
from repro.faults.watchdog import DEFAULT_WINDOW


def _cmd_list() -> int:
    print("fault kinds:")
    for kind, params in FAULT_KINDS.items():
        print(f"  {kind:14s} ({', '.join(params)})")
    print("campaign scenarios:")
    for name in DEFAULT_SCENARIOS:
        s = SCENARIOS[name]
        print(f"  {name:10s} {s.protocol.value:13s} {s.n_cores} cores, "
              f"pattern={s.pattern}, oci={s.oci}")
    print("chaos-only mutations (run via --mutation-check):")
    for name, m in MUTATIONS.items():
        if "chaos" in m.caught and "explore" not in m.caught:
            print(f"  {name:24s} on {m.scenario}: {m.description} "
                  f"(expect {'/'.join(m.caught['chaos'])})")
    return 0


def _artifact_path(directory: str, scenario: str, plan_name: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{scenario}-{plan_name}.json")


def _chaos_record(payload: Dict[str, Any], r: Dict[str, Any],
                  git_rev: str, source: str):
    """One campaign verdict -> a first-class ``chaos`` store row."""
    from repro.store.schema import (KIND_CHAOS, Record, STATUS_FAILED,
                                    STATUS_OK)
    artifact = r.get("artifact")
    violations = artifact["violations"] if artifact else []
    return Record(
        kind=KIND_CHAOS, cell_key=f"{r['scenario']}/{r['plan_name']}",
        series=f"{r['scenario']}/{r['plan_name']}",
        seed=int(payload["plan"].get("seed", 0) or 0), git_rev=git_rev,
        status=STATUS_OK if r["ok"] else STATUS_FAILED,
        metrics={"cycles": r.get("cycles", 0),
                 "commits": r.get("commits", 0),
                 "violations": len(violations),
                 "watchdog_fires": r.get("watchdog_fires", 0),
                 "n_faults": r.get("n_faults", 0)},
        payload=artifact if artifact is not None else
        {k: v for k, v in r.items() if k != "artifact"},
        error="/".join(r["labels"]), source=source)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.harness.parallel import run_ordered
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            raise SystemExit(f"unknown scenario {args.scenario!r} "
                             f"(choices: {', '.join(SCENARIOS)})")
        names: Sequence[str] = [args.scenario]
    else:
        names = DEFAULT_SCENARIOS
    campaign = generate_campaign(args.seed, args.plans, names)
    budget = {"max_events": args.max_events} if args.max_events else {}
    payloads = [{
        "scenario": replace(SCENARIOS[scenario], **budget).to_json(),
        "plan": plan.to_json(),
        "watchdog": args.watchdog,
        "minimize": args.minimize,
    } for scenario, plan in campaign]
    failures: List[str] = []

    store = None
    git_rev = ""
    if args.store is not None:
        from repro.provenance import git_rev as current_rev
        from repro.store.db import ResultStore
        store = ResultStore(args.store)
        git_rev = current_rev() or ""

    def show(_i: int, payload: Dict[str, Any],
             r: Dict[str, Any]) -> None:
        if store is not None:
            # one transaction per verdict: the campaign checkpoints like
            # the sweep campaign runner does
            store.put(_chaos_record(payload, r, git_rev,
                                    source=f"chaos:seed{args.seed}"))
        if r["ok"]:
            print(f"clean   {r['plan_name']} on {r['scenario']:8s} "
                  f"({r['n_faults']} faults, {r['commits']} commits, "
                  f"{r['cycles']:,} cycles)")
            return
        failures.append(r["plan_name"])
        print(f"FAIL    {r['plan_name']} on {r['scenario']:8s} "
              f"{'/'.join(r['labels'])} ({r['watchdog_fires']} watchdog "
              f"fires)")
        artifact = r["artifact"]
        print_violations(artifact)
        if args.artifacts:
            path = _artifact_path(args.artifacts, r["scenario"],
                                  r["plan_name"])
            save_artifact(artifact, path)
            print(f"  artifact ({len(artifact['plan']['faults'])} faults "
                  f"after shrink) -> {path}")

    print(f"chaos campaign: {args.plans} plans, seed {args.seed}, "
          f"scenarios {', '.join(names)}")
    try:
        run_ordered(chaos_worker, payloads, jobs=args.jobs, on_result=show)
    finally:
        if store is not None:
            store.close()
            print(f"stored {len(payloads)} chaos verdicts in {args.store}")
    if failures:
        print(f"{len(failures)} plan(s) failed: {', '.join(failures)}")
        return 1
    print(f"all {args.plans} plans clean (no safety or liveness "
          f"violations, no watchdog fires)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="deterministic fault-injection campaigns against the "
                    "protocol engines (see docs/robustness.md)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed; every plan derives from it")
    parser.add_argument("--plans", type=int, default=25,
                        help="number of fault plans to generate "
                             "(default 25)")
    parser.add_argument("--scenario", default=None,
                        help="pin one scenario instead of the campaign "
                             "rotation (see --list)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="fan plans out over N worker processes "
                             "(0 = all cores); verdicts and exit codes "
                             "are unchanged")
    parser.add_argument("--watchdog", type=int, default=DEFAULT_WINDOW,
                        metavar="CYCLES",
                        help="liveness watchdog window (default "
                             f"{DEFAULT_WINDOW})")
    parser.add_argument("--max-events", type=int, default=None,
                        help="override the per-run event budget (kept in "
                             "the scenario, so artifacts replay with it)")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write shrunk failure artifacts here")
    parser.add_argument("--store", default=None, metavar="DB",
                        help="also record every plan verdict in this "
                             "result store (python -m repro store)")
    parser.add_argument("--no-minimize", dest="minimize",
                        action="store_false",
                        help="keep failing plans as generated instead of "
                             "ddmin-shrinking them")
    parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                        help="re-run a saved artifact (chaos or explore) "
                             "and check it reproduces")
    parser.add_argument("--mutation-check", action="store_true",
                        help="mutation check: exploration must catch "
                             "every mutation pinned caught by explore; a "
                             "chaos-only one must be caught by chaos alone")
    parser.add_argument("--list", action="store_true",
                        help="list fault kinds, scenarios and chaos-only "
                             "mutations, then exit")
    args = parser.parse_args(argv)
    from repro.harness.parallel import resolve_jobs
    args.jobs = resolve_jobs(args.jobs)

    if args.list:
        return _cmd_list()
    if args.replay:
        return replay_command(args.replay)
    if args.mutation_check:
        return mutation_check(dict(DEFAULT_KNOBS, seed=args.seed), args.jobs)
    return _cmd_campaign(args)


__all__ = ["main"]
