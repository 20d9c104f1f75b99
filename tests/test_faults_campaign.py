"""Chaos campaigns: verdicts, parallel determinism, shrinking, artifacts."""

import json

import pytest

from repro.analysis.explore.driver import Perturbation, run_perturbation
from repro.analysis.explore.minimize import shrink
from repro.analysis.explore.mutations import MUTATIONS
from repro.analysis.explore.scenarios import SCENARIOS
from repro.analysis.explore.strategies import DEFAULT_KNOBS, check_mutation
from repro.analysis.explore.trace import (artifact_json, load_artifact,
                                          replay_artifact, save_artifact)
from repro.faults import cli as chaos_cli
from repro.faults.campaign import chaos_worker, generate_campaign
from repro.faults.plan import FaultPlan, FaultSpec, stress_plan
from repro.faults.watchdog import DEFAULT_WINDOW
from repro.harness.parallel import run_ordered

LEAK = "reservation-leak"


def _payloads(seed, n_plans, watchdog=25_000):
    return [{"scenario": SCENARIOS[scenario].to_json(),
             "plan": plan.to_json(), "watchdog": watchdog, "minimize": False}
            for scenario, plan in generate_campaign(seed, n_plans)]


def _stress():
    """The reservation leak under the stress plan: a failing chaos run."""
    return run_perturbation(SCENARIOS["cross3"],
                            Perturbation(plan=stress_plan(0)),
                            MUTATIONS[LEAK], watchdog=DEFAULT_WINDOW)


class TestCampaignVerdicts:
    def test_small_campaign_is_clean(self):
        for verdict in run_ordered(chaos_worker, _payloads(0, 7)):
            assert verdict["ok"], verdict
            assert verdict["safety_codes"] == []
            assert verdict["watchdog_fires"] == 0

    def test_jobs_do_not_change_verdicts(self):
        """Issue 5 satellite: the campaign is deterministic under --jobs.
        Plans are generated in the parent from the seed alone; workers
        re-derive every decision from the plan JSON."""
        serial = run_ordered(chaos_worker, _payloads(3, 6), jobs=1)
        parallel = run_ordered(chaos_worker, _payloads(3, 6), jobs=2)
        assert serial == parallel

    def test_same_seed_same_verdicts_across_calls(self):
        a = run_ordered(chaos_worker, _payloads(5, 5))
        b = run_ordered(chaos_worker, _payloads(5, 5))
        assert a == b

    def test_clean_plan_cycles_ignore_the_watchdog(self):
        """A clean plan reports the cycle the machine finished at, not the
        watchdog's last check (which every plan used to report)."""
        for payload, verdict in zip(_payloads(0, 7),
                                    run_ordered(chaos_worker,
                                                _payloads(0, 7))):
            assert verdict["ok"], verdict
            scenario = SCENARIOS[payload["scenario"]["name"]]
            plan = FaultPlan.from_json(payload["plan"])
            bare = run_perturbation(scenario, Perturbation(plan=plan))
            assert verdict["cycles"] == bare.cycles
            assert verdict["cycles"] < DEFAULT_WINDOW


class TestMutationCheck:
    """The acceptance criterion: chaos catches the reservation-release
    bug that the nominal-timing suite misses."""

    def test_reservation_leak_caught_under_chaos_only(self):
        verdict = check_mutation({"mutation": LEAK, "knobs": dict(
            DEFAULT_KNOBS, schedules=60, depth=8)})
        assert verdict["chaos_only"] and verdict["passed"]
        assert not verdict["nominal_caught"], verdict["nominal_codes"]
        assert verdict["chaos_caught"], verdict["chaos_codes"]
        assert set(verdict["chaos_codes"]) & {"SB403", "SB404"}

    def test_nominal_mutations_still_caught_nominally_by_explore(self):
        # Belt and braces: the nominal suite's contract lives in
        # test_explore.py; here just pin that the chaos-only flag stays
        # the exception, not the rule.
        chaos_only = [n for n, m in MUTATIONS.items() if m.chaos_only]
        assert chaos_only == [LEAK]


class TestShrinking:
    def _fat_failing_plan(self):
        """The stress plan plus irrelevant padding faults: ddmin should
        strip the padding and keep the storm."""
        storm = stress_plan(0)
        padding = (
            FaultSpec.make("link-hotspot", tile=1, start=0, duration=300,
                           extra=5),
            FaultSpec.make("core-jitter", core=2, start=0, duration=300,
                           max_extra=3),
            FaultSpec.make("dir-stall", dir=0, start=0, duration=300,
                           extra=5),
        )
        return storm.with_faults(list(storm.faults) + list(padding))

    def test_shrink_keeps_failure_and_drops_padding(self):
        scenario = SCENARIOS["cross3"]
        plan = self._fat_failing_plan()
        mutation = MUTATIONS[LEAK]
        target = run_perturbation(scenario, Perturbation(plan=plan),
                                  mutation).codes[0]
        shrunk = shrink(scenario, Perturbation(plan=plan), mutation,
                        lambda r: target in r.codes, max_runs=24)
        assert target in shrunk.codes
        assert len(shrunk.plan.faults) < len(plan.faults)
        assert any(f.kind == "squash-storm" for f in shrunk.plan.faults)
        assert target in run_perturbation(scenario, shrunk.perturbation,
                                          mutation).codes


class TestArtifacts:
    def test_artifact_round_trip_and_replay(self, tmp_path):
        result = _stress()
        assert result.codes, "stress plan must catch the leak"
        path = str(tmp_path / "leak.json")
        save_artifact(artifact_json(result), path)
        data = load_artifact(path)
        assert data["plan"]["name"] == "stress"
        replay = replay_artifact(data)
        assert result.codes[0] in replay.codes

    def test_artifact_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_artifact(str(path))

    def test_worker_emits_shrunk_artifact_on_failure(self):
        """chaos_worker shrinks a failing plan inside the worker and ships
        the artifact as plain JSON across the process boundary."""
        payload = {"scenario": SCENARIOS["cross3"].to_json(),
                   "plan": stress_plan(0).to_json(),
                   "mutation": LEAK, "watchdog": 5_000, "minimize": True}
        verdict = chaos_worker(payload)
        assert not verdict["ok"]
        assert verdict["codes"]
        artifact = verdict["artifact"]
        json.dumps(artifact)  # plain data only
        assert artifact["mutation"] == LEAK
        assert artifact["plan"]["faults"]
        # The shrunk plan still reproduces when replayed from the artifact.
        assert verdict["codes"][0] in replay_artifact(artifact).codes

    def test_max_events_artifact_replays_to_its_failure(self, tmp_path,
                                                        capsys):
        """--max-events travels in the artifact's scenario: the tiny
        budget's SB404 replays as SB404, not clean."""
        assert chaos_cli.main(["--seed", "0", "--plans", "1",
                               "--max-events", "60",
                               "--artifacts", str(tmp_path)]) == 1
        path = tmp_path / "cross3-plan-0000.json"
        data = load_artifact(str(path))
        assert data["scenario"]["max_events"] == 60
        assert data["watchdog"] == DEFAULT_WINDOW
        assert [v["code"] for v in data["violations"]] == ["SB404"]
        assert "SB404" in replay_artifact(data).codes
        capsys.readouterr()
        assert chaos_cli.main(["--replay", str(path)]) == 0
        assert "got ['SB404']" in capsys.readouterr().out

    def test_watchdog_only_failures_ship_artifacts(self, tmp_path, capsys):
        """A plan only the watchdog flags still ships a shrunk, replayable
        artifact, on disk and in its store row."""
        art, db = tmp_path / "art", tmp_path / "chaos.db"
        assert chaos_cli.main(["--seed", "0", "--plans", "2",
                               "--watchdog", "50", "--artifacts", str(art),
                               "--store", str(db)]) == 1
        paths = sorted(art.iterdir())
        assert [p.name for p in paths] == ["cross3-plan-0000.json",
                                           "mixed3-plan-0001.json"]
        for path in paths:
            data = load_artifact(str(path))
            assert data["violations"] == [] and data["watchdog_fires"]
            assert data["watchdog"] == 50
            assert replay_artifact(data).watchdog_fires
            assert chaos_cli.main(["--replay", str(path)]) == 0
        from repro.store.db import ResultStore
        from repro.store.schema import KIND_CHAOS, STATUS_FAILED
        store = ResultStore(str(db))
        rows = store.query(KIND_CHAOS)
        store.close()
        assert len(rows) == 2
        for row in rows:
            assert row.status == STATUS_FAILED
            assert row.error == "watchdog"
            assert row.payload["watchdog"] == 50


class TestCli:
    def test_cli_list(self, capsys):
        assert chaos_cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "squash-storm" in out
        assert LEAK in out

    def test_cli_tiny_campaign(self, capsys):
        assert chaos_cli.main(["--seed", "0", "--plans", "3"]) == 0
        out = capsys.readouterr().out
        assert "all 3 plans clean" in out

    def test_cli_replay_artifact(self, tmp_path, capsys):
        result = _stress()
        path = str(tmp_path / "a.json")
        save_artifact(artifact_json(result), path)
        assert chaos_cli.main(["--replay", path]) == 0
        assert "replay of" in capsys.readouterr().out

    def test_cli_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            chaos_cli.main(["--scenario", "nope"])
