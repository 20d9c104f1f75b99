"""The one perturbation harness: schedules and fault plans run, shrink,
save and replay through one code path, whichever generator made them."""

import json
from dataclasses import replace

from repro.analysis.explore import cli as explore_cli
from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.driver import Perturbation, run_perturbation
from repro.analysis.explore.minimize import shrink
from repro.analysis.explore.scenarios import SCENARIOS
from repro.analysis.explore.trace import (artifact_json, load_artifact,
                                          replay_artifact, save_artifact)
from repro.analysis.mutations import MUTATIONS
from repro.faults import cli as chaos_cli
from repro.faults.plan import FaultSpec, stress_plan
from repro.store.db import ResultStore
from repro.store.ingest import ingest_path
from repro.store.schema import KIND_CHAOS, STATUS_FAILED

_CROSS3 = {"chunks_per_core": 2, "max_events": 150000, "n_cores": 3,
           "name": "cross3", "oci": True, "pattern": "cross",
           "protocol": "ScalableBulk", "seed": 2010}

#: a version-1 ``repro explore --save`` trace, as the format was written
#: before fault plans joined it: no ``plan``, no ``watchdog``
V1_TRACE = {
    "version": 1, "scenario": _CROSS3, "mutation": "skip-w-intersection",
    "schedule": {"delays": [], "ties": []},
    "violations": [{"code": "SB401", "rule": "co-held incompatible groups",
                    "time": 340, "detail": "dir 2 holds two groups"}],
    "stats": {"choice_points": 101, "cycles": 785, "sends": 131},
}

#: a version-1 ``repro chaos --artifacts`` file: no ``schedule``, no
#: ``watchdog`` window
V1_ARTIFACT = {
    "version": 1, "scenario": _CROSS3, "mutation": "reservation-leak",
    "plan": {"version": 1, "name": "stress", "seed": 0, "faults": [
        {"kind": "squash-storm",
         "params": {"duration": 20000, "prob": 0.85, "start": 0}},
        {"kind": "latency-spike",
         "params": {"duration": 20000, "extra": 3, "jitter": 8,
                    "start": 0}}]},
    "violations": [{"code": "SB404", "rule": "livelock", "time": 682054,
                    "detail": "simulation exceeded max_events=150000"}],
    "watchdog_fires": [{"commits": 3, "time": 50000, "snapshot": {}}],
    "stats": {"activations": [419, 2123], "commits": 3, "cycles": 682054},
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCrossReplay:
    def test_explore_counterexample_replays_through_chaos(self, tmp_path,
                                                          capsys):
        path = str(tmp_path / "cx.json")
        assert explore_cli.main(["--mutate", "skip-w-intersection",
                                 "--save", path]) == 0
        capsys.readouterr()
        assert chaos_cli.main(["--replay", path]) == 0
        assert "got ['SB401'" in capsys.readouterr().out

    def test_chaos_artifact_replays_through_explore(self, tmp_path, capsys):
        assert chaos_cli.main(["--seed", "0", "--plans", "1",
                               "--max-events", "60",
                               "--artifacts", str(tmp_path)]) == 1
        capsys.readouterr()
        path = str(tmp_path / "cross3-plan-0000.json")
        assert explore_cli.main(["--replay", path]) == 0
        assert "got ['SB404']" in capsys.readouterr().out


class TestV1Formats:
    def test_v1_explore_trace_replays(self, tmp_path, capsys):
        path = _write(tmp_path, "trace.json", V1_TRACE)
        result = replay_artifact(load_artifact(path))
        assert result.plan.faults == ()
        assert result.watchdog is None
        assert result.codes[0] == "SB401"
        assert chaos_cli.main(["--replay", path]) == 0

    def test_v1_chaos_artifact_replays(self, tmp_path, capsys):
        path = _write(tmp_path, "artifact.json", V1_ARTIFACT)
        assert load_artifact(path)["plan"]["name"] == "stress"
        assert explore_cli.main(["--replay", path]) == 0
        assert "got ['SB404']" in capsys.readouterr().out


class TestCombinedShrink:
    def test_shrink_drops_padding_faults_and_irrelevant_ties(self):
        """One ddmin over decisions and faults: the reservation leak needs
        the squash storm and nothing else, so the tie-breaks, the latency
        noise and the padding faults all go."""
        scenario = replace(SCENARIOS["cross3"], max_events=20_000)
        mutation = MUTATIONS["reservation-leak"]
        storm = stress_plan(0)
        padding = [
            FaultSpec.make("link-hotspot", tile=1, start=0, duration=300,
                           extra=5),
            FaultSpec.make("dir-stall", dir=0, start=0, duration=300,
                           extra=5),
        ]
        fat = run_perturbation(
            scenario, Perturbation(Schedule(ties=[1, 0, 1, 1]),
                                   storm.with_faults(list(storm.faults)
                                                     + padding)),
            mutation)
        assert "SB404" in fat.codes
        assert fat.schedule.decision_count() == 3
        assert len(fat.perturbation.parts()) == 7
        shrunk = shrink(scenario, fat.perturbation, mutation,
                        lambda r: "SB404" in r.codes, max_runs=40)
        assert "SB404" in shrunk.codes
        assert shrunk.schedule.decision_count() == 0
        assert [f.kind for f in shrunk.plan.faults] == ["squash-storm"]


class TestStoreIngest:
    def test_ingest_reads_an_artifact_as_a_chaos_row(self, tmp_path):
        result = run_perturbation(SCENARIOS["cross3"],
                                  mutation=MUTATIONS["skip-w-intersection"])
        path = str(tmp_path / "cx.json")
        save_artifact(artifact_json(result), path)
        store = ResultStore(str(tmp_path / "s.db"))
        try:
            assert ingest_path(store, path) == ("chaos", 1)
            row = store.query(KIND_CHAOS)[0]
        finally:
            store.close()
        assert row.cell_key == "cross3/empty"
        assert row.status == STATUS_FAILED
        assert row.error == "/".join(sorted(result.codes))
        assert row.payload == load_artifact(path)
