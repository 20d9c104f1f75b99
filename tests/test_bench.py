"""Tests for the benchmark harness (repro.harness.bench) and its gate."""

import json
import os
from pathlib import Path

import pytest

from repro import provenance
from repro.config import ProtocolKind
from repro.harness import bench
from repro.store import cli as store_cli
from repro.store.campaign import expand, run_one
from repro.store.db import ResultStore
from repro.store.ingest import export_bench, ingest_bench
from repro.store.query import check_regressions, trend, trends_by_series
from repro.store.schema import KIND_BENCH_MACRO, KIND_BENCH_MICRO

REPO = Path(__file__).resolve().parent.parent
#: The newest committed baseline: the one CI's gate must compare against.
BASELINE = REPO / "BENCH_2026-08-08.json"
GATED = ((KIND_BENCH_MICRO, "ops_per_sec"),
         (KIND_BENCH_MACRO, "cycles_per_sec"))


def _valid_doc(calibration=1_000_000.0, jobs=1, cpus=4):
    """A minimal schema-valid document for validator and gate tests."""
    return {
        "schema": bench.SCHEMA,
        "date": "2026-08-05",
        "host": {"python": "3.11.7", "platform": "test", "cpus": cpus},
        "config": {"quick": True, "jobs": jobs, "repeat": 1},
        "calibration_ops_per_sec": calibration,
        "micro": {
            "signature_insert": {"ops": 1000, "seconds": 0.01,
                                 "ops_per_sec": 100_000.0},
        },
        "macro": {
            "LU/4/ScalableBulk": {"app": "LU", "protocol": "ScalableBulk",
                                  "n_cores": 4, "chunks": 1,
                                  "wall_seconds": 0.5, "total_cycles": 5000,
                                  "chunks_committed": 4,
                                  "cycles_per_sec": 10_000.0},
        },
    }


class TestValidate:
    def test_valid_document_passes(self):
        assert bench.validate_bench(_valid_doc()) == []

    def test_non_dict_rejected(self):
        assert bench.validate_bench([1, 2]) == ["document is not a JSON object"]

    def test_wrong_schema_rejected(self):
        doc = _valid_doc()
        doc["schema"] = "repro-bench-v0"
        assert any("schema" in e for e in bench.validate_bench(doc))

    @pytest.mark.parametrize("section", ["micro", "macro"])
    def test_empty_sections_rejected(self, section):
        doc = _valid_doc()
        doc[section] = {}
        assert any(section in e for e in bench.validate_bench(doc))

    def test_missing_calibration_rejected(self):
        doc = _valid_doc()
        del doc["calibration_ops_per_sec"]
        assert any("calibration" in e for e in bench.validate_bench(doc))

    def test_nonpositive_throughput_rejected(self):
        doc = _valid_doc()
        doc["micro"]["signature_insert"]["ops_per_sec"] = 0
        assert any("non-positive" in e for e in bench.validate_bench(doc))

    def test_missing_macro_field_rejected(self):
        doc = _valid_doc()
        del doc["macro"]["LU/4/ScalableBulk"]["cycles_per_sec"]
        assert any("cycles_per_sec" in e for e in bench.validate_bench(doc))


def _profile_section(share_a=30.0, share_other=70.0):
    return {
        "schema": "repro-profile-v1",
        "wall_ns": 1_000_000,
        "scopes": {"engine.dispatch": {"count": 10, "total_ns": 300_000,
                                       "self_ns": 300_000}},
        "shares": {"engine.dispatch": share_a, "other": share_other},
    }


class TestValidateProfile:
    def test_valid_section_passes(self):
        assert bench._validate_profile(_profile_section()) == []

    def test_non_object_and_missing_shares(self):
        assert bench._validate_profile("nope") == ["not an object"]
        assert bench._validate_profile({}) == ["shares missing or empty"]

    def test_shares_off_100_rejected(self):
        bad = _profile_section(share_a=30.0, share_other=50.0)  # sums to 80
        assert any("expected 100" in e for e in bench._validate_profile(bad))

    def test_negative_share_rejected(self):
        bad = _profile_section(share_a=-5.0, share_other=105.0)
        assert any("negative" in e for e in bench._validate_profile(bad))

    def test_missing_scopes_rejected(self):
        bad = _profile_section()
        del bad["scopes"]
        assert any("scopes" in e for e in bench._validate_profile(bad))

    def test_validate_bench_checks_embedded_profiles(self):
        doc = _valid_doc()
        doc["profile"] = _profile_section(share_a=30.0, share_other=50.0)
        errors = bench.validate_bench(doc)
        assert any("profile" in e and "expected 100" in e for e in errors)
        doc["profile"] = _profile_section()
        doc["macro"]["LU/4/ScalableBulk"]["profile"] = _profile_section()
        assert bench.validate_bench(doc) == []


class TestMicroBenches:
    @pytest.mark.parametrize("name", sorted(bench.MICRO_BENCHES))
    def test_micro_bench_reports_sane_numbers(self, name):
        result = bench.MICRO_BENCHES[name](512)
        assert result["ops"] >= 512
        assert result["seconds"] > 0
        assert result["ops_per_sec"] > 0

    def test_run_micro_best_of_repeat(self):
        result = bench.run_micro("signature_insert", quick=True, repeat=2)
        assert result["best_of"] == 2
        assert result["ops"] == bench.MICRO_OPS["signature_insert"][1]


class TestCli:
    def test_validate_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_valid_doc()))
        assert bench.main(["--validate-file", str(path)]) == 0
        path.write_text(json.dumps({"schema": "bad"}))
        assert bench.main(["--validate-file", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The one regression gate: repro store check over ingested documents
# ----------------------------------------------------------------------
def _scale(doc, section, factor):
    field = "ops_per_sec" if section == "micro" else "cycles_per_sec"
    for rec in doc[section].values():
        rec[field] *= factor


def _faster_host(old, new):
    new["calibration_ops_per_sec"] *= 2


def _faster_host_faster_code(old, new):
    _faster_host(old, new)
    _scale(new, "micro", 2.0)
    _scale(new, "macro", 2.0)


def _speedup(old, new):
    _scale(new, "micro", 1e4)
    _scale(new, "macro", 1e4)


def _unshared_keys(old, new):
    old["micro"]["gone"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1e12}
    new["micro"]["new"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1.0}


MICRO_KEY = "bench_micro/signature_insert"
MACRO_KEY = "bench_macro/LU/4/ScalableBulk"


class TestStoreGate:
    @pytest.mark.parametrize("mutate,threshold,failing", [
        pytest.param(lambda old, new: None, 0.20, set(),
                     id="identical-passes"),
        pytest.param(lambda old, new: _scale(new, "micro", 0.5), 0.20,
                     {MICRO_KEY}, id="micro-halved-fails"),
        pytest.param(lambda old, new: _scale(new, "macro", 0.5), 0.20,
                     {MACRO_KEY}, id="macro-halved-fails"),
        pytest.param(lambda old, new: _scale(new, "micro", 0.9), 0.20,
                     set(), id="10pct-slower-passes-at-20pct"),
        pytest.param(_faster_host_faster_code, 0.20, set(),
                     id="2x-host-2x-raw-passes"),
        pytest.param(_faster_host, 0.20, {MICRO_KEY, MACRO_KEY},
                     id="2x-host-same-raw-fails"),
        pytest.param(_speedup, 0.20, set(), id="speedup-passes"),
        pytest.param(_unshared_keys, 0.0, set(),
                     id="unshared-key-not-compared"),
    ])
    def test_gate(self, tmp_path, mutate, threshold, failing):
        """Two ingested documents through the one gate: throughputs are
        calibration-normalized and only series both revisions hold are
        compared."""
        old, new = _valid_doc(), _valid_doc()
        mutate(old, new)
        with ResultStore(tmp_path / "gate.db") as store:
            ingest_bench(store, dict(old, git_rev="base"))
            ingest_bench(store, dict(new, git_rev="pass"))
            regressions = {f"{r.kind}/{r.series}"
                           for kind, metric in GATED
                           for r in check_regressions(
                               store, kind, metric, threshold=threshold)}
        assert regressions == failing

    @pytest.mark.parametrize("section,kind,metric", [
        ("macro", KIND_BENCH_MACRO, "cycles_per_sec"),
        ("micro", KIND_BENCH_MICRO, "ops_per_sec"),
    ], ids=["macro", "micro"])
    def test_cli_gate_fails_a_halved_pass(self, tmp_path, capsys, section,
                                          kind, metric):
        """CI's gate command exits 1 on a pass whose throughput halved
        against the committed baseline (the old comparator's teeth)."""
        slow = json.loads(BASELINE.read_text())
        slow["git_rev"] = "slowpass"
        _scale(slow, section, 0.5)
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        db = str(tmp_path / "gate.db")
        assert store_cli.main(["ingest", str(BASELINE), str(slow_path),
                               "--store", db]) == 0
        check = ["check", "--store", db, "--kind", kind, "--metric", metric,
                 "--threshold", "0.10"]
        assert store_cli.main(check) == 1
        out = capsys.readouterr().out
        assert f"{len(slow[section])} regression(s)" in out


def _bench_main_jobs(monkeypatch, tmp_path, cpus, jobs):
    """The worker count ``repro bench --jobs <jobs>`` hands its pass on a
    host reporting ``cpus`` cores (the pass itself is stubbed out)."""
    seen = []

    def fake_collect(store, jobs, **_kw):
        seen.append(jobs)
        return _valid_doc(jobs=jobs, cpus=cpus)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(bench, "collect_bench", fake_collect)
    assert bench.main(["--quick", "--jobs", str(jobs),
                       "--out", str(tmp_path / "b.json")]) == 0
    return seen[0]


class TestMacroReliability:
    def test_jobs_within_cores_is_reliable(self, monkeypatch, tmp_path):
        assert _bench_main_jobs(monkeypatch, tmp_path, cpus=4, jobs=2) == 2

    def test_oversubscribed_run_is_unreliable(self, monkeypatch, tmp_path):
        # More workers than cores are never started: the pool is clamped.
        assert _bench_main_jobs(monkeypatch, tmp_path, cpus=1, jobs=4) == 1

    def test_oversubscribed_macro_slowdown_is_not_gated(self, tmp_path):
        # Wall-clock halved because two workers shared one core; the gate
        # must not blame the simulator for it ...
        slow = _valid_doc(jobs=2, cpus=1)
        _scale(slow, "macro", 0.5)
        _scale(slow, "micro", 0.5)
        with ResultStore(tmp_path / "gate.db") as store:
            for rev, doc in (("base", _valid_doc()), ("again", _valid_doc()),
                             ("slow", slow)):
                ingest_bench(store, dict(doc, git_rev=rev))
            assert check_regressions(store, KIND_BENCH_MACRO,
                                     "cycles_per_sec", threshold=0.20) == []
            assert [p.git_rev for p in trend(
                store, KIND_BENCH_MACRO, "cycles_per_sec",
                series="LU/4/ScalableBulk/oversubscribed")] == ["slow"]
            # ... but a micro regression in the same document still gates
            assert [r.series for r in check_regressions(
                store, KIND_BENCH_MICRO, "ops_per_sec",
                threshold=0.20)] == ["signature_insert"]


# ----------------------------------------------------------------------
# One `repro bench --quick` pass, run as a store campaign
# ----------------------------------------------------------------------
QUICK_KEYS = [
    "Radix/8/ScalableBulk", "Radix/8/TCC", "Radix/8/SEQ", "Radix/8/BulkSC",
    "LU/8/ScalableBulk", "LU/8/TCC", "LU/8/SEQ", "LU/8/BulkSC",
]


@pytest.fixture(scope="module")
def quick_pass(tmp_path_factory):
    """``repro bench --quick --jobs 64`` into a store seeded with the
    committed baseline, on a host reporting one CPU, at its own revision.
    Yields the store path and the exported document."""
    tmp = tmp_path_factory.mktemp("bench")
    db, out = tmp / "bench.db", tmp / "bench.json"
    assert store_cli.main(["ingest", str(BASELINE), "--store", str(db)]) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 1)
        mp.setattr(provenance, "git_rev", lambda cwd=None: "quickpass")
        assert bench.main(["--quick", "--jobs", "64", "--repeat", "1",
                           "--store", str(db), "--out", str(out)]) == 0
    return db, json.loads(out.read_text())


class TestQuickPass:
    def test_quick_spec_cells(self):
        cells = expand(bench.QUICK_MACRO)
        assert [f"{c.app}/{c.n_cores}/{c.protocol}" for c in cells] \
            == QUICK_KEYS
        assert {(c.chunks, c.n_partitions, c.active_cores) for c in cells} \
            == {(1, 8, None)}
        full = expand(bench.FULL_MACRO)
        assert len(full) == 16
        assert {(c.n_cores, c.chunks, c.n_partitions) for c in full} \
            == {(16, 2, 16)}

    def test_cells_match_run_one(self, quick_pass):
        _db, doc = quick_pass
        assert bench.validate_bench(doc) == []
        assert sorted(doc["macro"]) == sorted(QUICK_KEYS)
        for key, rec in doc["macro"].items():
            direct = run_one(rec["app"], rec["n_cores"],
                             ProtocolKind(rec["protocol"]), chunks=1)
            for field in ("total_cycles", "chunks_committed", "config_hash"):
                assert rec[field] == direct[field], (key, field)
            assert rec["calibration_ops_per_sec"] > 0

    def test_jobs_clamped_to_cpu_count(self, quick_pass):
        _db, doc = quick_pass
        assert doc["host"]["cpus"] == 1
        assert doc["config"]["jobs"] == 1

    def test_document_is_the_export_of_the_pass(self, quick_pass):
        db, doc = quick_pass
        with ResultStore(db) as store:
            assert export_bench(store) == doc
            rows = store.query(KIND_BENCH_MACRO, git_rev="quickpass")
        assert sorted(r.series for r in rows) == sorted(QUICK_KEYS)
        for row in rows:
            assert row.metric("calibration") \
                == row.payload["calibration_ops_per_sec"]

    def test_first_run_gates_every_series(self, quick_pass):
        """Against the committed baseline, no series passes vacuously."""
        db, doc = quick_pass
        with ResultStore(db) as store:
            for kind, metric, n in ((KIND_BENCH_MACRO, "cycles_per_sec", 8),
                                    (KIND_BENCH_MICRO, "ops_per_sec", 4)):
                trends = trends_by_series(store, kind, metric, last=5)
                assert len(trends) == n
                assert all([p.git_rev for p in points]
                           == ["9c77522", "quickpass"]
                           for points in trends.values())
                check_regressions(store, kind, metric)  # compares, no raise


class TestProfiledPasses:
    def test_profiled_pass_never_enters_a_store(self, tmp_path):
        db = tmp_path / "bench.db"
        with pytest.raises(SystemExit) as exc:
            bench.main(["--quick", "--profile", "--store", str(db)])
        assert exc.value.code == 2
        assert not db.exists()

    def test_ingested_profiled_cells_get_their_own_series(self, tmp_path):
        plain, profiled = _valid_doc(), _valid_doc()
        profiled["config"]["profile"] = True
        cell = profiled["macro"]["LU/4/ScalableBulk"]
        cell["profile"] = _profile_section()
        cell["cycles_per_sec"] /= 4  # timer overhead
        with ResultStore(tmp_path / "r.db") as store:
            ingest_bench(store, plain)
            ingest_bench(store, profiled)
            points = trend(store, KIND_BENCH_MACRO, "cycles_per_sec",
                           series="LU/4/ScalableBulk")
            assert [(p.value, p.n_samples) for p in points] \
                == [(10_000.0, 1)]
            assert trend(store, KIND_BENCH_MACRO, "cycles_per_sec",
                         series="LU/4/ScalableBulk/profiled")
