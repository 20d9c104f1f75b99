"""Tests for the benchmark harness (repro.harness.bench) and its gate."""

import json
from pathlib import Path

import pytest

from repro import provenance
from repro.harness import bench
from repro.store import cli as store_cli
from repro.store.db import ResultStore
from repro.store.ingest import export_bench, ingest_bench
from repro.store.query import check_regressions, trends_by_series
from repro.store.schema import KIND_BENCH_MICRO

REPO = Path(__file__).resolve().parent.parent
#: The newest committed baseline: the one CI's gate must compare against.
BASELINE = REPO / "BENCH_2026-08-08.json"


def _valid_doc(calibration=1_000_000.0):
    """A minimal schema-valid document for validator and gate tests."""
    return {
        "schema": bench.SCHEMA,
        "date": "2026-08-05",
        "host": {"python": "3.11.7", "platform": "test", "cpus": 4},
        "config": {"quick": True, "repeat": 1},
        "calibration_ops_per_sec": calibration,
        "micro": {
            "signature_insert": {"ops": 1000, "seconds": 0.01,
                                 "ops_per_sec": 100_000.0},
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

    @pytest.mark.parametrize("section", ["micro", "host"])
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
def _scale(doc, factor):
    for rec in doc["micro"].values():
        rec["ops_per_sec"] *= factor


def _faster_host(old, new):
    new["calibration_ops_per_sec"] *= 2


def _faster_host_faster_code(old, new):
    _faster_host(old, new)
    _scale(new, 2.0)


def _speedup(old, new):
    _scale(new, 1e4)


def _unshared_keys(old, new):
    old["micro"]["gone"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1e12}
    new["micro"]["new"] = {"ops": 1, "seconds": 1.0, "ops_per_sec": 1.0}


MICRO_KEY = "bench_micro/signature_insert"


class TestStoreGate:
    @pytest.mark.parametrize("mutate,threshold,failing", [
        pytest.param(lambda old, new: None, 0.20, set(),
                     id="identical-passes"),
        pytest.param(lambda old, new: _scale(new, 0.5), 0.20,
                     {MICRO_KEY}, id="micro-halved-fails"),
        pytest.param(lambda old, new: _scale(new, 0.9), 0.20,
                     set(), id="10pct-slower-passes-at-20pct"),
        pytest.param(_faster_host_faster_code, 0.20, set(),
                     id="2x-host-2x-raw-passes"),
        pytest.param(_faster_host, 0.20, {MICRO_KEY},
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
                           for r in check_regressions(
                               store, KIND_BENCH_MICRO, "ops_per_sec",
                               threshold=threshold)}
        assert regressions == failing

    def test_cli_gate_fails_a_halved_pass(self, tmp_path, capsys):
        """CI's gate command exits 1 on a pass whose throughput halved
        against the committed baseline (the old comparator's teeth)."""
        slow = json.loads(BASELINE.read_text())
        slow["git_rev"] = "slowpass"
        _scale(slow, 0.5)
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        db = str(tmp_path / "gate.db")
        assert store_cli.main(["ingest", str(BASELINE), str(slow_path),
                               "--store", db]) == 0
        check = ["check", "--store", db, "--kind", "bench_micro",
                 "--metric", "ops_per_sec", "--threshold", "0.10"]
        assert store_cli.main(check) == 1
        out = capsys.readouterr().out
        assert f"{len(slow['micro'])} regression(s)" in out


# ----------------------------------------------------------------------
# One `repro bench --quick --store` pass
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_pass(tmp_path_factory):
    """``repro bench --quick --store`` into a store seeded with the
    committed baseline, at its own revision.  Yields the store path and
    the written document."""
    tmp = tmp_path_factory.mktemp("bench")
    db, out = tmp / "bench.db", tmp / "bench.json"
    assert store_cli.main(["ingest", str(BASELINE), "--store", str(db)]) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(provenance, "git_rev", lambda cwd=None: "quickpass")
        assert bench.main(["--quick", "--repeat", "1",
                           "--store", str(db), "--out", str(out)]) == 0
    return db, json.loads(out.read_text())


class TestQuickPass:
    def test_document_is_the_export_of_the_pass(self, quick_pass):
        db, doc = quick_pass
        assert bench.validate_bench(doc) == []
        assert sorted(doc["micro"]) == sorted(bench.MICRO_BENCHES)
        with ResultStore(db) as store:
            assert export_bench(store) == doc

    def test_first_run_gates_every_series(self, quick_pass):
        """Against the committed baseline, no series passes vacuously."""
        db, _doc = quick_pass
        with ResultStore(db) as store:
            trends = trends_by_series(store, KIND_BENCH_MICRO, "ops_per_sec",
                                      last=5)
            assert len(trends) == 4
            assert all([p.git_rev for p in points] == ["9c77522", "quickpass"]
                       for points in trends.values())
            check_regressions(store, KIND_BENCH_MICRO, "ops_per_sec")  # compares
