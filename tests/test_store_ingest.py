"""Ingestion round-trips against the repo's committed result artifacts."""

import json
from pathlib import Path

import pytest

from repro.store import dashboard, ingest
from repro.store.db import ResultStore, StoreError
from repro.store.schema import (KIND_BENCH_META, KIND_BENCH_MICRO,
                                KIND_CHAOS, KIND_PERF, KIND_PROFILE,
                                KIND_SWEEP, Record, STATUS_FAILED, STATUS_OK)

REPO = Path(__file__).resolve().parent.parent
BENCH_DOCS = sorted(REPO.glob("BENCH_*.json"))
SWEEP_CACHE = REPO / "results" / "sweep.json"
PERF_RESULTS = sorted((REPO / "benchmarks" / "perf" / "results")
                      .glob("baseline-*.json"))


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "r.db") as s:
        yield s


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


class TestBenchRoundTrip:
    @pytest.mark.skipif(not BENCH_DOCS, reason="no committed BENCH docs")
    def test_committed_docs_reexport_losslessly(self, store):
        # ingest every committed benchmark document, newest last
        for path in BENCH_DOCS:
            doc = json.loads(path.read_text())
            ingest.ingest_bench(store, doc, source=str(path))
        newest = json.loads(BENCH_DOCS[-1].read_text())
        assert canonical(ingest.export_bench(store)) == canonical(newest)
        # each document stays addressable by its date.docid prefix
        for path in BENCH_DOCS:
            doc = json.loads(path.read_text())
            prefix = f"{doc['date']}.{ingest._doc_id(doc)}"
            assert canonical(ingest.export_bench(store, prefix)) \
                == canonical(doc)

    @pytest.mark.skipif(not BENCH_DOCS, reason="no committed BENCH docs")
    def test_rows_carry_metrics_and_calibration(self, store):
        doc = json.loads(BENCH_DOCS[-1].read_text())
        ingest.ingest_bench(store, doc, source="x")
        micro = store.query(KIND_BENCH_MICRO)
        assert len(micro) == len(doc["micro"])
        cal = doc["calibration_ops_per_sec"]
        for row in micro:
            assert row.metric("calibration") == pytest.approx(cal)
        assert all(r.metric("ops_per_sec") for r in micro)
        meta = store.query(KIND_BENCH_META)[0]
        assert meta.git_rev == (doc.get("git_rev") or "")

    @pytest.mark.skipif(not BENCH_DOCS, reason="no committed BENCH docs")
    def test_reingest_is_idempotent(self, store):
        doc = json.loads(BENCH_DOCS[-1].read_text())
        ingest.ingest_bench(store, doc, source="x")
        first = len(store.query())
        ingest.ingest_bench(store, doc, source="x")
        assert len(store.query()) == first


class TestSweepRoundTrip:
    @pytest.mark.skipif(not SWEEP_CACHE.exists(),
                        reason="no committed sweep cache")
    def test_committed_cache_reexports_losslessly(self, store):
        records = json.loads(SWEEP_CACHE.read_text())
        ingest.ingest_sweep(store, records, source=str(SWEEP_CACHE),
                            git_rev="testrev")
        assert canonical(ingest.export_sweep(store)) == canonical(records)

    def test_sweep_metrics_derivation(self):
        rec = {"total_cycles": 1000, "chunks_committed": 10,
               "squashes_conflict": 1, "squashes_alias": 1,
               "mean_commit_latency": 25.0, "wall_seconds_raw": 0.5}
        metrics = ingest.sweep_metrics(rec)
        assert metrics["cycles_per_sec"] == pytest.approx(2000.0)
        assert metrics["squash_rate"] == pytest.approx(0.2)
        assert metrics["mean_commit_latency"] == 25.0

    def test_key_parsing(self, store):
        ingest.ingest_sweep(
            store, {"Radix/16/TCC/16": {"total_cycles": 5, "seed": 7,
                                        "config_hash": "abc"}},
            git_rev="r1")
        row = store.query(KIND_SWEEP)[0]
        assert (row.app, row.n_cores, row.seed) == ("Radix", 16, 7)
        assert row.config_hash == "abc"


def _campaign_row(series, chunks, seed="default", rev="r1"):
    return Record(kind=KIND_SWEEP, cell_key=f"{series}/c{chunks}/s{seed}",
                  series=series, config_hash="h", seed=0, git_rev=rev,
                  payload={"total_cycles": chunks, "chunks": chunks})


class TestSweepExport:
    def test_campaign_rows_export_by_series(self, store):
        store.put_many([_campaign_row("LU/4/TCC/4", 1),
                        _campaign_row("LU/4/SEQ/4", 1)])
        doc = ingest.export_sweep(store)
        assert list(doc) == ["LU/4/TCC/4", "LU/4/SEQ/4"]
        assert doc["LU/4/TCC/4"] == {"total_cycles": 1, "chunks": 1}

    def test_duplicate_series_raises_naming_it(self, store):
        store.put_many([_campaign_row("LU/4/TCC/4", 1),
                        _campaign_row("LU/4/TCC/4", 2)])
        with pytest.raises(StoreError, match="LU/4/TCC/4"):
            ingest.export_sweep(store)
        # selecting one cell per series resolves it
        doc = ingest.export_sweep(store, cell_keys=["LU/4/TCC/4/c2/sdefault"])
        assert doc == {"LU/4/TCC/4": {"total_cycles": 2, "chunks": 2}}

    def test_two_revisions_of_one_series_raise(self, store):
        store.put_many([_campaign_row("LU/4/TCC/4", 1, rev="r1"),
                        _campaign_row("LU/4/TCC/4", 1, rev="r2")])
        with pytest.raises(StoreError, match="LU/4/TCC/4"):
            ingest.export_sweep(store)
        assert list(ingest.export_sweep(store, git_rev="r2")) \
            == ["LU/4/TCC/4"]

    def test_cell_keys_fix_the_order_and_must_exist(self, store):
        store.put_many([_campaign_row("LU/4/TCC/4", 1),
                        _campaign_row("LU/4/SEQ/4", 1)])
        keys = ["LU/4/SEQ/4/c1/sdefault", "LU/4/TCC/4/c1/sdefault"]
        assert list(ingest.export_sweep(store, cell_keys=keys)) \
            == ["LU/4/SEQ/4", "LU/4/TCC/4"]
        with pytest.raises(StoreError, match="LU/4/TCC/4/c9/sdefault"):
            ingest.export_sweep(store, cell_keys=["LU/4/TCC/4/c9/sdefault"])


class TestChaosAndProfile:
    def test_chaos_artifact(self, store):
        doc = {"version": 1,
               "scenario": {"name": "hotpage", "protocol": "ScalableBulk",
                            "n_cores": 8},
               "plan": {"name": "plan-3", "seed": 42, "faults": [{}, {}]},
               "violations": [{"code": "SB-SAFE-1", "rule": "r",
                               "time": 5, "detail": "d"}],
               "watchdog_fires": [], "stats": {"cycles": 99, "commits": 3}}
        ingest.ingest_chaos_artifact(store, doc, source="x")
        row = store.query(KIND_CHAOS)[0]
        assert row.cell_key == "hotpage/plan-3"
        assert row.status == STATUS_FAILED
        assert row.error == "SB-SAFE-1"
        assert row.metrics["violations"] == 1
        assert row.metrics["n_faults"] == 2
        assert row.payload == doc

    def test_clean_chaos_artifact_is_ok(self, store):
        doc = {"version": 1, "scenario": {"name": "s"},
               "plan": {"name": "p", "seed": 0, "faults": []},
               "violations": [], "watchdog_fires": [], "stats": {}}
        ingest.ingest_chaos_artifact(store, doc)
        assert store.query(KIND_CHAOS)[0].status == STATUS_OK

    def test_profile_report(self, store):
        doc = {"schema": "repro-profile-v1", "wall_ns": 1000,
               "scopes": {"noc": {}}, "shares": {"noc": 0.4, "dir": 0.6},
               "git_rev": "r9"}
        ingest.ingest_profile(store, doc, source="x")
        row = store.query(KIND_PROFILE)[0]
        assert row.metric("share/noc") == pytest.approx(0.4)
        assert row.metric("wall_ns") == 1000
        assert row.git_rev == "r9"
        assert row.payload == doc


class TestDetection:
    def test_detect_each_kind(self):
        assert ingest.detect_kind({"schema": "repro-bench-v1"}) == "bench"
        assert ingest.detect_kind({"version": 1, "plan": {},
                                   "scenario": {}}) == "chaos"
        assert ingest.detect_kind({"shares": {}, "scopes": {}}) == "profile"
        assert ingest.detect_kind(
            {"LU/4/TCC/4": {"total_cycles": 1}}) == "sweep"

    def test_unknown_shape_rejected(self):
        with pytest.raises(StoreError):
            ingest.detect_kind({"mystery": True})
        with pytest.raises(StoreError):
            ingest.detect_kind([1, 2, 3])

    def test_ingest_path(self, store, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {"LU/4/TCC/4": {"total_cycles": 1, "seed": 0}}))
        kind, n = ingest.ingest_path(store, path, git_rev="r1")
        assert (kind, n) == ("sweep", 1)
        assert store.query(KIND_SWEEP)[0].source == str(path)


class TestPerfSuiteResults:
    @pytest.mark.skipif(not PERF_RESULTS, reason="no committed perf results")
    def test_committed_results_one_row_per_workload(self, store, tmp_path):
        for path in PERF_RESULTS:
            assert ingest.ingest_path(store, path, git_rev="r1") \
                == ("perf", 4)
        rows = store.query(KIND_PERF)
        assert len(rows) == 4 * len(PERF_RESULTS)
        for path in PERF_RESULTS:
            doc = json.loads(path.read_text())
            for name, summary in doc["workloads"].items():
                row = next(r for r in rows if r.source == str(path)
                           and r.series == name)
                assert row.metrics == summary["median"]
                assert row.payload == summary
                assert (row.app, row.protocol, row.n_cores, row.git_rev) \
                    == (summary["workload"]["app"],
                        summary["workload"]["protocol"],
                        summary["workload"]["cores"], "r1")
        assert {r.series for r in rows} == set(doc["workloads"])
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out)
        assert "Paper-scale throughput" in out.read_text()

    def test_detected_by_shape(self):
        assert ingest.detect_kind(
            {"host": {}, "seed": 1, "workloads": {}}) == "perf"
