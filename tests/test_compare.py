"""Tests for the store's two-sided drift check (``store check --drift``):
two sweep documents ingested as two revisions, compared per series."""

import json

from repro.store import cli as store_cli
from repro.store.db import ResultStore
from repro.store.ingest import ingest_sweep
from repro.store.query import DriftReport, check_drift

KEY = "LU/64/ScalableBulk/64"


def rec(cycles=10000, lat=100.0, dirs=3.0, queue=0.0, sq=0):
    return {"total_cycles": cycles, "mean_commit_latency": lat,
            "mean_dirs": dirs, "mean_queue": queue, "squashes_conflict": sq}


def drift(tmp_path, old, new, metric="total_cycles", threshold=0.10):
    """Ingest ``old`` as rev A and ``new`` as rev B, then check drift."""
    with ResultStore(tmp_path / "drift.db") as store:
        ingest_sweep(store, old, git_rev="A")
        ingest_sweep(store, new, git_rev="B")
        return check_drift(store, "sweep", metric, threshold=threshold)


class TestCompare:
    def test_identical_sweeps_clean(self, tmp_path):
        a = {KEY: rec()}
        for metric in ("total_cycles", "mean_commit_latency", "mean_dirs",
                       "mean_queue", "squashes_conflict"):
            report = drift(tmp_path / metric, a, dict(a), metric)
            assert report.drifts == []

    def test_cycle_drift_detected(self, tmp_path):
        report = drift(tmp_path, {KEY: rec(cycles=10000)},
                       {KEY: rec(cycles=13000)})
        assert report.drifts == [(KEY, 10000, 13000)]
        assert report.metric == "total_cycles"
        assert "+30.0%" in report.render()
        # two-sided: a fall is a drift as well
        back = drift(tmp_path / "fall", {KEY: rec(cycles=13000)},
                     {KEY: rec(cycles=10000)})
        assert back.drifts == [(KEY, 13000, 10000)]
        assert "-23.1%" in back.render()

    def test_small_absolute_changes_ignored(self, tmp_path):
        # +50% but only 5 cycles, under the metric's floor
        report = drift(tmp_path, {KEY: rec(lat=10.0)}, {KEY: rec(lat=15.0)},
                       "mean_commit_latency")
        assert report.drifts == []

    def test_threshold_respected(self, tmp_path):
        old, new = {KEY: rec(cycles=10000)}, {KEY: rec(cycles=10800)}  # +8%
        assert drift(tmp_path / "t10", old, new, threshold=0.10).drifts == []
        assert drift(tmp_path / "t05", old, new, threshold=0.05).drifts

    def test_zero_baseline_reported_as_new(self, tmp_path):
        report = drift(tmp_path, {KEY: rec(queue=0.0)},
                       {KEY: rec(queue=5.0)}, "mean_queue")
        assert report.drifts == [(KEY, 0.0, 5.0)]
        assert report.render().endswith("new")

    def test_missing_keys(self, tmp_path):
        report = drift(tmp_path, {"a/4/TCC/4": rec()}, {"b/4/TCC/4": rec()})
        assert report.only_old == ["a/4/TCC/4"]
        assert report.only_new == ["b/4/TCC/4"]
        assert report.drifts == []

    def test_render_mentions_everything(self):
        report = DriftReport("total_cycles", "A", "B",
                             [("k", 1000, 2000)],
                             only_old=["old-only"], only_new=["new-only"])
        text = report.render()
        assert "old-only" in text and "new-only" in text
        assert "+100.0%" in text

    def test_render_clean(self):
        report = DriftReport("total_cycles", "A", "B")
        assert "no significant drifts" in report.render()


class TestCli:
    def test_main_exit_codes(self, tmp_path, capsys):
        db = str(tmp_path / "drift.db")

        def ingest(name, cycles, rev):
            path = tmp_path / name
            path.write_text(json.dumps({KEY: rec(cycles=cycles)}))
            assert store_cli.main(["ingest", str(path), "--store", db,
                                   "--rev", rev]) == 0

        check = ["check", "--store", db, "--kind", "sweep",
                 "--metric", "total_cycles", "--drift"]
        ingest("a.json", 10000, "A")
        ingest("b.json", 10000, "B")
        assert store_cli.main(check) == 0
        ingest("c.json", 20000, "C")  # compared with B, the rev before it
        capsys.readouterr()
        assert store_cli.main(check) == 1
        assert "total_cycles" in capsys.readouterr().out
        # a store that holds one revision compares nothing
        one = str(tmp_path / "one.db")
        assert store_cli.main(["ingest", str(tmp_path / "a.json"),
                               "--store", one, "--rev", "A"]) == 0
        assert store_cli.main(["check", "--store", one, "--kind", "sweep",
                               "--metric", "total_cycles", "--drift"]) == 2
