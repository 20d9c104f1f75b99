"""Trend extraction, regression gating and the HTML dashboard exporter."""

from pathlib import Path

import pytest

from repro.store import cli as store_cli
from repro.store import dashboard, query
from repro.store.db import ResultStore, StoreError
from repro.store.schema import (KIND_BENCH_MICRO, KIND_SWEEP, Record,
                                STATUS_FAILED)


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "r.db") as s:
        yield s


def put_series(store, kind, series, values_by_rev, metric="cycles_per_sec",
               extra_metrics=None, **kw):
    """One row per (rev, value) for a series."""
    for rev, value in values_by_rev.items():
        metrics = {metric: value}
        if extra_metrics:
            metrics.update(extra_metrics)
        store.put(Record(kind=kind, cell_key=f"{series}@{rev}",
                         series=series, git_rev=rev, metrics=metrics,
                         payload={"v": value}, **kw))


class TestTrend:
    def test_points_follow_first_seen_revision_order(self, store):
        put_series(store, KIND_SWEEP, "LU/8/TCC/8",
                   {"r1": 100.0, "r2": 110.0, "r3": 90.0})
        points = query.trend(store, KIND_SWEEP, "cycles_per_sec",
                             series="LU/8/TCC/8")
        assert [(p.git_rev, p.value) for p in points] \
            == [("r1", 100.0), ("r2", 110.0), ("r3", 90.0)]

    def test_same_rev_rows_average(self, store):
        store.put(Record(kind=KIND_SWEEP, cell_key="a", series="s",
                         git_rev="r1", app="LU",
                         metrics={"cycles_per_sec": 100.0}))
        store.put(Record(kind=KIND_SWEEP, cell_key="b", series="s2",
                         git_rev="r1", app="LU",
                         metrics={"cycles_per_sec": 300.0}))
        points = query.trend(store, KIND_SWEEP, "cycles_per_sec", app="LU")
        assert len(points) == 1
        assert points[0].value == pytest.approx(200.0)
        assert points[0].n_samples == 2

    def test_last_window_and_failed_rows_excluded(self, store):
        put_series(store, KIND_SWEEP, "s",
                   {"r1": 1.0, "r2": 2.0, "r3": 3.0})
        store.put(Record(kind=KIND_SWEEP, cell_key="s@r4", series="s",
                         git_rev="r4", status=STATUS_FAILED,
                         metrics={"cycles_per_sec": 999.0}))
        points = query.trend(store, KIND_SWEEP, "cycles_per_sec",
                             series="s", last=2)
        assert [p.git_rev for p in points] == ["r2", "r3"]

    def test_calibration_normalization(self, store):
        put_series(store, KIND_BENCH_MICRO, "sig", {"r1": 100.0},
                   metric="ops_per_sec", extra_metrics={"calibration": 4.0})
        raw = query.trend(store, KIND_BENCH_MICRO, "ops_per_sec",
                          series="sig")
        norm = query.trend(store, KIND_BENCH_MICRO, "ops_per_sec",
                           series="sig", normalize=True)
        assert raw[0].value == 100.0
        assert norm[0].value == pytest.approx(25.0)


class TestCheckRegressions:
    def test_higher_is_better_regression_detected(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 100.0, "r2": 80.0})
        regs = query.check_regressions(store, KIND_SWEEP, "cycles_per_sec",
                                       threshold=0.10)
        assert len(regs) == 1
        assert regs[0].baseline_rev == "r1"
        assert regs[0].drop_pct == pytest.approx(20.0)
        assert "worse than rev r1" in regs[0].render()

    def test_within_threshold_passes(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 100.0, "r2": 95.0})
        assert query.check_regressions(store, KIND_SWEEP, "cycles_per_sec",
                                       threshold=0.10) == []

    def test_lower_is_better_inferred_from_name(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 50.0, "r2": 80.0},
                   metric="mean_commit_latency")
        regs = query.check_regressions(store, KIND_SWEEP,
                                       "mean_commit_latency",
                                       threshold=0.10)
        assert len(regs) == 1  # latency went up: that's the regression

    def test_total_cycles_gates_a_rise_not_a_fall(self, store):
        put_series(store, KIND_SWEEP, "up", {"r1": 1000.0, "r2": 1300.0},
                   metric="total_cycles")
        put_series(store, KIND_SWEEP, "down", {"r1": 1000.0, "r2": 700.0},
                   metric="total_cycles")
        regs = query.check_regressions(store, KIND_SWEEP, "total_cycles",
                                       threshold=0.10)
        assert [r.series for r in regs] == ["up"]

    def test_single_revision_passes_vacuously(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 100.0})
        assert query.check_regressions(store, KIND_SWEEP,
                                       "cycles_per_sec") == []

    def test_window_forgets_ancient_baselines(self, store):
        # r1 was the all-time best, but only the last 2 revisions gate
        put_series(store, KIND_SWEEP, "s",
                   {"r1": 1000.0, "r2": 100.0, "r3": 95.0})
        assert query.check_regressions(store, KIND_SWEEP, "cycles_per_sec",
                                       threshold=0.10, last=2) == []
        assert len(query.check_regressions(store, KIND_SWEEP,
                                           "cycles_per_sec",
                                           threshold=0.10, last=3)) == 1

    def test_improvement_never_flags(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 100.0, "r2": 200.0})
        assert query.check_regressions(store, KIND_SWEEP,
                                       "cycles_per_sec") == []

    def test_misspelled_metric_raises(self, store):
        put_series(store, KIND_SWEEP, "s", {"r1": 100.0, "r2": 50.0})
        with pytest.raises(StoreError, match="cycles_per_secc"):
            query.check_regressions(store, KIND_SWEEP, "cycles_per_secc")

    def test_window_without_a_shared_series_raises(self, store):
        # a renamed series key: two revisions, nothing to compare
        put_series(store, KIND_SWEEP, "old-name", {"r1": 100.0})
        put_series(store, KIND_SWEEP, "new-name", {"r2": 50.0})
        with pytest.raises(StoreError, match="compare nothing"):
            query.check_regressions(store, KIND_SWEEP, "cycles_per_sec")

    def test_cli_misspelled_metric_exits_2(self, tmp_path, capsys):
        repo = Path(__file__).resolve().parent.parent
        db = str(tmp_path / "t.db")
        assert store_cli.main(
            ["ingest", str(repo / "BENCH_2026-08-05.json"),
             str(repo / "BENCH_2026-08-08.json"), "--store", db]) == 0
        assert store_cli.main(
            ["check", "--store", db, "--kind", "bench_macro", "--metric",
             "cycles_per_secc", "--threshold", "0.10"]) == 2
        assert "cycles_per_secc" in capsys.readouterr().err


class TestDashboard:
    def test_empty_store_renders_placeholder(self, store, tmp_path):
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out)
        html = out.read_text()
        assert "<svg" not in html
        assert "No plottable records yet" in html

    def test_charts_series_and_table(self, store, tmp_path):
        put_series(store, KIND_SWEEP, "LU/8/TCC/8",
                   {"r1": 100.0, "r2": 120.0},
                   extra_metrics={"mean_commit_latency": 30.0,
                                  "squash_rate": 0.01})
        put_series(store, KIND_BENCH_MICRO, "signature_insert",
                   {"r1": 5.0, "r2": 6.0}, metric="ops_per_sec")
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out, title="Test trends")
        html = out.read_text()
        assert "<svg" in html
        assert "Test trends" in html
        assert "LU/8/TCC/8" in html
        assert "signature_insert" in html
        assert "<details>" in html          # data-table fallback
        assert "prefers-color-scheme: dark" in html
        assert "<title>" in html            # per-marker tooltips

    def test_failed_cells_listed(self, store, tmp_path):
        store.put(Record(kind=KIND_SWEEP, cell_key="LU/8/TCC/8/c1/s0",
                         series="LU/8/TCC/8", git_rev="r1",
                         status=STATUS_FAILED,
                         error="ValueError('boom')", payload={}))
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out)
        html = out.read_text()
        assert "Failed cells" in html
        assert "ValueError" in html

    def test_series_cap_folds_to_table(self, store, tmp_path):
        for i in range(12):
            put_series(store, KIND_BENCH_MICRO, f"bench_{i:02d}",
                       {"r1": float(i + 1), "r2": float(i + 2)},
                       metric="ops_per_sec")
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out)
        html = out.read_text()
        # at most 8 plotted series; the rest are table-only
        assert html.count('class="line"') <= 8 * html.count("<svg")
        assert "bench_11" in html  # still present in the data table

    def test_perfetto_trace_links(self, store, tmp_path):
        store.put(Record(kind=KIND_SWEEP, cell_key="LU/8/TCC/8",
                         series="LU/8/TCC/8", git_rev="r1",
                         metrics={"cycles_per_sec": 1.0},
                         payload={"total_cycles": 5,
                                  "trace_out": "traces/lu.json"}))
        out = tmp_path / "dash.html"
        dashboard.write_dashboard(store, out)
        assert "traces/lu.json" in out.read_text()
