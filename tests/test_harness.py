"""Tests for the runner, the figure reducers and their renderers."""

import dataclasses

import pytest

from repro.config import ProtocolKind
from repro.harness.experiments import (
    ALL_PROTOCOLS, STUDIES, BreakdownBar, bottleneck_ratio, commit_latency,
    dirs_distribution, dirs_per_commit, execution_time, normalize_traffic,
    queue_length, render_bottleneck_ratio, render_commit_latency,
    render_dirs_per_commit, render_distribution, render_execution_time,
    render_traffic, traffic,
)
from repro.harness.runner import RunResult, run_app
from repro.harness.sweep import collect
from repro.store.campaign import CampaignSpec
from repro.store.db import ResultStore

SMALL = dict(n_cores=4, chunks_per_partition=1)
ONE_CHUNK = dict(chunks_per_partition=1)
APPS = ["LU", "Radix"]


class TestRunApp:
    def test_returns_result(self):
        r = run_app("LU", **SMALL)
        assert isinstance(r, RunResult)
        assert r.chunks_committed == 4
        assert r.total_cycles > 0

    def test_breakdown_sums_to_one(self):
        r = run_app("LU", **SMALL)
        assert sum(r.breakdown_fractions().values()) == pytest.approx(1.0)

    def test_speedup_and_normalized_inverse(self):
        r = run_app("LU", **SMALL)
        assert r.speedup(r.total_cycles * 2) == pytest.approx(2.0)
        assert r.normalized_time(r.total_cycles) == pytest.approx(1.0)

    def test_active_cores_subset(self):
        r = run_app("LU", n_cores=4, active_cores=1, chunks_per_partition=1)
        assert r.chunks_committed == 4  # all partitions on one core

    def test_deterministic_across_runs(self):
        a = run_app("FFT", **SMALL)
        b = run_app("FFT", **SMALL)
        assert a.total_cycles == b.total_cycles
        assert a.total_messages == b.total_messages

    def test_all_protocols_run(self):
        for proto in ProtocolKind:
            r = run_app("LU", protocol=proto, **SMALL)
            assert r.chunks_committed == 4, proto

    def test_keep_machine(self):
        r = run_app("LU", keep_machine=True, **SMALL)
        assert r.machine is not None
        assert r.machine.sim.quiescent()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """LU and Radix at 4 cores, 1 chunk: the campaign matrix the figure
    reducers read, collected into a throwaway store."""
    db = tmp_path_factory.mktemp("figures") / "figures.db"
    with ResultStore(db) as store:
        return collect(CampaignSpec(name="sweep", apps=tuple(APPS),
                                    cores=(4,), chunks=1),
                       store, log=lambda *_: None)


class TestExperimentFunctions:
    def test_execution_time_figure(self, records):
        fig = execution_time(records, ["LU"])
        bar = fig.bar("LU", ProtocolKind.SCALABLEBULK, 4)
        assert isinstance(bar, BreakdownBar)
        assert bar.speedup > 0
        total = bar.useful + bar.cache_miss + bar.commit + bar.squash
        assert total == pytest.approx(bar.normalized_time, rel=1e-6)

    def test_dirs_per_commit_rows(self, records):
        rows = dirs_per_commit(records, ["Radix"])
        assert rows[0].mean_dirs >= rows[0].mean_write_dirs
        assert rows[0].mean_read_only_dirs >= 0

    def test_dirs_distribution_sums_to_100(self, records):
        dist = dirs_distribution(records, ["LU"])
        assert sum(dist["LU"].values()) == pytest.approx(100.0)

    def test_commit_latency_samples(self, records):
        latency = commit_latency(records, ["LU"])
        assert sum(latency[4][ProtocolKind.SCALABLEBULK].values()) == 4

    def test_bottleneck_and_queue(self, records):
        bn = bottleneck_ratio(records, ["LU"])
        assert ProtocolKind.TCC in bn["LU"]
        q = queue_length(records, ["LU"])
        assert q["LU"][ProtocolKind.TCC] >= 0

    def test_traffic_counts(self, records):
        data = traffic(records, ["LU"])
        tcc = data["LU"][ProtocolKind.TCC]
        assert sum(tcc.values()) > 0


class TestRenderers:
    def test_render_breakdown(self, records):
        text = render_execution_time(execution_time(records, ["LU"]), "7",
                                     "SPLASH-2", 4)
        assert "| LU | 4 | ScalableBulk |" in text and "AVERAGE" in text

    def test_render_dirs(self, records):
        text = render_dirs_per_commit(dirs_per_commit(records, ["LU"]), "9",
                                      "SPLASH-2", 4)
        assert "| LU | 4 |" in text

    def test_render_distribution(self, records):
        text = render_distribution(dirs_distribution(records, ["LU"]), "11",
                                   "SPLASH-2", 4)
        assert "| LU |" in text

    def test_render_commit_latency(self, records):
        text = render_commit_latency(commit_latency(records, APPS))
        assert "measured mean" in text

    def test_render_ratio_table(self, records):
        data = bottleneck_ratio(records, ["LU"])
        text = render_bottleneck_ratio(data, "14", "SPLASH-2", 4)
        assert "| app | ScalableBulk | TCC | SEQ |" in text
        assert f"{data['LU'][ProtocolKind.TCC]:.2f}" in text

    def test_normalize_traffic_to_tcc(self):
        data = {
            ProtocolKind.TCC: {"MemRd": 50, "SmallCMessage": 50,
                               "Other": 0},
            ProtocolKind.SCALABLEBULK: {"MemRd": 50, "SmallCMessage": 0,
                                        "Other": 0},
        }
        norm = normalize_traffic(data)
        assert sum(norm[ProtocolKind.TCC].values()) == pytest.approx(100.0)
        assert sum(norm[ProtocolKind.SCALABLEBULK].values()) == \
            pytest.approx(50.0)

    def test_normalize_folds_other_into_reads(self):
        data = {ProtocolKind.TCC: {"MemRd": 50, "Other": 50}}
        norm = normalize_traffic(data)
        assert norm[ProtocolKind.TCC]["MemRd"] == pytest.approx(100.0)

    def test_render_traffic(self, records):
        text = render_traffic(traffic(records, ["LU"]), "18", "SPLASH-2", 4)
        assert "| LU | TCC |" in text


class TestReducersMatchDirectRuns:
    """Every reducer against an independent path: ``run_app`` on the same
    cells, read through ``RunResult`` and the machine's own stats."""

    @pytest.fixture(scope="class")
    def direct(self):
        runs = {}
        for app in APPS:
            runs[app, "1p"] = run_app(app, n_cores=4, active_cores=1,
                                      n_partitions=4, **ONE_CHUNK)
            for proto in ALL_PROTOCOLS:
                runs[app, proto] = run_app(app, n_cores=4, protocol=proto,
                                           n_partitions=4, keep_machine=True,
                                           **ONE_CHUNK)
        return runs

    def test_fig7_bars_match_from_result(self, records, direct):
        fig = execution_time(records, APPS)
        for app in APPS:
            base = direct[app, "1p"].total_cycles
            assert fig.baselines[app] == base
            for proto in ALL_PROTOCOLS:
                res = direct[app, proto]
                frac = res.breakdown_fractions()
                norm = res.normalized_time(base)
                want = {"normalized_time": norm, "speedup": res.speedup(base),
                        "useful": norm * frac["Useful"],
                        "cache_miss": norm * frac["Cache Miss"],
                        "commit": norm * frac["Commit"],
                        "squash": norm * frac["Squash"]}
                got = fig.bar(app, proto, 4)
                assert (got.app, got.protocol, got.n_cores) == \
                    (res.app, res.protocol, res.n_cores)
                for name, value in want.items():
                    assert getattr(got, name) == pytest.approx(
                        value, rel=1e-12), (app, proto, name)

    def test_fig9_rows_match_run_result_means(self, records, direct):
        for row in dirs_per_commit(records, APPS):
            res = direct[row.app, ProtocolKind.SCALABLEBULK]
            assert row.mean_dirs == res.mean_dirs_per_commit
            assert row.mean_write_dirs == res.mean_write_dirs_per_commit

    def test_fig11_percentages_match_machine_stats(self, records, direct):
        dist = dirs_distribution(records, APPS)
        for app in APPS:
            stats = direct[app, ProtocolKind.SCALABLEBULK] \
                .machine.protocol.stats
            counts = stats.dirs_per_commit_hist
            n = sum(counts.values())
            want = {d: 100.0 * counts.get(d, 0) / n for d in range(15)}
            want["more"] = 100.0 * sum(c for d, c in counts.items()
                                       if d > 14) / n
            assert dist[app] == pytest.approx(want), app

    def test_fig13_pooled_count_is_chunks_committed(self, records, direct):
        latency = commit_latency(records, APPS)
        for proto in ALL_PROTOCOLS:
            committed = sum(direct[app, proto].chunks_committed
                            for app in APPS)
            assert sum(latency[4][proto].values()) == committed, proto

    def test_fig14_16_match_run_result(self, records, direct):
        bn = bottleneck_ratio(records, APPS)
        q = queue_length(records, APPS)
        for app in APPS:
            for proto, ratio in bn[app].items():
                assert ratio == direct[app, proto].bottleneck_ratio
            for proto, length in q[app].items():
                assert length == direct[app, proto].mean_queue_length

    def test_fig18_traffic_matches_traffic_by_class(self, records, direct):
        data = traffic(records, APPS)
        for app in APPS:
            for proto in ALL_PROTOCOLS:
                assert data[app][proto] == \
                    direct[app, proto].traffic_by_class, (app, proto)


class TestStudiesMatchDirectRuns:
    """One point of each sensitivity study, run as its campaign, against
    ``run_app`` with the point's overrides, chunks and footprint scale."""

    @pytest.mark.parametrize("study", STUDIES, ids=lambda s: s.spec.name)
    def test_study_point_matches_run_app(self, tmp_path, study):
        spec = dataclasses.replace(study.spec,
                                   protocols=study.spec.protocols[:1],
                                   overrides=study.spec.overrides[:1])
        with ResultStore(tmp_path / "study.db") as store:
            (rec,) = collect(spec, store, log=lambda *_: None).values()
        overrides = dict(spec.overrides[0])
        assert rec["overrides"] == overrides
        chunks = overrides.pop("chunks", spec.chunks)
        scale = overrides.pop("access_scale", 1.0)
        direct = run_app(spec.apps[0], n_cores=spec.cores[0],
                         protocol=ProtocolKind(spec.protocols[0]),
                         chunks_per_partition=chunks, access_scale=scale,
                         **overrides)
        assert rec["total_cycles"] == direct.total_cycles
        assert (rec["useful"], rec["miss"], rec["commit"], rec["squash"]) \
            == (direct.useful_cycles, direct.miss_stall_cycles,
                direct.commit_stall_cycles, direct.squash_cycles)
        assert rec["squashes_alias"] == direct.squashes_alias
        (row,) = study.reduce({"cell": rec})
        assert row.point == tuple(spec.overrides[0][a] for a in study.axes)
