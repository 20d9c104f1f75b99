"""Tests for the full-sweep module (collection, resume, rendering)."""

import json

import pytest

from repro.config import ProtocolKind
from repro.harness import sweep
from repro.store.campaign import CampaignSpec, run_one
from repro.store.db import ResultStore


class TestRunOne:
    def test_record_fields(self):
        rec = run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1)
        for field in ("total_cycles", "mean_commit_latency", "dirs_hist",
                      "latency_hist", "traffic", "mean_dirs"):
            assert field in rec
        assert rec["chunks_committed"] == 4

    def test_baseline_uses_one_core(self):
        rec = run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1,
                      active_cores=1)
        assert rec["active_cores"] == 1
        assert rec["chunks_committed"] == 4  # all partitions on core 0


def quiet(*_args):
    pass


def spec(apps, cores, chunks):
    return CampaignSpec(name="sweep", apps=tuple(apps), cores=tuple(cores),
                        chunks=chunks)


class TestCollectCaching:
    def test_collect_writes_and_reuses_cache(self, tmp_path):
        logs = []
        with ResultStore(tmp_path / "sweep.db") as store:
            records = sweep.collect(spec(["LU"], [4], 1), store,
                                    log=logs.append)
        assert any("ran=5 " in line for line in logs)
        # a second collection against the same store runs nothing
        logs2 = []
        with ResultStore(tmp_path / "sweep.db") as store:
            records2 = sweep.collect(spec(["LU"], [4], 1), store,
                                     log=logs2.append)
        assert any("ran=0 " in line for line in logs2)
        assert list(records2) == list(records)
        assert records2 == records

    def test_collect_runs_matrix(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            records = sweep.collect(spec(["LU"], [4], 1), store, log=quiet)
        # 1 baseline + 4 protocols, keyed by App/N/Proto/Active
        assert list(records) == ["LU/4/baseline1p/1", "LU/4/ScalableBulk/4",
                                 "LU/4/TCC/4", "LU/4/SEQ/4", "LU/4/BulkSC/4"]


class TestStaleCache:
    """Changing --chunks must re-run the matrix: the resume key includes
    the chunk count (and seed), not just App/N/Proto/Active."""

    def test_chunks_change_reruns_every_cell(self, tmp_path, capsys):
        def sweep_lu(chunks):
            assert sweep.main(["--apps", "LU", "--cores", "4",
                               "--chunks", str(chunks),
                               "--json", str(tmp_path / "s.json"),
                               "--markdown", str(tmp_path / "m.md"),
                               "--store", str(tmp_path / "s.db")]) == 0
            out = capsys.readouterr().out
            return out, json.loads((tmp_path / "s.json").read_text())

        out, first = sweep_lu(1)
        assert "ran=5 " in out
        assert first["LU/4/TCC/4"]["chunks_committed"] == 4
        out, second = sweep_lu(2)
        assert "ran=5 " in out
        assert all(rec["chunks_committed"] == 8 for rec in second.values())
        assert "chunks/partition=2" in (tmp_path / "m.md").read_text()
        out, third = sweep_lu(2)
        assert "ran=0 " in out
        assert list(third) == list(second)


class TestFailedCell:
    def test_failed_cell_exits_1_and_reruns(self, tmp_path, capsys):
        argv = ["--apps", "NoSuchApp", "--cores", "4", "--chunks", "1",
                "--json", str(tmp_path / "s.json"),
                "--markdown", str(tmp_path / "m.md")]
        assert sweep.main(argv) == 1
        assert "sweep cell(s) failed" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()
        # failure rows do not dedupe a sweep: the next one retries them
        assert sweep.main(argv) == 1
        assert "skipped=0 failed=5" in capsys.readouterr().out


class TestInstrumentedSweep:
    """``--critical-paths`` and ``--profile`` survive the store round trip."""

    def test_critical_paths_and_profile(self, tmp_path, capsys):
        argv = ["--apps", "LU", "--cores", "4", "--chunks", "1",
                "--json", str(tmp_path / "s.json"),
                "--markdown", str(tmp_path / "m.md"),
                "--critical-paths", "--profile"]
        for run in ("fresh", "resumed"):
            assert sweep.main(argv) == 0, run
            out = capsys.readouterr().out
            assert ("ran=5 " if run == "fresh" else "ran=0 ") in out
            records = json.loads((tmp_path / "s.json").read_text())
            cpaths = json.loads(
                (tmp_path / "critical_paths.json").read_text())
            assert list(cpaths) == sorted(records), run
            for key, rec in records.items():
                assert "critical_path" not in rec, key
                total = sum(rec["profile"]["shares"].values())
                assert abs(total - 100.0) <= 1.0, (run, key, total)
                assert cpaths[key]["outcomes"]["committed"] \
                    == rec["chunks_committed"], key
        # the default store sits next to the JSON export
        assert (tmp_path / "s.db").exists()


class TestAtomicSave:
    def test_atomic_write_replaces_and_cleans_up(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("old")
        sweep.atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

    def test_failed_write_leaves_previous_checkpoint_intact(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "cache.json"
        path.write_text('{"good": "checkpoint"}')

        def explode(_src, _dst):
            raise OSError("simulated crash at the rename")

        monkeypatch.setattr(sweep.os, "replace", explode)
        with pytest.raises(OSError):
            sweep.atomic_write_text(path, "half-written garbage")
        # the old checkpoint survives and the temp file is gone
        assert path.read_text() == '{"good": "checkpoint"}'
        assert list(tmp_path.iterdir()) == [path]


class TestSeedOverride:
    def test_run_one_seed_lands_in_config_and_record(self):
        rec = run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1,
                      seed=1234)
        assert rec["seed"] == 1234
        default = run_one("LU", 4, ProtocolKind.SCALABLEBULK, chunks=1)
        assert default["seed"] != 1234  # Table 2 default preserved
        assert rec["config_hash"] != default["config_hash"]


class TestRendering:
    @pytest.fixture
    def records(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            return sweep.collect(spec(["LU", "Radix"], [4], 1), store,
                                 log=quiet)

    def test_markdown_contains_all_figures(self, records):
        md = sweep.render_markdown(records, ["LU", "Radix"], [4], 1)
        for fig in ("Figure 7", "Figure 9", "Figure 11", "Figure 13",
                    "Figure 14", "Figure 16", "Figure 18"):
            assert fig in md, fig
        assert "Radix" in md and "LU" in md
        assert "ScalableBulk" in md

    def test_markdown_has_paper_reference_latencies(self, records):
        md = sweep.render_markdown(records, ["LU", "Radix"], [4], 1)
        assert "2954" in md  # the paper's BulkSC 64p mean

    def test_main_cli(self, tmp_path):
        md_path = tmp_path / "exp.md"
        rc = sweep.main(["--apps", "LU", "--cores", "4", "--chunks", "1",
                         "--json", str(tmp_path / "s.json"),
                         "--markdown", str(md_path)])
        assert rc == 0
        assert "Figure 13" in md_path.read_text()
