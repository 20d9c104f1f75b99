"""Campaign runner tests: spec handling, run parity, crash-safe resume."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import ProtocolKind
from repro.store import campaign
from repro.store.db import ResultStore, StoreError
from repro.store.schema import KIND_SWEEP, STATUS_FAILED, STATUS_OK

REPO = Path(__file__).resolve().parent.parent

#: Fields a campaign record may legitimately differ from a direct run's
#: (host wall-clock; everything else must be byte-identical).
WALL_FIELDS = ("wall_seconds", "wall_seconds_raw")


def strip_wall(record):
    return {k: v for k, v in record.items() if k not in WALL_FIELDS}


class TestSpec:
    def test_from_json_defaults(self):
        spec = campaign.CampaignSpec.from_json(
            {"name": "s", "apps": ["LU"], "cores": [4]})
        assert spec.chunks == 2
        assert spec.seeds == (None,)
        assert spec.baseline1p is True
        assert len(spec.protocols) == 4

    def test_round_trip(self, tmp_path):
        spec = campaign.CampaignSpec.from_json(
            {"name": "s", "apps": ["LU"], "cores": [4, 8],
             "protocols": ["TCC"], "chunks": 1, "seeds": [7, 9],
             "baseline1p": False})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert campaign.CampaignSpec.load(path) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(StoreError, match="unknown campaign spec key"):
            campaign.CampaignSpec.from_json(
                {"name": "s", "apps": ["LU"], "cores": [4], "bogus": 1})

    def test_unknown_protocol_rejected(self):
        with pytest.raises(StoreError, match="unknown protocol"):
            campaign.CampaignSpec.from_json(
                {"name": "s", "apps": ["LU"], "cores": [4],
                 "protocols": ["MESI"]})

    def test_missing_required_key_rejected(self):
        with pytest.raises(StoreError, match="needs 'cores'"):
            campaign.CampaignSpec.from_json({"name": "s", "apps": ["LU"]})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(StoreError, match="unknown override key.*"
                           "signature_bits"):
            campaign.CampaignSpec.from_json(
                {"name": "s", "apps": ["LU"], "cores": [4],
                 "overrides": [{"signature_bits": 512},
                               {"signature_bitz": 512}]})
        with pytest.raises(StoreError, match="list of objects"):
            campaign.CampaignSpec.from_json(
                {"name": "s", "apps": ["LU"], "cores": [4],
                 "overrides": [["signature_bits", 512]]})

    def test_overrides_round_trip(self, tmp_path):
        spec = campaign.CampaignSpec.from_json(
            {"name": "s", "apps": ["LU"], "cores": [4],
             "overrides": [{"oci": False}, {"chunks": 1,
                                            "access_scale": 0.5}]})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert campaign.CampaignSpec.load(path) == spec


class TestExpand:
    def test_matrix_mirrors_serial_sweep_order(self):
        spec = campaign.CampaignSpec(name="s", apps=("LU", "Radix"),
                                     cores=(4, 8), chunks=1)
        cells = campaign.expand(spec)
        # per app: one baseline1p cell + cores x protocols
        assert len(cells) == 2 * (1 + 2 * 4)
        expected = [
            "LU/8/baseline1p/1",
            "LU/4/ScalableBulk/4", "LU/4/TCC/4", "LU/4/SEQ/4", "LU/4/BulkSC/4",
            "LU/8/ScalableBulk/8", "LU/8/TCC/8", "LU/8/SEQ/8", "LU/8/BulkSC/8",
            "Radix/8/baseline1p/1",
            "Radix/4/ScalableBulk/4", "Radix/4/TCC/4", "Radix/4/SEQ/4",
            "Radix/4/BulkSC/4",
            "Radix/8/ScalableBulk/8", "Radix/8/TCC/8", "Radix/8/SEQ/8",
            "Radix/8/BulkSC/8",
        ]
        assert [c.sweep_key for c in cells] == expected

    def test_seed_multiplies_the_matrix(self):
        spec = campaign.CampaignSpec(name="s", apps=("LU",), cores=(4,),
                                     protocols=("TCC",), chunks=1,
                                     seeds=(7, 9), baseline1p=False)
        cells = campaign.expand(spec)
        assert [c.seed for c in cells] == [7, 9]
        assert len({c.cell_key for c in cells}) == 2

    def test_specs_without_overrides_keep_their_cell_keys(self):
        """Stores written before the overrides axis keep resuming."""
        from repro.harness.sweep import QUICK_SWEEP
        quick = [f"{app}/8/{proto}/c1/sdefault" for app in ("Radix", "LU")
                 for proto in ("baseline1p/1", "ScalableBulk/8", "TCC/8",
                               "SEQ/8", "BulkSC/8")]
        assert [c.cell_key for c in campaign.expand(campaign.QUICK_SPEC)] \
            == quick
        sweep = [f"{app}/16/{proto}/c2/sdefault"
                 for app in ("Radix", "LU", "Barnes", "Canneal")
                 for proto in ("baseline1p/1", "ScalableBulk/16", "TCC/16",
                               "SEQ/16", "BulkSC/16")]
        assert [c.cell_key for c in campaign.expand(QUICK_SWEEP)] == sweep
        assert all(c.overrides == () for c in campaign.expand(QUICK_SWEEP))

    def test_overrides_point_suffixes_both_keys(self):
        spec = campaign.CampaignSpec(
            name="s", apps=("LU",), cores=(4,), protocols=("TCC",),
            baseline1p=False,
            overrides=({}, {"signature_bits": 512, "chunks": 3}))
        plain, point = campaign.expand(spec)
        assert plain.sweep_key == "LU/4/TCC/4"
        assert plain.cell_key == "LU/4/TCC/4/c2/sdefault"
        assert point.sweep_key == "LU/4/TCC/4/chunks=3,signature_bits=512"
        assert point.cell_key == \
            "LU/4/TCC/4/c3/sdefault/chunks=3,signature_bits=512"
        assert point.config().signature_bits == 512
        assert point.config() != plain.config()

    def test_cell_keys_distinguish_chunks(self):
        kw = dict(app="LU", n_cores=4, protocol="TCC", active_cores=None,
                  n_partitions=4, seed=None)
        a = campaign.CampaignCell(chunks=1, **kw)
        b = campaign.CampaignCell(chunks=2, **kw)
        assert a.sweep_key == b.sweep_key
        assert a.cell_key != b.cell_key


class TestRunParity:
    def test_campaign_records_match_serial_sweep(self, tmp_path):
        """The acceptance criterion: every campaign cell == a direct
        ``run_one`` of that cell byte-for-byte, modulo wall-clock fields."""
        spec = campaign.CampaignSpec(name="parity", apps=("LU",),
                                     cores=(4,), chunks=1)
        with ResultStore(tmp_path / "r.db") as store:
            report = campaign.run_campaign(spec, store,
                                           log=lambda *_: None)
            assert not report.failed and not report.skipped
            rows = {r.cell_key: r for r in store.query(KIND_SWEEP)}
        cells = campaign.expand(spec)
        assert set(rows) == {c.cell_key for c in cells}
        for cell in cells:
            direct = campaign.run_one(
                cell.app, cell.n_cores, ProtocolKind(cell.protocol),
                chunks=cell.chunks, active_cores=cell.active_cores,
                n_partitions=cell.n_partitions, seed=cell.seed)
            stored = rows[cell.cell_key]
            assert stored.series == cell.sweep_key
            assert json.dumps(strip_wall(stored.payload), sort_keys=True) \
                == json.dumps(strip_wall(direct), sort_keys=True), cell

    def test_second_run_skips_everything(self, tmp_path):
        spec = campaign.CampaignSpec(name="s", apps=("LU",), cores=(4,),
                                     protocols=("TCC",), chunks=1,
                                     baseline1p=False)
        with ResultStore(tmp_path / "r.db") as store:
            first = campaign.run_campaign(spec, store, log=lambda *_: None)
            assert len(first.ran) == 1
            second = campaign.run_campaign(spec, store, log=lambda *_: None)
            assert second.ran == []
            assert len(second.skipped) == 1

    def test_failed_cell_is_stored_and_not_rerun(self, tmp_path):
        spec = campaign.CampaignSpec(name="s", apps=("NoSuchApp",),
                                     cores=(4,), protocols=("TCC",),
                                     chunks=1, baseline1p=False)
        with ResultStore(tmp_path / "r.db") as store:
            report = campaign.run_campaign(spec, store, log=lambda *_: None)
            assert len(report.failed) == 1
            row = store.query(KIND_SWEEP, status=STATUS_FAILED)[0]
            assert "NoSuchApp" in row.error or row.error
            assert "Traceback" in row.traceback
            assert row.payload["app"] == "NoSuchApp"
            # failed rows dedupe too, unless rerun is requested
            again = campaign.run_campaign(spec, store, log=lambda *_: None)
            assert again.ran == [] and len(again.skipped) == 1
            rerun = campaign.run_campaign(spec, store, log=lambda *_: None,
                                          rerun_failed=True)
            assert len(rerun.failed) == 1


class TestCrashResume:
    def _completed(self, db: Path) -> set:
        with ResultStore(db, create=False) as store:
            return {r.cell_key for r in store.query(KIND_SWEEP,
                                                    status=STATUS_OK)}

    def test_sigkill_mid_campaign_resumes_with_zero_reruns(self, tmp_path):
        """Kill a campaign process dead mid-flight; the resume must re-run
        zero completed cells and the database must pass integrity_check."""
        db = tmp_path / "r.db"
        spec_doc = {"name": "crash", "apps": ["LU", "Radix"],
                    "cores": [4, 8], "chunks": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "store", "campaign",
             str(spec_path), "--store", str(db)],
            cwd=str(REPO), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # wait until at least two cells are durably checkpointed,
            # then kill the process without any chance to clean up
            deadline = time.time() + 120
            completed = set()
            while time.time() < deadline:
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it was killed; "
                                "matrix too small for this host")
                if db.exists():
                    try:
                        completed = self._completed(db)
                    except StoreError:
                        completed = set()
                if len(completed) >= 2:
                    break
                time.sleep(0.05)
            assert len(completed) >= 2, "no checkpoints appeared in time"
            try:
                proc.send_signal(signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - lost the race
                pass
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # the file a SIGKILL left behind must be a healthy database ...
        with ResultStore(db, create=False) as store:
            assert store.integrity_check() == "ok"
            survivors = {r.cell_key for r in store.query(KIND_SWEEP,
                                                         status=STATUS_OK)}
        # ... holding every checkpoint observed before the kill
        assert completed <= survivors

        # resume in-process: zero completed cells may re-run
        spec = campaign.CampaignSpec.from_json(spec_doc)
        with ResultStore(db) as store:
            report = campaign.run_campaign(spec, store, log=lambda *_: None)
            assert set(report.ran).isdisjoint(survivors)
            assert set(report.skipped) >= survivors
            assert not report.failed
            assert report.total == len(campaign.expand(spec))
            final = store.query(KIND_SWEEP, status=STATUS_OK)
            assert len(final) == report.total
            assert store.integrity_check() == "ok"
