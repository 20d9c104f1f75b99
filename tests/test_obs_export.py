"""Tests for the trace exporters: JSONL, CSV and Perfetto round-trip."""

import csv
import json

from repro.harness.runner import run_app
from repro.obs.bus import InstrumentationBus
from repro.obs.export import (
    PID_COMMIT,
    PID_DIRS,
    PID_EXEC,
    PID_GAUGES,
    PID_PROFILE,
    profile_track_events,
    to_csv,
    to_jsonl,
    to_perfetto,
    to_perfetto_profile,
    validate_perfetto,
)

import pytest


@pytest.fixture(scope="module")
def traced_run():
    bus = InstrumentationBus()
    result = run_app("Radix", n_cores=4, chunks_per_partition=2,
                     instruments=[bus])
    return bus, result


class TestFlatExports:
    def test_jsonl_accepts_path_and_sorts_keys(self, traced_run, tmp_path):
        bus, _ = traced_run
        out = tmp_path / "events.jsonl"      # pathlib.Path, not str
        n = to_jsonl(bus, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == n == len(bus.events)
        for line in lines[:50]:
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)
            assert {"time", "kind", "src"} <= set(parsed)

    def test_csv_columns(self, traced_run, tmp_path):
        bus, _ = traced_run
        out = tmp_path / "events.csv"
        n = to_csv(bus, out)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "kind", "src", "ctag", "fields"]
        assert len(rows) == n + 1
        json.loads(rows[1][4])  # payload column is valid JSON


class TestPerfettoRoundTrip:
    def test_written_file_reparses_and_validates(self, traced_run, tmp_path):
        bus, _ = traced_run
        out = tmp_path / "trace.json"
        doc = to_perfetto(bus, out)
        reread = json.loads(out.read_text(encoding="utf-8"))
        assert reread["traceEvents"] == doc["traceEvents"]
        assert validate_perfetto(reread) == []

    def test_ts_monotone_per_track(self, traced_run):
        bus, _ = traced_run
        doc = to_perfetto(bus)
        last = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "M":
                continue
            key = (ev["pid"], ev["tid"])
            assert ev["ts"] >= last.get(key, 0), key
            last[key] = ev["ts"]

    def test_per_core_and_per_directory_tracks(self, traced_run):
        bus, result = traced_run
        doc = to_perfetto(bus)
        threads = {(e["pid"], e["tid"]): e["args"]["name"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        for core in range(result.n_cores):
            assert threads.get((PID_EXEC, core)) == f"core{core}"
            assert threads.get((PID_COMMIT, core)) == f"core{core}"
        dir_tracks = {tid for pid, tid in threads if pid == PID_DIRS}
        assert dir_tracks  # at least one directory was active

    def test_commit_slices_cover_every_commit(self, traced_run):
        bus, result = traced_run
        doc = to_perfetto(bus)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == PID_COMMIT
                  and e["args"].get("outcome") == "committed"]
        assert len(slices) == result.chunks_committed
        assert all(e["dur"] >= 0 for e in slices)

    def test_empty_bus_exports_valid_doc(self):
        doc = to_perfetto(InstrumentationBus())
        assert doc["traceEvents"] == []
        assert validate_perfetto(doc) == []


def _wrapped_bus(capacity=4, samples=10):
    """A bus whose one gauge ring wrapped (dropped samples)."""
    bus = InstrumentationBus(gauge_capacity=capacity)
    for t in range(samples):
        bus.gauges.sample("sim_queue", t * 10, float(t))
    return bus


def _snapshots(n=3, scopes=("engine.dispatch", "noc.transit")):
    """Synthetic kept metrics snapshots (MetricsStream keep=True shape)."""
    return [{"kind": "snapshot", "seq": i, "sim_time": 1000 * (i + 1),
             "host_elapsed_ns": 5_000_000 * i,
             "profile": {name: {"count": 10 * (i + 1),
                                "total_ns": 2_000_000 * (i + 1),
                                "self_ns": 1_000_000 * (i + 1)}
                         for name in scopes}}
            for i in range(n)]


class TestGaugeTruncation:
    def test_wrapped_ring_announces_truncation_in_perfetto(self):
        bus = _wrapped_bus(capacity=4, samples=10)
        doc = to_perfetto(bus)
        assert validate_perfetto(doc) == []
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["pid"] == PID_GAUGES]
        assert len(instants) == 1
        ev = instants[0]
        assert ev["name"] == "TRUNCATED sim_queue"
        assert ev["args"]["dropped_samples"] == 6
        assert ev["args"]["total_samples"] == 10
        # the marker sits at the first retained sample, not before it
        first_c = next(e for e in doc["traceEvents"]
                       if e["ph"] == "C" and e["pid"] == PID_GAUGES)
        assert ev["ts"] == first_c["ts"]
        assert (doc["traceEvents"].index(ev)
                < doc["traceEvents"].index(first_c))

    def test_unwrapped_ring_has_no_truncation_marker(self):
        bus = _wrapped_bus(capacity=16, samples=10)
        assert not [e for e in to_perfetto(bus)["traceEvents"]
                    if e["ph"] == "i" and e["pid"] == PID_GAUGES]

    def test_csv_appends_gauge_truncated_rows(self, tmp_path):
        bus = _wrapped_bus(capacity=4, samples=10)
        out = tmp_path / "events.csv"
        n = to_csv(bus, out)
        assert n == len(bus.events)      # return value stays event count
        with open(out, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r[1] == "gauge_truncated"]
        assert len(rows) == 1
        fields = json.loads(rows[0][4])
        assert fields == {"capacity": 4, "dropped_samples": 6,
                          "total_samples": 10}


class TestProfileTracks:
    def test_tracks_and_interval_slices(self):
        events, tracks = profile_track_events(_snapshots())
        assert tracks[(PID_PROFILE, 0)] == "intervals"
        assert tracks[(PID_PROFILE, 1)] == "self ms: engine.dispatch"
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2          # N snapshots -> N-1 intervals
        assert slices[0]["args"]["cycles_per_sec"] > 0
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 6        # 3 snapshots x 2 scopes

    def test_empty_and_headerless_snapshots(self):
        assert profile_track_events([]) == ([], {})
        # header lines (kind != snapshot) must be ignored
        events, tracks = profile_track_events([{"kind": "header"}])
        assert (events, tracks) == ([], {})

    def test_standalone_doc_validates_and_writes(self, tmp_path):
        out = tmp_path / "profile.json"
        doc = to_perfetto_profile(_snapshots(), out)
        assert validate_perfetto(doc) == []
        assert json.loads(out.read_text(encoding="utf-8")) == doc

    def test_to_perfetto_merges_profile_snapshots(self, traced_run):
        bus, _ = traced_run
        doc = to_perfetto(bus, profile_snapshots=_snapshots())
        assert validate_perfetto(doc) == []
        assert any(e["pid"] == PID_PROFILE and e["ph"] != "M"
                   for e in doc["traceEvents"])


class TestValidator:
    def test_rejects_missing_trace_events(self):
        assert validate_perfetto({}) == ["traceEvents missing or not a list"]

    def test_rejects_bad_ph_and_ts(self):
        doc = {"traceEvents": [
            {"ph": "Z", "pid": 1, "tid": 0, "name": "x", "ts": 0},
            {"ph": "i", "pid": 1, "tid": 0, "name": "x", "ts": -1},
        ]}
        errors = validate_perfetto(doc)
        assert any("bad ph" in e for e in errors)
        assert any("bad ts" in e for e in errors)

    def test_rejects_non_monotone_track(self):
        doc = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 0, "name": "a", "ts": 10, "s": "t"},
            {"ph": "i", "pid": 1, "tid": 0, "name": "b", "ts": 5, "s": "t"},
        ]}
        assert any("not monotone" in e for e in validate_perfetto(doc))
