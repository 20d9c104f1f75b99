"""Tests for the bounded streaming metrics layer (repro.obs.metrics)."""

import io
import json
import os

import pytest

from repro.config import SystemConfig
from repro.harness.runner import run_app
from repro.obs.metrics import (
    RATE_BOUNDS,
    SCHEMA,
    CounterMetric,
    FixedHistogram,
    MetricsRegistry,
    MetricsStream,
    validate_metrics_jsonl,
)
from repro.obs.profile import make_profiler


class TestCounter:
    def test_increments(self):
        c = CounterMetric("events")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            CounterMetric("events").inc(-1)


class TestFixedHistogram:
    def test_rejects_empty_or_unsorted_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            FixedHistogram("h", [])
        with pytest.raises(ValueError, match="strictly increasing"):
            FixedHistogram("h", [10, 10])

    def test_bucket_placement_on_edges(self):
        h = FixedHistogram("h", [10, 20])
        h.observe(10)      # on the first edge -> bucket 0 (values <= 10)
        h.observe(10.5)    # (10, 20] -> bucket 1
        h.observe(20)
        h.observe(25)      # past the last edge -> overflow bucket
        assert h.bucket_counts == [1, 2, 1]

    def test_summary_stats(self):
        h = FixedHistogram("h", [100])
        for v in (2, 4, 12):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(6.0)
        assert (h.min, h.max) == (2, 12)

    def test_memory_is_fixed(self):
        h = FixedHistogram("h", RATE_BOUNDS)
        buckets = len(h.bucket_counts)
        for v in range(10_000):
            h.observe(v)
        assert len(h.bucket_counts) == buckets == len(RATE_BOUNDS) + 1

    def test_to_json_roundtrips(self):
        h = FixedHistogram("h", [1, 2])
        h.observe(1.5)
        doc = h.to_json()
        assert doc["buckets"] == [0, 1, 0]
        json.dumps(doc)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        assert reg.size() == (1, 1)

    def test_snapshot_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(3)
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 3


class TestStream:
    def _stream(self, interval=100, **kw):
        sink = io.StringIO()
        return MetricsStream(sink, interval, registry=MetricsRegistry(),
                             **kw), sink

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            MetricsStream(io.StringIO(), 0)

    def test_header_then_snapshots_validate(self):
        stream, sink = self._stream(provenance={"git_rev": "abc"})
        stream.registry.counter("chunks").inc(7)
        assert not stream.maybe(50, 1_000)      # below first boundary
        assert stream.maybe(120, 2_000)
        stream.close(300, 3_000)
        lines = sink.getvalue().splitlines()
        assert validate_metrics_jsonl(lines) == []
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["git_rev"] == "abc"
        snap = json.loads(lines[1])
        assert snap["counters"]["chunks"] == 7
        assert snap["host_elapsed_ns"] == 0     # first reading anchors

    def test_interval_rate_histogram_after_second_snapshot(self):
        stream, _ = self._stream()
        stream.take(100, 0)
        stream.take(200, 10_000_000)            # 100 cycles / 10ms
        hist = stream.registry.histogram("interval_cycles_per_sec")
        assert hist.count == 1
        assert hist.min == pytest.approx(10_000.0)

    def test_next_time_skips_past_gaps(self):
        stream, _ = self._stream(interval=100)
        stream.take(950, 0)                     # jumped many boundaries
        assert stream.next_time == 1000

    def test_writes_and_forgets_unless_keep(self):
        stream, _ = self._stream()
        stream.take(100, 0)
        assert stream.snapshots == []
        kept, _ = self._stream(keep=True)
        kept.take(100, 0)
        assert len(kept.snapshots) == 1

    def test_close_is_idempotent(self):
        stream, sink = self._stream()
        stream.close(100, 0)
        stream.close(200, 1)
        assert stream.snapshots_written == 1
        assert validate_metrics_jsonl(sink.getvalue().splitlines()) == []


class TestValidator:
    def test_empty_document(self):
        assert validate_metrics_jsonl([]) == ["empty document"]

    def test_missing_header_and_bad_schema(self):
        snap = json.dumps({"schema": SCHEMA, "kind": "snapshot", "seq": 0,
                           "sim_time": 1, "host_elapsed_ns": 0,
                           "counters": {}, "histograms": {}})
        assert any("header" in e for e in validate_metrics_jsonl([snap]))
        assert any("schema" in e
                   for e in validate_metrics_jsonl(['{"schema": "x"}']))

    def test_non_increasing_seq(self):
        header = json.dumps({"schema": SCHEMA, "kind": "header",
                             "interval": 10})
        snap = json.dumps({"schema": SCHEMA, "kind": "snapshot", "seq": 0,
                           "sim_time": 1, "host_elapsed_ns": 0,
                           "counters": {}, "histograms": {}})
        assert any("seq" in e
                   for e in validate_metrics_jsonl([header, snap, snap]))


class TestEndToEnd:
    def test_profiled_run_streams_bounded_metrics(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        prof = make_profiler(SystemConfig(n_cores=4),
                             metrics_interval=5_000, metrics_out=str(out))
        run_app("Radix", n_cores=4, chunks_per_partition=2,
                instruments=[prof])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert validate_metrics_jsonl(lines) == []
        assert prof.stream.snapshots_written >= 1
        counters, histograms = prof.stream.registry.size()
        assert counters + histograms <= 8    # bounded, not per-sample

    @pytest.mark.skipif(not os.environ.get("REPRO_LONG_SMOKE"),
                        reason="set REPRO_LONG_SMOKE=1 for the >=50k-chunk "
                               "bounded-memory smoke (several minutes)")
    def test_long_run_memory_stays_bounded(self, tmp_path):
        # Fixed footprint (4 partitions), long run (50k committed chunks):
        # memory must scale with the footprint, not the run length.
        out = tmp_path / "metrics.jsonl"
        prof = make_profiler(SystemConfig(n_cores=4),
                             metrics_interval=1_000_000,
                             metrics_out=str(out))
        result = run_app("Radix", n_cores=4, n_partitions=4,
                         chunks_per_partition=12_500, instruments=[prof])
        assert result.chunks_committed >= 50_000
        lines = out.read_text(encoding="utf-8").splitlines()
        assert validate_metrics_jsonl(lines) == []
        assert prof.stream.snapshots_written >= 2
        assert prof.stream.snapshots == []          # wrote and forgot
        counters, histograms = prof.stream.registry.size()
        assert counters + histograms <= 8
