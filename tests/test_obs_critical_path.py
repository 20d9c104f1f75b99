"""Tests for the commit critical-path analyzer.

Synthetic event streams pin the phase arithmetic and the outcome
classification; one real run cross-checks the analyzer's mean total
latency against the independently collected protocol statistics.
"""

import pytest

from repro.harness.runner import run_app
from repro.obs.bus import (
    COMMIT_COMPLETE,
    COMMIT_REQUEST,
    COMMIT_RETRY,
    GRAB_ADMIT,
    GROUP_FAILED,
    GROUP_FORMED,
    SQUASH,
    InstrumentationBus,
    ObsEvent,
)
from repro.obs.critical_path import (
    COMMITTED,
    FAILED,
    SQUASHED,
    UNRESOLVED,
    analyze_commit_paths,
    analyze_events,
)


def ev(time, kind, src, ctag, **fields):
    return ObsEvent(time, kind, src, ctag, fields)


def committed_stream(tag="T0", cid=None):
    """request@10 -> d0 admits@22 -> d1 admits@30 -> formed@35 -> done@50."""
    cid = cid or (tag, 0)
    return [
        ev(10, COMMIT_REQUEST, "core0", cid, core=0, dirs=[0, 1]),
        ev(22, GRAB_ADMIT, "dir0", cid, dir=0, next_dir=1),
        ev(30, GRAB_ADMIT, "dir1", cid, dir=1, next_dir=None),
        ev(35, GROUP_FORMED, "dir1", cid, dir=1, proc=0, order=[0, 1]),
        ev(50, COMMIT_COMPLETE, "core0", tag, core=0, n_dirs=2),
    ]


class TestPhaseArithmetic:
    def test_committed_path_phases(self):
        report = analyze_events(committed_stream())
        (p,) = report.paths
        assert p.outcome == COMMITTED
        assert p.request_latency == 12       # 10 -> first admit @22
        assert p.circulation_latency == 13   # 22 -> formed @35
        assert p.completion_latency == 15    # 35 -> done @50
        assert p.total_latency == 40
        assert [(h.dir_id, h.dwell) for h in p.hops] == [(0, 12), (1, 8)]
        assert p.formed_dir == 1

    def test_phases_sum_to_total(self):
        (p,) = analyze_events(committed_stream()).paths
        assert (p.request_latency + p.circulation_latency
                + p.completion_latency) == p.total_latency

    def test_baseline_attempt_has_no_hops(self):
        cid = ("T0", 0)
        report = analyze_events([
            ev(10, COMMIT_REQUEST, "core0", cid, core=0, dirs=[0]),
            ev(40, GROUP_FORMED, "arbiter", cid, dir=None, proc=0, order=[0]),
            ev(55, COMMIT_COMPLETE, "core0", "T0", core=0, n_dirs=1),
        ])
        (p,) = report.paths
        assert p.outcome == COMMITTED
        assert p.hops == []
        assert p.request_latency == 30       # runs to group formation
        assert p.circulation_latency is None
        assert p.completion_latency == 15
        assert p.formed_dir is None


class TestOutcomes:
    def test_failed_then_retried_attempt(self):
        first, second = ("T0", 0), ("T0", 1)
        events = [
            ev(10, COMMIT_REQUEST, "core0", first, core=0, dirs=[0, 1]),
            ev(20, GRAB_ADMIT, "dir0", first, dir=0, next_dir=1),
            ev(25, GROUP_FAILED, "dir1", first, dir=1, proc=0, genuine=True,
               leader_here=False),
            ev(28, COMMIT_RETRY, "core0", first, core=0),
        ] + committed_stream(cid=second)[:]
        report = analyze_events(events)
        by_cid = {p.cid: p for p in report.paths}
        assert by_cid[first].outcome == FAILED
        assert by_cid[second].outcome == COMMITTED

    def test_squashed_attempt(self):
        cid = ("T0", 0)
        report = analyze_events([
            ev(10, COMMIT_REQUEST, "core0", cid, core=0, dirs=[0]),
            ev(30, SQUASH, "core0", "T0", core=0, reason="conflict"),
        ])
        assert report.paths[0].outcome == SQUASHED

    def test_unresolved_attempt(self):
        cid = ("T0", 0)
        report = analyze_events([
            ev(10, COMMIT_REQUEST, "core0", cid, core=0, dirs=[0]),
        ])
        (p,) = report.paths
        assert p.outcome == UNRESOLVED
        assert p.total_latency is None


class TestReport:
    def test_summary_aggregates(self):
        events = committed_stream("T0") + [
            ObsEvent(e.time + 100, e.kind, e.src,
                     ("T1", 0) if isinstance(e.ctag, tuple) else "T1",
                     dict(e.fields))
            for e in committed_stream("T1")
        ]
        s = analyze_events(events).summary()
        assert s["attempts"] == 2
        assert s["outcomes"] == {COMMITTED: 2}
        assert s["mean_total"] == pytest.approx(40.0)
        assert (s["mean_request"] + s["mean_circulation"]
                + s["mean_completion"]) == pytest.approx(s["mean_total"])
        # hop 0's dwell belongs to the request phase, so only dir1 shows
        assert s["mean_hop_dwell_by_dir"] == {"dir1": pytest.approx(8.0)}

    def test_render_mentions_every_attempt(self):
        text = analyze_events(committed_stream()).render()
        assert "T0#0" in text
        assert "committed" in text

    def test_to_json_round_trips_through_summary(self):
        doc = analyze_events(committed_stream()).to_json()
        assert doc["summary"]["attempts"] == 1
        assert doc["paths"][0]["outcome"] == COMMITTED


class TestAgainstRealRun:
    def test_analyzer_matches_protocol_stats(self):
        bus = InstrumentationBus(record_messages=False)
        result = run_app("Radix", n_cores=4, chunks_per_partition=2,
                         instruments=[bus])
        report = analyze_commit_paths(bus)
        s = report.summary()
        assert s["outcomes"].get(COMMITTED, 0) == result.chunks_committed
        # the phase decomposition must reproduce the stats-side mean
        assert s["mean_total"] == pytest.approx(result.mean_commit_latency)
