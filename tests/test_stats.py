"""Tests for metrics collection: attempts, bottleneck ratio, histograms."""

from collections import Counter

import pytest

from repro.harness.experiments import (
    dirs_distribution, dirs_percentages, mean_latency,
)
from repro.stats.metrics import AttemptPhase, MachineStats


def histogram(values):
    """A ``{value: count}`` histogram, the shape MachineStats and the
    campaign records keep."""
    return Counter(values)


class TestHistogram:
    """The ``{value: count}`` histograms behind Figures 11-13: the
    running means MachineStats keeps and the figure reducers' views."""

    def test_mean(self):
        s = MachineStats()
        for v in (1, 2, 3):
            s.record_commit(v, 0, n_dirs=v, n_write_dirs=0, latency=v,
                            total_latency=v, retries=0)
        assert s.mean_commit_latency() == 2.0
        assert s.mean_dirs_per_commit() == 2.0
        assert mean_latency(s.commit_latency_hist) == 2.0

    def test_percentages_with_overflow(self):
        pct = dirs_percentages(histogram((0, 1, 1, 20)))
        assert pct[0] == 25.0
        assert pct[1] == 50.0
        assert pct["more"] == 25.0
        assert sum(pct.values()) == pytest.approx(100.0)

    def test_empty_histogram(self):
        s = MachineStats()
        assert s.mean_commit_latency() == 0.0
        assert s.mean_dirs_per_commit() == 0.0
        assert mean_latency(s.commit_latency_hist) == 0.0
        pct = dirs_percentages(s.dirs_per_commit_hist)
        assert pct["more"] == 0.0
        assert sum(pct.values()) == 0.0

    def test_distribution_percentages(self):
        # the Figs. 11/12 reducer reads the JSON-keyed histogram of the
        # ScalableBulk record on the largest machine
        records = {"X/4/ScalableBulk/4": {"n_cores": 4, "active_cores": 4,
                                          "dirs_hist": {"1": 2, "2": 1}}}
        pct = dirs_distribution(records, ["X"])["X"]
        assert pct[1] == pytest.approx(66.667, abs=0.01)
        assert sum(pct.values()) == pytest.approx(100.0)
        assert list(pct) == list(range(15)) + ["more"]


class TestAttemptBookkeeping:
    def test_commit_record_roundtrip(self):
        s = MachineStats()
        s.record_commit("c", 0, n_dirs=3, n_write_dirs=2, latency=100,
                        total_latency=150, retries=1)
        assert s.n_commits == 1
        assert s.mean_commit_latency() == 100
        assert s.mean_dirs_per_commit() == 3
        assert s.mean_read_only_dirs_per_commit() == 1

    def test_bottleneck_sample_taken_at_formation(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_started("b", 0)
        s.attempt_group_formed("a")
        assert len(s.bottleneck_samples) == 1
        forming, committing = s.bottleneck_samples[0]
        assert committing == 1      # "a" just formed
        assert len(forming) == 1    # "b" still forming

    def test_bottleneck_excludes_failed_attempts(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_started("b", 0)
        s.attempt_group_formed("a")  # sample: b forming, a committing
        s.attempt_finished("b", success=False)
        s.attempt_finished("a", success=True)
        assert s.bottleneck_ratio() == 0.0  # b failed -> excluded

    def test_bottleneck_excludes_unresolved_attempts(self):
        # the retrospective exclusion rule: an attempt still unresolved
        # when the run ends never resolved to success, so it must not
        # count toward the numerator
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_started("b", 0)
        s.attempt_group_formed("a")  # sample: b forming, a committing
        s.attempt_finished("a", success=True)
        # "b" never finishes: the run was cut off mid-formation
        assert s.bottleneck_ratio() == 0.0

    def test_bottleneck_mixed_resolved_and_unresolved(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_started("b", 0)
        s.attempt_started("c", 0)
        s.attempt_group_formed("a")  # sample: {b, c} forming, a committing
        s.attempt_finished("b", success=True)
        s.attempt_finished("a", success=True)
        # "c" unresolved -> only "b" counts: ratio 1/1
        assert s.bottleneck_ratio() == 1.0

    def test_bottleneck_counts_successful_forming(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_started("b", 0)
        s.attempt_group_formed("a")
        s.attempt_finished("b", success=True)
        s.attempt_finished("a", success=True)
        assert s.bottleneck_ratio() == 1.0

    def test_queue_probe_overrides_phase_count(self):
        s = MachineStats()
        s.queue_probe = lambda: 7
        s.attempt_started("a", 0)
        s.attempt_group_formed("a")
        assert s.queue_samples == [7]

    def test_queued_phase_counted_without_probe(self):
        s = MachineStats()
        s.attempt_started("q", 0, queued=True)
        s.attempt_started("a", 0)
        s.attempt_group_formed("a")
        assert s.queue_samples == [1]

    def test_failures_counted(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_finished("a", success=False)
        assert s.commit_failures == 1

    def test_finished_attempts_leave_live_sets(self):
        s = MachineStats()
        s.attempt_started("a", 0)
        s.attempt_group_formed("a")
        s.attempt_finished("a", success=True)
        assert not s._live_by_ctag
        for phase in AttemptPhase:
            assert not s._live_by_phase[phase]

    def test_mean_queue_length(self):
        s = MachineStats()
        s.queue_samples.extend([0, 2, 4])
        assert s.mean_queue_length() == 2.0
