"""Tests for metrics collection: attempts, bottleneck ratio, histograms."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.experiments import (
    dirs_distribution, dirs_percentages, latency_buckets, latency_percentile,
    mean_latency,
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

    def test_percentile(self):
        h = histogram(range(1, 101))
        assert latency_percentile(h, 50) == 50
        assert latency_percentile(h, 90) == 90

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
        assert latency_percentile(s.commit_latency_hist, 50) == 0
        pct = dirs_percentages(s.dirs_per_commit_hist)
        assert pct["more"] == 0.0
        assert sum(pct.values()) == 0.0

    def test_percentile_single_sample(self):
        h = histogram([42])
        for p in (0.1, 1, 50, 99, 100):
            assert latency_percentile(h, p) == 42

    def test_percentile_all_equal_samples(self):
        h = histogram([7] * 10)
        for p in (1, 50, 100):
            assert latency_percentile(h, p) == 7

    def test_percentile_extremes(self):
        h = histogram(range(1, 101))
        assert latency_percentile(h, 100) == 100
        assert latency_percentile(h, 0.5) == 1  # smallest covering 0.5%

    def test_percentile_zero_returns_smallest_value(self):
        assert latency_percentile(histogram((5, 9, 17)), 0) == 5

    def test_percentile_hundred_returns_largest_value(self):
        assert latency_percentile(histogram((5, 9, 17)), 100) == 17

    def test_percentile_single_bucket_many_samples(self):
        h = histogram([3] * 1000)
        for p in (0, 25, 50, 75, 100):
            assert latency_percentile(h, p) == 3

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
           st.floats(0, 100))
    def test_percentile_properties(self, values, p):
        h = histogram(values)
        q = latency_percentile(h, p)
        # result is always an observed value within [min, max]
        assert q in values
        assert min(values) <= q <= max(values)
        # the defining property: at least p% of samples are <= q
        at_most = sum(1 for v in values if v <= q)
        assert at_most >= len(values) * p / 100.0
        # boundaries pin to the extremes
        assert latency_percentile(h, 0) == min(values)
        assert latency_percentile(h, 100) == max(values)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
    def test_percentile_monotone_in_p(self, values):
        h = histogram(values)
        qs = [latency_percentile(h, p) for p in (0, 10, 25, 50, 75, 90, 100)]
        assert qs == sorted(qs)

    def test_bucketize(self):
        buckets = latency_buckets(histogram((5, 55, 55, 1000)), width=50,
                                  n_buckets=4)
        assert buckets[0] == (0, 1)
        assert buckets[1] == (50, 2)
        assert buckets[3] == (150, 1)  # clamped to last bucket

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
