"""Focused tests for the figure renderers behind EXPERIMENTS.md."""

from collections import Counter

import pytest

from repro.config import ProtocolKind
from repro.harness.experiments import (
    TRAFFIC_ORDER, BreakdownBar, DirsPerCommitRow, Figure7Result,
    dirs_percentages, mean_latency, normalize_traffic,
    render_bottleneck_ratio, render_commit_latency, render_dirs_per_commit,
    render_distribution, render_execution_time, render_traffic,
)


def bar(app="LU", proto=ProtocolKind.SCALABLEBULK, cores=4, norm=0.05,
        speedup=20.0):
    return BreakdownBar(app=app, protocol=proto, n_cores=cores,
                        normalized_time=norm, speedup=speedup,
                        useful=norm * 0.7, cache_miss=norm * 0.2,
                        commit=norm * 0.05, squash=norm * 0.05)


def rows(text):
    """The markdown table rows (``| ... |`` lines past the separator)."""
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    return lines[2:]


class TestBreakdownRendering:
    def test_rows_and_averages(self):
        fig = Figure7Result(bars=[bar(), bar(proto=ProtocolKind.TCC)],
                            baselines={"LU": 1000})
        text = render_execution_time(fig, "7", "SPLASH-2", 4)
        assert text.count("| LU |") == 2
        assert "* AVERAGE speedup, ScalableBulk @ 4p: **20.0**" in text
        assert "| LU | 4 | TCC | 0.0500 | 20.0 |" in text

    def test_missing_bars_skipped(self):
        fig = Figure7Result(bars=[bar()], baselines={"LU": 1000})
        text = render_execution_time(fig, "7", "SPLASH-2", 4)
        assert [r.split(" | ")[2] for r in rows(text)] == ["ScalableBulk"]

    def test_figure_helpers(self):
        fig = Figure7Result(bars=[bar(speedup=10), bar(app="FFT", speedup=30)],
                            baselines={})
        assert fig.average_speedup(ProtocolKind.SCALABLEBULK, 4) == 20
        with pytest.raises(KeyError):
            fig.bar("Radix", ProtocolKind.SCALABLEBULK, 4)

    def test_commit_fraction_average(self):
        fig = Figure7Result(bars=[bar()])
        frac = fig.average_commit_fraction(ProtocolKind.SCALABLEBULK, 4)
        assert frac == pytest.approx(0.05)


class TestOtherRenderers:
    def test_dirs_rows(self):
        rows_ = [DirsPerCommitRow("Radix", 64, 11.5, 10.9)]
        text = render_dirs_per_commit(rows_, "9", "SPLASH-2", 64)
        assert "| Radix | 64 | 11.50 | 10.90 | 0.60 |" in text

    def test_distribution_columns(self):
        dist = {"X": dirs_percentages(Counter({0: 2, 1: 1, 20: 1}))}
        text = render_distribution(dist, "11", "SPLASH-2", 64)
        header = next(ln for ln in text.splitlines()
                      if ln.startswith("| app |"))
        assert header.endswith("| 14 | more |")
        assert rows(text) == ["| X | 50 | 25 | " + "0 | " * 13 + "25 |"]

    def test_latency_histogram_bars(self):
        pooled = Counter([100] * 10 + [900])
        text = render_commit_latency({64: {ProtocolKind.SEQ: pooled}})
        assert "| SEQ | 173 | 153 |" in text  # (1000 + 900) / 11

    def test_latency_empty(self):
        text = render_commit_latency({64: {ProtocolKind.SEQ: Counter()}})
        assert "| SEQ | 0 | 153 |" in text
        assert mean_latency(Counter()) == 0.0

    def test_ratio_table_average_row(self):
        # the paper's bottleneck figures have no average bar, and neither
        # does EXPERIMENTS.md: one row per app, two decimals
        text = render_bottleneck_ratio({"A": {ProtocolKind.TCC: 2.0},
                                        "B": {ProtocolKind.TCC: 4.0}},
                                       "14", "SPLASH-2", 64)
        assert rows(text) == ["| A | 2.00 |", "| B | 4.00 |"]
        assert "AVERAGE" not in text

    def test_traffic_normalization_order(self):
        data = {"A": {ProtocolKind.TCC: {k: 10 for k in TRAFFIC_ORDER}}}
        text = render_traffic(data, "18", "SPLASH-2", 64)
        assert "| A | TCC | " + "20.0 | " * 5 + "100.0 |" in text

    def test_normalize_without_tcc_self_normalizes(self):
        data = {ProtocolKind.SCALABLEBULK: {"MemRd": 10, "Other": 0}}
        norm = normalize_traffic(data)
        assert sum(norm[ProtocolKind.SCALABLEBULK].values()) == \
            pytest.approx(100.0)

    def test_normalize_empty_counts(self):
        data = {ProtocolKind.TCC: {}}
        norm = normalize_traffic(data)
        assert sum(norm[ProtocolKind.TCC].values()) == 0.0
