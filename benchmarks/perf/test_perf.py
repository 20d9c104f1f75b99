"""Tests of the perf benchmark, at 1 chunk per partition.

Run with ``python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

BENCH = run.load_benchmark()


def _measure(name, trace, expected=None):
    return run.measure_timed(name, 2010, 0.0, trace,
                             expected=expected or {}, chunks=1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics_all_present_with_units(name):
    m = _measure(name, trace=False)
    rec = run.timed_record(m, False, BENCH)
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
    assert list(rec["metrics"]) == [p["name"] for p in BENCH["end_to_end"]]
    for spec in BENCH["end_to_end"]:
        got = rec["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] > 0
    assert len(m.setups) == run.SETUP_PROBES + len(m.runs)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_matches_untraced_and_shares_sum_to_100(name):
    m = _measure(name, trace=True)
    rec = run.timed_record(m, True, BENCH)
    assert rec["correct"], m.problems
    assert m.traced["digest"] == m.runs[0]["digest"]
    assert list(rec["metrics"]) == [p["name"] for p in BENCH["per_layer"]]
    for spec in BENCH["per_layer"]:
        got = rec["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float)), spec["name"]
    shares = sum(v["value"] for k, v in rec["metrics"].items()
                 if k.endswith(".share"))
    assert shares == pytest.approx(100.0, abs=1.0)
    trace = json.loads(Path(run.TRACE_DIR, f"{name}-seed2010.json")
                       .read_text())
    assert {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"} == {
        "workload build", "machine build", "prewarm", "simulate"}


def test_corrupted_expected_digest_fails_the_run():
    name = "radix-bulksc-32"
    m = _measure(name, trace=False, expected={name: {"2010": "0" * 64}})
    rec = run.timed_record(m, False, BENCH)
    assert not rec["correct"]
    assert rec["failed"] == rec["attempted"] >= 1
    assert any("digest" in p for p in m.problems)


def test_missing_entry_point_nulls_its_layer(monkeypatch, tmp_path):
    from repro.core.cst import CstEntry
    from repro.engine.events import Simulator

    original_run = Simulator.run
    # BulkSC has no CST, so the simulation runs without the method
    monkeypatch.delattr(CstEntry, "incompatible_with")
    with pytest.warns(RuntimeWarning, match="incompatible_with"):
        rec = child.measure("Radix", 32, "BulkSC", 1, 2010,
                            trace_file=str(tmp_path / "t.json"))
    layers = rec["layers"]
    cst = {k: v for k, v in layers.items() if k.startswith("core.cst.")}
    assert cst and all(v is None for v in cst.values())
    assert layers["engine.share"] > 0
    assert sum(v for k, v in layers.items()
               if k.endswith(".share") and v is not None) == pytest.approx(
                   100.0, abs=1.0)
    assert Simulator.run is original_run   # the tracer unwrapped


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "radix-sb-64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("a,b,better,want", [
    ([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", "better"),
    ([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", "worse"),
    ([10, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "same"),
    ([10, 14, 6], [9, 13, 7], "lower", "unresolved"),
    ([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", "better"),
])
def test_compare_verdicts(a, b, better, want):
    assert run.verdict(a, b, better, 0.1) == want
