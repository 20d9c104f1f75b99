"""Smoke tests: every example script runs end-to-end on a tiny machine."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py", "LU", "4")
    assert "Execution-time breakdown" in out
    assert "Useful" in out


def test_protocol_comparison_runs():
    out = run_example("protocol_comparison.py", "LU", "4")
    for proto in ("ScalableBulk", "TCC", "SEQ", "BulkSC"):
        assert proto in out


def test_signature_playground_runs():
    out = run_example("signature_playground.py")
    assert "no-false-negative check passed" in out


def test_oci_ablation_runs():
    out = run_example("oci_ablation.py", "LU", "4")
    assert "OCI" in out


def test_custom_trace_runs():
    out = run_example("custom_trace.py")
    assert "chunks committed" in out


def test_debug_timeline_runs():
    out = run_example("debug_timeline.py")
    assert "timeline for" in out
    assert "commit_complete" in out


@pytest.mark.slow
def test_radix_commit_storm_runs():
    out = run_example("radix_commit_storm.py")
    assert "directories per commit" in out


@pytest.mark.slow
def test_paper_figures_runs():
    out = run_example("paper_figures.py", "4")
    assert "Figure 7" in out and "Figure 13" in out
