"""The ``python -m repro lint`` gate: exit codes, baseline, CLI plumbing."""

import json
import shutil
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.cli import main as lint_main


class TestGate:
    def test_repo_lints_clean_with_baseline(self):
        """The headline acceptance criterion: exit 0 on the repo."""
        assert lint_main([]) == 0

    def test_known_findings_exist_without_baseline(self, capsys):
        """The baseline is not vacuous: suppressing nothing fails the gate.

        The group/determinism/flow passes are clean at source level
        (SB304 moved to inline pragmas, SB004 resolved by the piggyback
        model), so the live baseline entries are the SB5xx race findings.
        """
        assert lint_main(["--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "SB5" in out and "why:" in out

    def test_json_format(self, capsys):
        lint_main(["--format", "json", "--no-baseline"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == 0
        assert all({"code", "path", "anchor", "message", "why"}
                   <= set(f) for f in payload["findings"])

    def test_rules_filter(self, capsys):
        rc = lint_main(["--no-baseline", "--rules", "SB2"])
        # the group table is clean: filtering to SB2xx leaves nothing
        assert rc == 0

    def test_write_and_reuse_baseline(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        args = ["--baseline", str(path)]
        assert lint_main(["--write-baseline", *args]) == 0
        assert path.exists() and "SB5" in path.read_text()
        assert lint_main(args) == 0

    def test_stale_baseline_entry_warns_but_passes(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        lint_main(["--write-baseline", "--baseline", str(path)])
        with path.open("a") as fh:
            fh.write("SB999 src/repro/nonexistent.py::gone\n")
        assert lint_main(["--baseline", str(path)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_explain_lists_rules(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in ("SB002", "SB201", "SB301", "SB304", "SB601"):
            assert code in out


class TestCliWiring:
    def test_main_module_delegates(self, capsys):
        assert repro_main(["lint", "--explain"]) == 0
        assert "SB002" in capsys.readouterr().out

    def test_lint_in_help(self, capsys):
        with pytest.raises(SystemExit):
            repro_main(["--help"])
        assert "lint" in capsys.readouterr().out


class TestExternalLinters:
    """ruff/mypy ride the same CI job; exercised only where installed."""

    @pytest.mark.skipif(shutil.which("ruff") is None,
                        reason="ruff not installed in this environment")
    def test_ruff_clean_on_analysis_package(self):
        proc = subprocess.run(
            ["ruff", "check", "src/repro/analysis"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None,
                        reason="mypy not installed in this environment")
    def test_mypy_catches_falsy_bool_regression(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from typing import Sequence\n"
            "def is_last(order: Sequence[int], d: int) -> bool:\n"
            "    return order and order[-1] == d\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", str(bad)],
            capture_output=True, text=True)
        assert proc.returncode != 0, "mypy --strict should reject this"
