"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_run_command(self, capsys):
        assert main(["run", "LU", "--cores", "4", "--chunks", "1"]) == 0
        out = capsys.readouterr().out
        assert "LU on 4 cores" in out
        assert "Useful" in out

    def test_run_with_protocol(self, capsys):
        assert main(["run", "LU", "--cores", "4", "--chunks", "1",
                     "--protocol", "seq"]) == 0
        assert "SEQ" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "LU", "--cores", "4", "--chunks", "1"]) == 0
        out = capsys.readouterr().out
        for proto in ("ScalableBulk", "TCC", "SEQ", "BulkSC"):
            assert proto in out

    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Radix" in out and "Facesim" in out
        assert out.count("splash2") == 11
        assert out.count("parsec") == 7

    def test_sweep_delegation(self, tmp_path, capsys):
        rc = main(["sweep", "--apps", "LU", "--cores", "4", "--chunks", "1",
                   "--json", str(tmp_path / "s.json"),
                   "--markdown", str(tmp_path / "m.md")])
        assert rc == 0
        assert (tmp_path / "m.md").exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LU", "--protocol", "mesi"])


class TestExploreCli:
    def test_explore_list(self, capsys):
        assert main(["explore", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cross3" in out and "drop-commit-nack" in out

    def test_explore_single_scenario_clean(self, capsys):
        assert main(["explore", "--scenario", "pair",
                     "--schedules", "10"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_explore_catches_mutation_and_replays(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["explore", "--mutate", "skip-w-intersection",
                     "--schedules", "40", "--save", str(trace)]) == 0
        assert "caught" in capsys.readouterr().out
        assert trace.exists()
        assert main(["explore", "--replay", str(trace)]) == 0

    def test_explore_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "--scenario", "nope"])

    def test_run_with_oracle_flag(self, capsys):
        assert main(["run", "LU", "--cores", "4", "--chunks", "1",
                     "--oracle"]) == 0
        assert "LU on 4 cores" in capsys.readouterr().out

    def test_run_oracle_on_other_protocol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "LU", "--cores", "4", "--chunks", "1",
                  "--protocol", "tcc", "--oracle"])
        assert exc.value.code == 2
        assert "ScalableBulk" in capsys.readouterr().err

    def test_compare_with_oracle_checks_scalablebulk_only(self, capsys):
        assert main(["compare", "Radix", "--cores", "8", "--chunks", "1",
                     "--oracle"]) == 0
        out = capsys.readouterr().out
        for proto in ("ScalableBulk", "TCC", "SEQ", "BulkSC"):
            assert proto in out
