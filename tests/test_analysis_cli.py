"""`python -m repro lint` CLI: exit codes, pragmas, baselines, --jobs."""

import inspect
import json
import re

import pytest

from repro.analysis.cli import PASS_RULES, main as lint_main, run_all
from repro.analysis.explore import invariants
from repro.analysis.findings import RULES, Baseline, repo_paths


class TestExitCodeMatrix:
    """code 0 = clean or fully suppressed; code 1 = fresh findings."""

    def test_repo_with_baseline_is_clean(self):
        assert lint_main([]) == 0

    def test_repo_with_races_and_baseline_is_clean(self, capsys):
        """The race pass runs by default and consumes every SB5xx entry
        of the repo baseline."""
        assert lint_main([]) == 0
        assert "stale baseline entry" not in capsys.readouterr().out

    def test_races_without_baseline_fails(self):
        assert lint_main(["--no-baseline"]) == 1

    def test_non_races_passes_are_source_clean(self):
        """SB304 lives in inline pragmas and SB004 is resolved by the
        piggyback model: only the race pass needs the baseline."""
        assert lint_main(["--no-baseline",
                          "--select", "SB0,SB2,SB3,SB6"]) == 0

    def test_rules_filter_scopes_the_gate(self):
        assert lint_main(["--no-baseline", "--select", "SB2"]) == 0
        assert lint_main(["--no-baseline", "--select", "SB50"]) == 1


class TestJsonGolden:
    def payload(self, capsys, *args):
        lint_main(["--format", "json", *args])
        return json.loads(capsys.readouterr().out)

    def test_shape_and_counts(self, capsys):
        payload = self.payload(capsys, "--no-baseline")
        assert {"findings", "suppressed", "stale_baseline_keys",
                "pragma_suppressed"} <= set(payload)
        assert payload["suppressed"] == 0
        assert payload["pragma_suppressed"] > 0          # the SB304 pragmas
        assert len(payload["findings"]) == 2             # SB504 tombstones
        for f in payload["findings"]:
            assert {"code", "path", "anchor", "message", "why"} <= set(f)
            assert f["code"].startswith("SB5") or not f["code"]

    def test_findings_sorted_by_code_path_anchor(self, capsys):
        """The merged report is ordered by (code, path, anchor) — the same
        total order regardless of --jobs or pass scheduling."""
        payload = self.payload(capsys, "--no-baseline")
        got = [(f["code"], f["path"], f["anchor"])
               for f in payload["findings"]]
        assert got == sorted(got)

    def test_suppressed_run_reports_counts_only(self, capsys):
        payload = self.payload(capsys)
        assert payload["findings"] == []
        assert payload["suppressed"] > 0


class TestBaselineRoundTrip:
    def test_write_baseline_preserves_justifications(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        assert lint_main(["--write-baseline",
                          "--baseline", str(path)]) == 0
        first = Baseline.load(path)
        assert first.keys, "expected SB5xx entries"
        # hand-edit one justification, as a reviewer would
        chosen = sorted(first.keys)[0]
        text = path.read_text().replace(
            f"{chosen}  TODO: justify this entry",
            f"{chosen}  reviewed: per-cid entries are isolated")
        path.write_text(text)
        # regenerate: the hand-written justification must survive
        assert lint_main(["--write-baseline",
                          "--baseline", str(path)]) == 0
        again = Baseline.load(path)
        assert again.justifications[chosen] == \
            "reviewed: per-cid entries are isolated"
        others = [k for k in again.keys if k != chosen]
        assert all("TODO" in again.justifications[k] for k in others)
        assert lint_main(["--baseline", str(path)]) == 0

    def test_repo_baseline_round_trips_unchanged(self, tmp_path):
        """Rendering the real baseline back preserves every justification."""
        _, repo_root = repo_paths()
        live = Baseline.load(repo_root / "lint-baseline.txt")
        out = tmp_path / "b.txt"
        from repro.analysis.races import lint_races
        out.write_text(Baseline.render(lint_races(), live.justifications))
        rendered = Baseline.load(out)
        assert rendered.keys == live.keys
        assert all(rendered.justifications[k] == live.justifications[k]
                   for k in live.keys)

    def test_stale_sb5xx_keys_ignored_without_races(self, capsys):
        """The repo baseline carries SB5xx entries; a run that selects
        away the race pass must not report them stale."""
        assert lint_main(["--select", "SB2,SB3"]) == 0
        assert "stale baseline entry" not in capsys.readouterr().out


class TestSelect:
    """--select <prefix>: one pass runs and baselines in isolation."""

    def test_select_flows_is_clean(self):
        assert lint_main(["--select", "SB6"]) == 0

    def test_select_races_uses_baseline(self):
        assert lint_main(["--select", "SB5"]) == 0
        assert lint_main(["--no-baseline", "--select", "SB5"]) == 1

    def test_select_filters_within_a_pass(self, capsys):
        lint_main(["--format", "json", "--no-baseline", "--select", "SB504"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
        assert all(f["code"] == "SB504" for f in payload["findings"])

    def test_select_no_match_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--select", "SB9"])
        assert exc.value.code == 2

    def test_unselected_baseline_entries_not_stale(self, capsys):
        """SB5xx baseline entries must not be stale under --select SB6."""
        assert lint_main(["--select", "SB6"]) == 0
        assert "stale baseline entry" not in capsys.readouterr().out

    def test_select_write_baseline_keeps_other_passes(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        assert lint_main(["--write-baseline",
                          "--baseline", str(path)]) == 0
        before = Baseline.load(path)
        assert any(k.startswith("SB5") for k in before.keys)
        # rewriting only the flows slice must not drop the SB5xx entries
        assert lint_main(["--select", "SB6", "--write-baseline",
                          "--baseline", str(path)]) == 0
        after = Baseline.load(path)
        assert after.keys == before.keys
        assert after.justifications == before.justifications


class TestParallelLint:
    def test_jobs_produce_identical_findings(self):
        serial = run_all(jobs=1)
        fanned = run_all(jobs=3)
        assert [f.key for f in serial] == [f.key for f in fanned]

    def test_jobs_flag_exits_clean(self):
        assert lint_main(["--jobs", "2"]) == 0


class TestPkgDirOverride:
    def test_pkg_dir_matches_default(self, capsys):
        pkg_dir, _ = repo_paths()
        lint_main(["--format", "json", "--no-baseline"])
        default = json.loads(capsys.readouterr().out)
        lint_main(["--format", "json", "--no-baseline",
                   "--pkg-dir", str(pkg_dir)])
        overridden = json.loads(capsys.readouterr().out)
        assert default["findings"] == overridden["findings"]
        assert default["pragma_suppressed"] == overridden["pragma_suppressed"]

    def test_pkg_dir_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            lint_main(["--help"])
        assert "--pkg-dir" not in capsys.readouterr().out


class TestDefaultPasses:
    def test_every_pass_runs_by_default(self, monkeypatch):
        import repro.analysis.cli as cli
        ran = []
        monkeypatch.setattr(cli, "_run_pass",
                            lambda payload: ran.append(payload[0]) or [])
        assert lint_main(["--no-baseline"]) == 0
        assert ran == ["group", "determinism", "races", "flows"]

    @pytest.mark.parametrize("name", ["races", "flows"])
    def test_per_pass_opt_in_flags_are_gone(self, capsys, name):
        """Passes are narrowed with --select only; the old per-pass
        opt-in flags are usage errors."""
        with pytest.raises(SystemExit):
            lint_main(["--help"])
        assert f"--{name}" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            lint_main([f"--{name}"])
        assert exc.value.code == 2

    def test_handler_coverage_is_source_clean(self):
        assert lint_main(["--no-baseline", "--select", "SB0"]) == 0


class TestExplain:
    def test_explain_covers_all_rule_families(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in ("SB002", "SB004", "SB201", "SB301", "SB304",
                     "SB502", "SB504",
                     "SB601", "SB602", "SB603", "SB604"):
            assert code in out, code

    def test_rule_catalogue_matches_the_emitting_passes(self):
        """``RULES`` is exactly the lint passes' codes plus the SB4xx
        codes explore's invariants raise: a retired code leaves no
        dangling ``--explain`` entry and no pass emits an unlisted one."""
        explore = set(re.findall(r'"(SB4\d\d)"',
                                 inspect.getsource(invariants)))
        assert explore
        owned = {code for codes in PASS_RULES.values() for code in codes}
        assert set(RULES) == owned | explore
