"""Handler coverage (SB002-SB004, SB601 never-handled) from the flows pass:
the repo is clean and seeded handler defects are caught."""

from pathlib import Path

import repro
from repro.analysis import Baseline
from repro.analysis.findings import repo_paths
from repro.analysis.flows import extract_flow_automaton, lint_flows
from repro.analysis.flows.mutations import FLOW_MUTATIONS, overrides_for
from repro.network.message import PIGGYBACKED_TYPES, SCALABLEBULK_TABLE1_TYPES

PKG = Path(repro.__file__).resolve().parent
DIR_ENGINE = "core/directory_engine.py"
G_FAILURE_BRANCH = ("        elif mtype is MessageType.G_FAILURE:\n"
                    "            self._on_g_failure(msg)\n")


def load_baseline() -> Baseline:
    _, repo_root = repo_paths()
    return Baseline.load(repo_root / "lint-baseline.txt")


def without_g_failure_branch():
    source = (PKG / DIR_ENGINE).read_text()
    assert G_FAILURE_BRANCH in source, \
        "dispatch idiom changed; update this test"
    return lint_flows(source_overrides={
        DIR_ENGINE: source.replace(G_FAILURE_BRANCH, "")})


def findings_of(mutation):
    overrides, _ = overrides_for(mutation)
    return lint_flows(source_overrides=overrides)


class TestRepoIsClean:
    def test_no_fresh_findings(self):
        fresh, _suppressed, _stale = load_baseline().split(lint_flows())
        assert fresh == [], "\n".join(f.render() for f in fresh)

    def test_every_scalablebulk_table1_type_flows(self):
        """Sanity: the pass sees the whole Table 1 conversation — every
        type is sent standalone or rides a carrier that is."""
        auto = extract_flow_automaton("scalablebulk")
        sent = {s.mtype for s in auto.sends}
        riders = {t.name for t in PIGGYBACKED_TYPES}
        for mtype in SCALABLEBULK_TABLE1_TYPES:
            assert mtype.name in sent | riders, mtype


class TestSeededDefects:
    """A removed message handler is caught."""

    def test_removed_handler_branch_is_sb001(self):
        """The dispatch gap once reported as SB001 is SB601 never-handled."""
        never_handled = [f for f in without_g_failure_branch()
                         if f.code == "SB601" and "G_FAILURE" in f.anchor]
        assert never_handled, "removing the g_failure handler went unnoticed"
        assert any(f.anchor == "scalablebulk/G_FAILURE:never-handled"
                   for f in never_handled)

    def test_orphaned_handler_method_is_sb002(self):
        assert any(f.code == "SB002"
                   and f.anchor == "ScalableBulkDirectory._on_g_failure"
                   for f in without_g_failure_branch()), \
            "the now-dead handler was not flagged"

    def test_silent_mutation_is_sb003(self):
        assert any(f.code == "SB003"
                   and f.anchor == "SilentDirectory._on_commit_done"
                   for f in findings_of("silent-handler"))

    def test_orphan_message_type_is_sb004(self):
        assert any(f.code == "SB004" and f.anchor == "MessageType.GHOST_MSG"
                   for f in findings_of("ghost-type"))


class TestFindingMechanics:
    def test_keys_are_line_number_free(self):
        for name in sorted(FLOW_MUTATIONS):
            for f in findings_of(name):
                path = f.key.split("::")[0].split(" ")[1]
                assert ":" not in path.replace("src/repro", ""), f.key
                assert f.key.startswith(f.code)
