"""SB5xx static pass: state-access model, rules, teeth."""

from repro.analysis import Baseline
from repro.analysis.findings import repo_paths
from repro.analysis.mutations import MUTATIONS
from repro.analysis.races import extract_state_model, lint_races

SB5_CODES = {"SB502", "SB504"}


def keys(findings):
    return {f.key for f in findings}


class TestStateModel:
    def test_scalablebulk_handlers_extracted(self):
        model = extract_state_model("scalablebulk")
        names = {c.name for c in model.handler_classes()}
        assert "ScalableBulkDirectory" in names
        assert "ScalableBulkEngine" in names

    def test_handler_footprints_are_transitive(self):
        """_on_g reaches _fail_group through _maybe_advance: the closed
        footprint must include the failure-path writes."""
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        on_g = next(h for h in sbdir.handlers.values() if h.method == "_on_g")
        assert "failed_cids" in on_g.writes
        assert "cst" in on_g.writes

    def test_counters_are_detected_and_separable(self):
        """`self.x += 1` attrs commute; the rules and the sanitizer exempt
        them by subtracting ``counters`` from ``attrs``."""
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert sbdir.counters, "expected commutative counters"
        assert "failed_cids" not in sbdir.counters
        assert sbdir.attrs - sbdir.counters

    def test_releasable_attrs_detected(self):
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert "failed_cids" in sbdir.releasable
        assert "reserved_for" in sbdir.releasable

    def test_dispatch_table_resolved(self):
        model = extract_state_model("scalablebulk")
        sbdir = next(c for c in model.classes
                     if c.name == "ScalableBulkDirectory")
        assert sbdir.dispatch, "dispatch table should be non-empty"
        assert all(m in sbdir.methods for m in sbdir.dispatch.values())


class TestRules:
    def test_nominal_findings_are_deterministic(self):
        a = [f.key for f in lint_races()]
        b = [f.key for f in lint_races()]
        assert a == b
        assert a == sorted(set(a))

    def test_nominal_findings_all_sb5xx_and_line_free_keys(self):
        findings = lint_races()
        assert findings, "expected nominal SB5xx findings"
        for f in findings:
            assert f.code in SB5_CODES
            # keys must survive unrelated line churn
            assert "::" in f.key and not f.key.rstrip().endswith(".py")

    def test_every_nominal_finding_is_baselined_and_justified(self):
        """Acceptance: zero unbaselined SB5xx, every entry justified."""
        _, repo_root = repo_paths()
        baseline = Baseline.load(repo_root / "lint-baseline.txt")
        fresh, suppressed, _ = baseline.split(lint_races())
        assert fresh == [], "\n".join(f.key for f in fresh)
        for f in suppressed:
            reason = baseline.justifications.get(f.key, "")
            assert reason and "TODO" not in reason, f.key

    def test_no_send_before_update_nominally(self):
        """SB502 is clean on the real tree (the seeded reorder adds one)."""
        assert not [f for f in lint_races() if f.code == "SB502"]


class TestSeededMutations:
    """Acceptance: >=2 seeded race bugs caught statically.  That each one
    adds exactly its pinned keys is the races column of
    tests/test_teeth_matrix.py::test_teeth_cell."""

    def test_each_mutation_adds_exactly_its_expected_key(self):
        caught = [n for n, m in MUTATIONS.items() if "races" in m.caught]
        assert len(caught) >= 2

    def test_mutation_transforms_fail_loudly_when_stale(self):
        """A transform that no longer matches the source must raise, not
        silently produce an unmutated tree."""
        for m in MUTATIONS.values():
            try:
                m.transform("def nothing(): pass\n")
            except ValueError:
                continue
            raise AssertionError(f"{m.name} accepted unrelated source")
