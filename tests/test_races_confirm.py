"""Runtime confirmation: CONFIRMED witnesses with replayable schedules."""

import pytest

from repro.analysis.explore.controller import Schedule
from repro.analysis.explore.scenarios import SCENARIOS
from repro.analysis.mutations import MUTATIONS, Mutation
from repro.analysis.races import lint_races
from repro.analysis.races.confirm import (
    CONFIRMED, UNOBSERVED, _predicate_for, _run_probe, confirm_finding,
)

FAILED_CIDS_KEY = ("SB504 src/repro/core/directory_engine.py::"
                   "ScalableBulkDirectory:failed_cids:leak")


def finding_by_key(key):
    match = [f for f in lint_races() if f.key == key]
    assert match, key
    return match[0]


@pytest.fixture(scope="module")
def tombstone_witness():
    """One shared confirm run: the failed_cids tombstone is CONFIRMED on
    the very first nominal cross3 probe (no schedule randomization)."""
    finding = finding_by_key(FAILED_CIDS_KEY)
    return confirm_finding(finding, scenarios=("cross3",),
                           runs_per_scenario=1)


class TestNominalConfirmation:
    def test_tombstone_leak_is_confirmed(self, tombstone_witness):
        w = tombstone_witness
        assert w.status == CONFIRMED
        assert w.scenario == "cross3"
        assert w.code == "SB504" and w.key == FAILED_CIDS_KEY

    def test_witness_schedule_is_replayable(self, tombstone_witness):
        """Acceptance: the witness carries a schedule that reproduces the
        confirmed interleaving when replayed from JSON."""
        w = tombstone_witness
        assert w.schedule is not None
        schedule = Schedule.from_json(w.schedule)
        finding = finding_by_key(FAILED_CIDS_KEY)
        predicate = _predicate_for(finding)
        probe = _run_probe(SCENARIOS[w.scenario], schedule, None, None)
        assert predicate(probe)

    def test_witness_json_round_trip(self, tombstone_witness):
        payload = tombstone_witness.to_json()
        assert payload["status"] == CONFIRMED
        assert payload["schedule"] == tombstone_witness.schedule
        assert set(payload) == {"key", "code", "status", "scenario",
                                "schedule", "runs", "detail"}


class TestUnobserved:
    def test_unconfirmable_finding_reports_unobserved(self):
        """A finding whose interleaving never occurs nominally must come
        back UNOBSERVED, not crash — here: a leak on an attribute that is
        always reconciled (cst) by rewriting the finding key."""
        finding = finding_by_key(FAILED_CIDS_KEY)
        import dataclasses
        fake = dataclasses.replace(
            finding,
            anchor="ScalableBulkDirectory:cst:leak",
            message=finding.message.replace("failed_cids", "cst"))
        w = confirm_finding(fake, scenarios=("cross3",), runs_per_scenario=1)
        assert w.status == UNOBSERVED
        assert w.schedule is None


@pytest.mark.slow
class TestSeededRuntimeConfirmation:
    """Acceptance: >=1 seeded bug CONFIRMED by the sanitizer.  The
    reservation leak only engages under starvation pressure (nominal
    exploration misses it), so the probed transform also lowers the
    reservation threshold to one genuine failure."""

    def test_reservation_leak_confirmed_under_pressure(self, monkeypatch):
        import repro.analysis.races.confirm as confirm_mod
        # the leak wedges the protocol into livelock: a short probe shows
        # the access pattern without fingerprinting the full budget
        monkeypatch.setattr(confirm_mod, "PROBE_MAX_EVENTS", 6000)
        finding = finding_by_key(FAILED_CIDS_KEY)
        import dataclasses
        seeded = dataclasses.replace(
            finding,
            anchor="ScalableBulkDirectory:reserved_for:leak",
            message="seeded reservation leak")
        leak = MUTATIONS["reservation-leak"]
        threshold = "self.config.starvation_max_squashes"
        assert threshold in leak.overrides()[leak.rel_path]
        pressured = Mutation(
            leak.name, leak.description + ", under starvation pressure",
            leak.rel_path,
            lambda src: leak.transform(src).replace(threshold, "1"),
            "cross2")
        w = confirm_finding(seeded, mutation=pressured,
                            scenarios=("cross2",), runs_per_scenario=1)
        assert w.status == CONFIRMED, w.detail
        assert w.schedule is not None
