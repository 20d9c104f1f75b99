"""AccessSanitizer: opt-in, zero-cost when off, faithful when on."""

import dataclasses
import subprocess
import sys

import pytest

from repro.analysis.explore.scenarios import SCENARIOS
from repro.analysis.explore.driver import run_perturbation
from repro.analysis.races.sanitizer import AccessSanitizer, _classify, _probe
from repro.obs import NULL_BUS, InstrumentationBus
from repro.obs.bus import STATE_ACCESS

#: one scenario per protocol family (acceptance: all four unperturbed)
ALL_PROTOCOL_SCENARIOS = ("cross3", "tcc3", "bulksc3", "seq3")


def result_fields(result):
    d = dataclasses.asdict(result)
    d.pop("scenario")
    return d


def sanitized_run(name, bus=None, keep=None):
    """Run one scenario with the sanitizer (and ``bus``) as instruments."""
    san = AccessSanitizer()
    if keep is not None:
        keep.append(san)
    return run_perturbation(SCENARIOS[name], None, None, instruments=[
        san, *([bus] if bus is not None else [])])


class TestZeroCostDefault:
    """Acceptance: default runs are byte-identical with the sanitizer off,
    and attaching it must not perturb the simulation either."""

    def test_default_run_path_never_imports_sanitizer(self):
        """`repro run` must not even import the races package."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.harness.runner import run_app\n"
             "run_app('Radix', n_cores=4, chunks_per_partition=2)\n"
             "bad = [m for m in sys.modules if 'analysis.races' in m]\n"
             "assert not bad, bad\n"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("name", ALL_PROTOCOL_SCENARIOS)
    def test_all_protocols_unperturbed_by_sanitizer(self, name):
        plain = run_perturbation(SCENARIOS[name], None, None)
        traced = sanitized_run(name, bus=InstrumentationBus())
        assert result_fields(plain) == result_fields(traced)

    def test_null_bus_discipline(self):
        """With no recorder the sanitizer still records locally; its
        state_access events reach the hook's no-op, which NULL_BUS keeps
        disabled and silent."""
        assert not NULL_BUS.enabled
        assert NULL_BUS.state_access(0, "d0", "X", "h", "a", "write",
                                     None) is None
        keep = []
        sanitized_run("cross3", bus=None, keep=keep)
        assert keep[0].spans, "sanitizer should still record spans"
        assert keep[0].messages, "sanitizer should hear the messages"


class TestRecording:
    def test_spans_and_bus_events_flow(self):
        bus = InstrumentationBus()
        keep = []
        sanitized_run("cross3", bus=bus, keep=keep)
        san = keep[0]
        spans = [s for s in san.spans if s.records]
        assert spans, "expected state-access records on cross3"
        emitted = [e for e in bus.events if e.kind == STATE_ACCESS]
        assert len(emitted) == sum(len(s.records) for s in san.spans)
        for s in spans:
            for r in s.records:
                assert r.op in ("grow", "release", "write")
                assert r.cls and r.attr and r.handler

    def test_leak_queries_match_cross3_tombstones(self):
        """failed_cids is the intentional tombstone: it grows and is never
        released, which is exactly what SB504 confirmation keys on."""
        keep = []
        sanitized_run("cross3", keep=keep)
        san = keep[0]
        assert san.grew("ScalableBulkDirectory", "failed_cids")
        assert san.leaked_at("ScalableBulkDirectory", "failed_cids")
        # cst entries come and go: grown but reconciled
        assert not san.leaked_at("ScalableBulkDirectory", "cst")

    def test_detach_restores_original_handlers(self):
        from repro.analysis.explore.driver import build_machine
        machine = build_machine(SCENARIOS["cross3"])
        before = dict(machine.network._handlers)
        san = AccessSanitizer()
        san.attach(machine)
        wrapped = dict(machine.network._handlers)
        assert any(before[k] is not wrapped[k] for k in before)
        san.detach()
        after = dict(machine.network._handlers)
        assert all(before[k] is after[k] for k in before)


class TestFingerprints:
    def test_probe_sees_inplace_mutation(self):
        """Structural digests catch entries mutated without changing the
        container's length or identity (the CST failure mode)."""
        class Entry:
            def __init__(self):
                self.acks = 0
        table = {7: Entry()}
        before = _probe(table)
        table[7].acks = 3
        assert _probe(table) != before

    def test_classify_polarity(self):
        empty, one = _probe(set()), _probe({1})
        assert _classify(empty, one) == "grow"
        assert _classify(one, empty) == "release"
        assert _classify(_probe({1}), _probe({2})) == "write"
