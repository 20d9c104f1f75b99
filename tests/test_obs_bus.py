"""Tests for the instrumentation bus: recording, gauges, zero-cost default.

The load-bearing property is the last class: attaching a bus must not
change simulation behaviour at all — the null-sink default and the live
bus schedule exactly the same simulator events.
"""

from instrument_matrix import assert_transparent

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine, run_app
from repro.obs.bus import (
    COMMIT_COMPLETE,
    COMMIT_REQUEST,
    EXEC_DONE,
    EXEC_START,
    GRAB_ADMIT,
    GROUP_FORMED,
    NULL_BUS,
    InstrumentationBus,
    ctag_str,
)
from repro.obs.gauges import GaugeSet, RingSeries


def small_machine(specs_by_core, **kw):
    config = SystemConfig(n_cores=4, seed=3,
                          protocol=ProtocolKind.SCALABLEBULK, **kw)
    remaining = {c: list(s) for c, s in specs_by_core.items()}

    def next_spec(core_id):
        lst = remaining.get(core_id)
        return lst.pop(0) if lst else None

    return Machine(config, next_spec=next_spec)


def simple_specs(n=2, base=32 * 128 * 50):
    return [ChunkSpec(150, [ChunkAccess(1, base + 32 * i, True)])
            for i in range(n)]


class TestNullDefault:
    def test_components_default_to_null_bus(self):
        machine = small_machine({0: simple_specs(1)})
        assert machine.sim.obs is NULL_BUS
        assert machine.network.obs is NULL_BUS
        assert all(c.obs is NULL_BUS for c in machine.cores)
        assert all(d.obs is NULL_BUS for d in machine.directories)
        assert not NULL_BUS.enabled

    def test_null_bus_hooks_are_noops(self):
        NULL_BUS.exec_start(0, 0, "t")
        NULL_BUS.group_formed(0, None, ("t", 0), 0, [0, 1], [], None)
        NULL_BUS.sim_step(0, 5)


class TestAttach:
    def test_attach_reaches_every_component(self):
        machine = small_machine({0: simple_specs(1)})
        bus = InstrumentationBus()
        machine.run(instruments=[bus])
        obs = machine.obs
        assert obs.enabled and obs is not bus
        assert obs.exec_start == bus.exec_start  # one subscriber: bound
        assert machine.sim.obs is obs
        assert machine.network.obs is obs
        assert all(c.obs is obs for c in machine.cores)
        assert all(d.obs is obs for d in machine.directories)
        assert all(e.obs is obs for e in machine.protocol.engines)

    def test_attach_accepts_existing_bus(self):
        machine = small_machine({0: simple_specs(1)})
        mine = InstrumentationBus(record_messages=False)
        machine.run(instruments=[mine])
        assert mine.events


class TestRecording:
    def test_lifecycle_kinds_recorded(self):
        machine = small_machine({0: simple_specs(1)})
        bus = InstrumentationBus()
        machine.run(instruments=[bus])
        kinds = set(bus.summary())
        assert {EXEC_START, EXEC_DONE, COMMIT_REQUEST, GRAB_ADMIT,
                GROUP_FORMED, COMMIT_COMPLETE} <= kinds

    def test_commit_completes_match_stats(self):
        machine = small_machine({0: simple_specs(3), 1: simple_specs(2)})
        bus = InstrumentationBus()
        machine.run(instruments=[bus])
        committed = sum(c.stats.chunks_committed for c in machine.cores)
        assert bus.summary()[COMMIT_COMPLETE] == committed

    def test_record_messages_off_mutes_noc_events(self):
        machine = small_machine({0: simple_specs(1)})
        bus = InstrumentationBus(record_messages=False)
        machine.run(instruments=[bus])
        assert "msg_send" not in bus.summary()
        # ... but the in-flight gauge still runs off the muted hooks
        assert "noc_inflight" in bus.gauges

    def test_gauge_series_populated(self):
        machine = small_machine({0: simple_specs(2)})
        bus = InstrumentationBus()
        machine.run(instruments=[bus])
        assert len(bus.gauges.get("sim_queue").samples()) > 0
        assert len(bus.gauges.get("dir0_cst").samples()) > 0
        # every sent message was delivered by quiesce
        assert bus.gauges.value("noc_inflight") == 0

    def test_ctag_str_renders_attempts(self):
        assert ctag_str(("P0.c0.g0", 2)) == "P0.c0.g0#2"
        assert ctag_str("plain") == "plain"
        assert ctag_str(None) is None


class TestGaugePrimitives:
    def test_ring_series_drops_oldest(self):
        s = RingSeries("test", capacity=3)
        for t in range(5):
            s.append(t, t * 10)
        assert s.samples() == [(2, 20), (3, 30), (4, 40)]
        assert s.dropped == 2
        assert s.last() == (4, 40)

    def test_gauge_set_bump_tracks_running_value(self):
        g = GaugeSet()
        assert g.bump("x", 0, +1) == 1
        assert g.bump("x", 1, +1) == 2
        assert g.bump("x", 2, -1) == 1
        assert g.value("x") == 1
        assert [v for _t, v in g.get("x").samples()] == [1, 2, 1]


class TestZeroCostDefault:
    """Attaching a bus must not perturb the simulation in any way (the
    full protocol x instrument matrix is tests/test_instruments.py)."""

    def test_run_identical_with_and_without_bus(self):
        bus = InstrumentationBus()
        assert_transparent(ProtocolKind.SCALABLEBULK, [bus])
        assert len(bus.events) > 0

    def test_instrumented_runs_are_deterministic(self):
        streams = []
        for _ in range(2):
            bus = InstrumentationBus()
            run_app("Radix", n_cores=4, chunks_per_partition=2,
                    instruments=[bus])
            streams.append([(e.time, e.kind, e.src, str(e.ctag),
                             sorted(e.fields)) for e in bus.events])
        assert streams[0] == streams[1]

    def test_all_protocols_unperturbed(self):
        for proto in ProtocolKind:
            assert_transparent(proto, [InstrumentationBus()])
