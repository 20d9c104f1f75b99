"""Chunk-lifecycle tracing on the instrumentation bus: per-chunk queries,
timeline rendering, JSONL export, and no effect on simulated results."""

import importlib.util
import json
from pathlib import Path

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine
from repro.obs.bus import (COMMIT_COMPLETE, COMMIT_REQUEST, EXEC_DONE,
                           EXEC_START, GROUP_FORMED, SQUASH,
                           InstrumentationBus, ctag_str)
from repro.obs.export import to_jsonl

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def traced_machine(specs_by_core, **kw):
    config = SystemConfig(n_cores=4, seed=3,
                          protocol=ProtocolKind.SCALABLEBULK, **kw)
    remaining = {c: list(s) for c, s in specs_by_core.items()}

    def next_spec(core_id):
        lst = remaining.get(core_id)
        return lst.pop(0) if lst else None

    return Machine(config, next_spec=next_spec), InstrumentationBus()


def simple_specs(n=2, base=32 * 128 * 50):
    return [ChunkSpec(150, [ChunkAccess(1, base + 32 * i, True)])
            for i in range(n)]


def for_tag(bus, tag):
    """Events of one chunk across all its commit attempts (``tag#n``)."""
    return [e for e in bus.events
            if (ctag_str(e.ctag) or "").split("#")[0] == tag]


def load_debug_timeline():
    spec = importlib.util.spec_from_file_location(
        "debug_timeline", EXAMPLES / "debug_timeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLifecycleEvents:
    def test_full_lifecycle_recorded(self):
        machine, bus = traced_machine({0: simple_specs(1)})
        machine.run(instruments=[bus])
        kinds = {e.kind for e in for_tag(bus, "P0.c0.g0")}
        for expected in (EXEC_START, EXEC_DONE, COMMIT_REQUEST,
                         GROUP_FORMED, COMMIT_COMPLETE):
            assert expected in kinds, expected

    def test_event_order_sane(self):
        machine, bus = traced_machine({0: simple_specs(1)})
        machine.run(instruments=[bus])
        times = {}
        for e in for_tag(bus, "P0.c0.g0"):
            times.setdefault(e.kind, e.time)
        assert times[EXEC_START] <= times[EXEC_DONE]
        assert times[EXEC_DONE] <= times[COMMIT_REQUEST]
        assert times[COMMIT_REQUEST] <= times[COMMIT_COMPLETE]

    def test_squash_recorded_with_reason(self):
        line = 32 * 128 * 80
        specs = lambda: [ChunkSpec(200, [ChunkAccess(1, line, True)])
                         for _ in range(3)]
        machine, bus = traced_machine({0: specs(), 1: specs()})
        machine.run(instruments=[bus])
        squashes = bus.of_kind(SQUASH)
        if squashes:  # conflicts are timing-dependent
            assert all(e.fields["reason"] in ("conflict", "alias")
                       for e in squashes)

    def test_commit_counts_match_stats(self):
        machine, bus = traced_machine({0: simple_specs(3),
                                       1: simple_specs(2, base=32 * 128 * 90)})
        machine.run(instruments=[bus])
        committed = sum(c.stats.chunks_committed for c in machine.cores)
        assert len(bus.of_kind(COMMIT_COMPLETE)) == committed


class TestQueriesAndExport:
    def test_timeline_render(self):
        machine, bus = traced_machine({0: simple_specs(1)})
        machine.run(instruments=[bus])
        text = load_debug_timeline().timeline(bus, "P0.c0.g0")
        assert text.startswith("timeline for P0.c0.g0")
        assert COMMIT_COMPLETE in text

    def test_summary_counts(self):
        machine, bus = traced_machine({0: simple_specs(2)})
        machine.run(instruments=[bus])
        assert bus.summary()[COMMIT_COMPLETE] == 2

    def test_jsonl_dump(self, tmp_path):
        machine, bus = traced_machine({0: simple_specs(1)})
        machine.run(instruments=[bus])
        path = tmp_path / "trace.jsonl"
        n = to_jsonl(bus, path)
        lines = path.read_text().splitlines()
        assert len(lines) == n > 0
        parsed = json.loads(lines[0])
        assert {"time", "kind", "src", "ctag"} <= set(parsed)

    def test_tracing_does_not_change_results(self):
        specs = {0: simple_specs(3)}
        m1, bus = traced_machine({c: list(s) for c, s in specs.items()})
        m1.run(instruments=[bus])
        config = SystemConfig(n_cores=4, seed=3,
                              protocol=ProtocolKind.SCALABLEBULK)
        remaining = {c: list(s) for c, s in specs.items()}
        m2 = Machine(config, next_spec=lambda c: (
            remaining.get(c).pop(0) if remaining.get(c) else None))
        m2.run()
        assert m1.sim.now == m2.sim.now
