"""Tests for the host-time self-profiler (repro.obs.profile)."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.engine.events import Simulator
from repro.harness.runner import Machine, SimulationRunner, run_app
from repro.memory.directory import DirectoryModule
from repro.network.noc import Network
from repro.obs.bus import InstrumentationBus
from repro.obs.metrics import MetricsRegistry, MetricsStream, validate_metrics_jsonl
from repro.obs.profile import (
    CST_CONFLICT,
    DIR_HANDLER,
    ENGINE_DISPATCH,
    HOT_SCOPES,
    MACHINE_PREWARM,
    NOC_TRANSIT,
    OTHER,
    SCHEMA,
    SIG_INSERT,
    SIG_INTERSECT,
    SIG_MEMBER,
    HostProfiler,
    aggregate_profiles,
    attach_profiler,
    make_profiler,
    render_share_line,
)
from repro.signatures.bulk_signature import BulkSignature, SignatureFactory


class FakeClock:
    """A deterministic host clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def clocked():
    clock = FakeClock()
    return HostProfiler(_clock=clock), clock


class TestScopeAccounting:
    def test_nested_scopes_split_self_time(self, clocked):
        prof, clock = clocked
        prof.start()
        clock.now = 10
        prof.enter("a")
        clock.now = 20
        prof.enter("b")
        clock.now = 50
        prof.exit()                      # b: total 30, self 30
        clock.now = 100
        prof.exit()                      # a: total 90, self 90-30=60
        clock.now = 200
        prof.stop()

        a, b = prof.scopes["a"], prof.scopes["b"]
        assert (a.count, a.total_ns, a.self_ns) == (1, 90, 60)
        assert (b.count, b.total_ns, b.self_ns) == (1, 30, 30)
        assert prof.wall_ns == 200
        assert prof.edges[(None, "a")] == [1, 90]
        assert prof.edges[("a", "b")] == [1, 30]

    def test_repeat_entries_accumulate(self, clocked):
        prof, clock = clocked
        prof.start()
        for t0 in (0, 100, 200):
            clock.now = t0
            prof.enter("x")
            clock.now = t0 + 7
            prof.exit()
        stats = prof.scopes["x"]
        assert (stats.count, stats.total_ns, stats.self_ns) == (3, 21, 21)
        assert prof.edges[(None, "x")] == [3, 21]

    def test_start_is_first_call_wins(self, clocked):
        prof, clock = clocked
        clock.now = 5
        prof.start()
        clock.now = 50
        prof.start()                     # must not re-anchor
        clock.now = 105
        assert prof.wall_ns == 100

    def test_exit_dispatch_drives_metrics_snapshots(self):
        clock = FakeClock()
        sink = io.StringIO()
        stream = MetricsStream(sink, 100, registry=MetricsRegistry())
        prof = HostProfiler(stream=stream, _clock=clock)
        prof.start()
        prof.enter(ENGINE_DISPATCH)
        prof.exit_dispatch(50)           # below the boundary: no snapshot
        assert stream.snapshots_written == 0
        prof.enter(ENGINE_DISPATCH)
        clock.now = 1_000
        prof.exit_dispatch(150)          # crossed 100: snapshot
        assert stream.snapshots_written == 1
        assert stream.next_time == 200
        prof.stop(sim_time=150)          # close() flushes the final one
        assert stream.snapshots_written == 2


class TestReport:
    def _profiled(self):
        clock = FakeClock()
        prof = HostProfiler(provenance={"git_rev": "abc123"}, _clock=clock)
        prof.start()
        clock.now = 0
        prof.enter(ENGINE_DISPATCH)
        clock.now = 10
        prof.enter(DIR_HANDLER)
        clock.now = 20
        prof.enter(NOC_TRANSIT)
        clock.now = 30
        prof.exit()
        clock.now = 50
        prof.exit()
        clock.now = 60
        prof.exit()
        clock.now = 100
        prof.stop()
        return prof

    def test_shares_sum_to_100(self):
        shares = self._profiled().report().shares()
        assert OTHER in shares
        assert sum(shares.values()) == pytest.approx(100.0)
        assert all(v >= 0 for v in shares.values())

    def test_render_mentions_every_scope_once(self):
        text = self._profiled().report().render()
        for name in (ENGINE_DISPATCH, DIR_HANDLER, NOC_TRANSIT, OTHER):
            assert name in text
        assert "wall" in text

    def test_to_json_schema_and_provenance(self):
        doc = self._profiled().report().to_json()
        assert doc["schema"] == SCHEMA
        assert doc["git_rev"] == "abc123"
        assert doc["wall_ns"] == 100
        assert set(doc["scopes"]) == {ENGINE_DISPATCH, DIR_HANDLER,
                                      NOC_TRANSIT}
        json.dumps(doc)                  # serializable as-is
        # edges are [parent, child, count, total_ns] rows
        assert [None, ENGINE_DISPATCH, 1, 60] in doc["edges"]

    def test_aggregate_profiles_sums_and_renormalizes(self):
        doc = self._profiled().report().to_json()
        merged = aggregate_profiles([doc, doc])
        assert merged["runs"] == 2
        assert merged["wall_ns"] == 200
        assert merged["scopes"][DIR_HANDLER]["count"] == 2
        assert sum(merged["shares"].values()) == pytest.approx(100.0)

    def test_render_share_line_biggest_first(self):
        line = render_share_line({"a": 5.0, "b": 40.0, OTHER: 55.0})
        assert line.index("b 40.0%") < line.index("a 5.0%")
        assert line.endswith(f"{OTHER} 55.0%")


def _machine(protocol=ProtocolKind.SCALABLEBULK):
    specs = {0: [ChunkSpec(150, [ChunkAccess(1, 32 * 128 * 50 + 32 * i, True)])
                 for i in range(2)]}
    remaining = {c: list(s) for c, s in specs.items()}
    config = SystemConfig(n_cores=4, seed=3, protocol=protocol)
    return Machine(config, next_spec=lambda c: (
        remaining.get(c).pop(0) if remaining.get(c) else None))


class TestAttachment:
    def test_attach_profiler_populates_hot_scopes(self):
        machine = _machine()
        prof = attach_profiler(machine)
        machine.run()
        prof.stop(machine.sim.now)
        assert ENGINE_DISPATCH in prof.scopes
        assert prof.scopes[ENGINE_DISPATCH].count > 0
        assert set(prof.scopes) <= set(HOT_SCOPES)
        assert sum(prof.report().shares().values()) == pytest.approx(100.0)

    @pytest.mark.parametrize("proto", list(ProtocolKind))
    def test_profiled_run_result_is_identical(self, proto):
        def run(**kw):
            return run_app("Radix", n_cores=4, protocol=proto,
                           chunks_per_partition=2, **kw)

        base = run()
        assert run(profile=True) == base
        assert run(profile=True, bus=InstrumentationBus()) == base

    #: Radix/4/ScalableBulk, 2 chunks per partition: per-scope call counts
    #: as the in-body scopes that the wrappers replaced recorded them.
    RADIX4_SB_CALLS = {ENGINE_DISPATCH: 1074, NOC_TRANSIT: 687,
                       DIR_HANDLER: 376, SIG_INSERT: 576, SIG_MEMBER: 3144,
                       SIG_INTERSECT: 0}

    def test_scope_counts_equal_unprofiled_call_counts(self):
        """Each wrapper opens exactly one scope per call of what it wraps:
        counting the same methods in an unprofiled run gives the same
        numbers, and both match the pinned counts of this run."""
        calls = dict.fromkeys(self.RADIX4_SB_CALLS, 0)
        counted = [(BulkSignature, "insert", SIG_INSERT),
                   (BulkSignature, "insert_many", SIG_INSERT),
                   (BulkSignature, "contains", SIG_MEMBER),
                   (BulkSignature, "intersects", SIG_INTERSECT),
                   (Network, "_send", NOC_TRANSIT),
                   (DirectoryModule, "_dispatch", DIR_HANDLER)]

        def counting(fn, scope):
            def wrapper(*args, **kwargs):
                calls[scope] += 1
                return fn(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for cls, name, scope in counted:
                mp.setattr(cls, name, counting(getattr(cls, name), scope))
            plain = run_app("Radix", n_cores=4, chunks_per_partition=2,
                            keep_machine=True)
        calls[ENGINE_DISPATCH] = plain.machine.sim.events_processed

        prof = HostProfiler()
        run_app("Radix", n_cores=4, chunks_per_partition=2, profile=prof)
        scoped = {name: prof.scopes[name].count if name in prof.scopes else 0
                  for name in self.RADIX4_SB_CALLS}
        assert scoped == calls == self.RADIX4_SB_CALLS
        assert prof.scopes[MACHINE_PREWARM].count == 1
        assert prof.scopes[CST_CONFLICT].count > 0

    def test_failed_run_still_stops_profiler(self, tmp_path):
        """A run that raises (here the max_events livelock guard) must
        still write its final metrics snapshot and close the stream."""
        out = tmp_path / "metrics.jsonl"
        config = SystemConfig(n_cores=4)
        prof = make_profiler(config, metrics_interval=100, metrics_out=out)
        runner = SimulationRunner("Radix", config, chunks_per_partition=2)
        with pytest.raises(RuntimeError, match="max_events"):
            runner.run(max_events=300, profile=prof)
        assert prof.stream._fh.closed
        lines = out.read_text(encoding="utf-8").splitlines()
        assert validate_metrics_jsonl(lines) == []
        last = json.loads(lines[-1])
        assert last["kind"] == "snapshot"
        assert last["seq"] == prof.stream.snapshots_written - 1
        assert last["profile"][ENGINE_DISPATCH]["count"] == 300

    def test_make_profiler_stamps_provenance_and_stream(self):
        config = SystemConfig(n_cores=4)
        prof = make_profiler(config, metrics_interval=500)
        assert "config_hash" in prof.provenance
        assert prof.stream is not None
        assert prof.stream.interval == 500
        assert make_profiler(config).stream is None


def _attach_parts(prof, factory=None):
    """attach_profiler on bare components (no protocol, no directories)."""
    sim = Simulator()
    parts = SimpleNamespace(
        sim=sim, network=Network(SystemConfig(n_cores=4), sim),
        sig_factory=factory or SignatureFactory(), directories=[],
        prewarm=lambda: 0)
    attach_profiler(parts, prof)
    return parts


class TestHostileScopeBalance:
    """Raising hot paths must leave the profiler stack balanced.

    Every profiled scope (sig.*, noc.transit, engine.dispatch) wraps its
    body in try/finally; if one leaked on an exception, every later scope
    would be mis-attributed to a phantom parent for the rest of the run."""

    def test_sig_ops_raising_keep_stack_balanced(self):
        prof = HostProfiler()
        factory = _attach_parts(prof, SignatureFactory(seed=2010)).sig_factory
        alien = _attach_parts(prof, SignatureFactory(seed=999)).sig_factory
        a = factory.from_lines([1, 2, 3])
        b = alien.from_lines([4])
        with pytest.raises(ValueError):
            a.intersects(b)
        assert prof._stack == []
        with pytest.raises(ValueError):
            a.union_update(b)
        assert prof._stack == []
        # scopes still accumulate correctly after the hostile calls
        a.insert(9)
        assert a.contains(9)
        assert prof._stack == []
        assert prof.scopes[SIG_INSERT].count >= 1
        assert prof.scopes[SIG_INTERSECT].count == 1

    def test_raising_callback_keeps_dispatch_scope_balanced(self):
        prof = HostProfiler()
        sim = _attach_parts(prof).sim
        fired = []
        sim.schedule(0, lambda: fired.append("ok"))
        sim.schedule(0, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        sim.schedule(1, lambda: fired.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert prof._stack == []
        sim.run()  # the queue survives and the scope re-opens cleanly
        assert fired == ["ok", "later"]
        assert prof._stack == []
        assert prof.scopes[ENGINE_DISPATCH].count == 3
