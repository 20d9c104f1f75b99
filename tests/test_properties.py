"""Cross-cutting property-based tests (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.engine.events import Simulator
from repro.memory.hierarchy import REMOTE, CacheHierarchy
from repro.network.message import MessageType, core_node
from repro.network.noc import Network
from repro.signatures.bulk_signature import SignatureFactory


class TestNocProperties:
    @given(st.lists(st.sampled_from([MessageType.G, MessageType.BULK_INV,
                                     MessageType.COMMIT_REQUEST]),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_same_pair_fifo_ordering(self, mtypes):
        """Messages between one (src, dst) pair arrive in send order, even
        with mixed sizes and link contention."""
        config = SystemConfig(n_cores=16, network_contention=True)
        sim = Simulator()
        net = Network(config, sim)
        arrivals = []
        net.register(core_node(9), lambda m: arrivals.append(m.payload["i"]))
        for i, mt in enumerate(mtypes):
            net.unicast(mt, core_node(0), core_node(9), ctag="c", i=i)
        sim.run()
        assert arrivals == sorted(arrivals)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_delivery_always_happens(self, src, dst):
        config = SystemConfig(n_cores=16)
        sim = Simulator()
        net = Network(config, sim)
        got = []
        net.register(core_node(dst), got.append)
        net.unicast(MessageType.G, core_node(src), core_node(dst), ctag="c",
                    inval_vec=set(), order=())
        sim.run()
        assert len(got) == 1

    def test_contention_never_faster_than_ideal(self):
        for contention in (False, True):
            config = SystemConfig(n_cores=16,
                                  network_contention=contention)
            sim = Simulator()
            net = Network(config, sim)
            times = []
            net.register(core_node(5), lambda m: times.append(sim.now))
            for _ in range(5):
                net.unicast(MessageType.BULK_INV, core_node(0), core_node(5),
                            ctag="c")
            sim.run()
            if contention:
                contended_last = times[-1]
            else:
                ideal_last = times[-1]
        assert contended_last >= ideal_last


class TestHierarchyProperties:
    @given(st.lists(st.tuples(st.integers(0, 200), st.booleans()),
                    min_size=1, max_size=150))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_spec_marks_consistent_with_tracking(self, accesses):
        config = SystemConfig(n_cores=4)
        hier = CacheHierarchy(0, config)
        for line, is_write in accesses:
            if hier.access(line, is_write, "tag") == REMOTE:
                hier.fill_remote(line, is_write=is_write, ctag="tag")
        # every L2 line marked speculative must be tracked (or vice versa:
        # tracked lines that are still resident must be marked)
        tracked = hier.spec_lines.get("tag", set())
        for line in tracked:
            l2line = hier.l2.peek(line)
            if l2line is not None:
                assert l2line.spec_writer == "tag"

    @given(st.lists(st.tuples(st.integers(0, 200), st.booleans()),
                    min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_commit_clears_all_spec_marks(self, accesses):
        config = SystemConfig(n_cores=4)
        hier = CacheHierarchy(0, config)
        for line, is_write in accesses:
            if hier.access(line, is_write, "tag") == REMOTE:
                hier.fill_remote(line, is_write=is_write, ctag="tag")
        hier.commit_chunk("tag")
        for line in hier.l2.resident_lines():
            assert hier.l2.peek(line).spec_writer != "tag"

    @given(st.lists(st.tuples(st.integers(0, 200), st.booleans()),
                    min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_squash_removes_all_written_lines(self, accesses):
        config = SystemConfig(n_cores=4)
        hier = CacheHierarchy(0, config)
        written = set()
        for line, is_write in accesses:
            if hier.access(line, is_write, "tag") == REMOTE:
                hier.fill_remote(line, is_write=is_write, ctag="tag")
            if is_write:
                written.add(line)
        hier.squash_chunk("tag")
        for line in hier.l2.resident_lines():
            assert hier.l2.peek(line).spec_writer is None


class TestSignatureAnalytics:
    @given(st.integers(10, 120))
    @settings(max_examples=15, deadline=None)
    def test_empirical_fp_matches_analytic_order(self, n_lines):
        factory = SignatureFactory(total_bits=2048, n_banks=4, seed=3)
        sig = factory.from_lines(range(n_lines))
        analytic = sig.false_positive_probability()
        probes = 30_000
        fp = sum(1 for i in range(probes) if sig.contains(10**7 + i))
        empirical = fp / probes
        # same order of magnitude (loose: within 10x either way, plus an
        # absolute floor for tiny rates)
        assert empirical <= analytic * 10 + 3e-4
        if analytic > 1e-3:
            assert empirical >= analytic / 10
