"""Runs the invalidation-completeness oracle over conflict-heavy machines."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.harness.runner import Machine
from repro.validation import InvalidationOracle
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


def run_with_oracle(app: str, seed: int, n_cores: int = 4, chunks: int = 2):
    config = SystemConfig(n_cores=n_cores, seed=seed,
                          protocol=ProtocolKind.SCALABLEBULK)
    workload = SyntheticWorkload(get_profile(app), config,
                                 active_cores=n_cores,
                                 chunks_per_partition=chunks)
    machine = Machine(config, workload=workload)
    oracle = InvalidationOracle()
    machine.run(instruments=[oracle])
    return machine, oracle


class TestOracleOnWorkloads:
    @pytest.mark.parametrize("app", ["Radix", "Barnes", "Canneal", "LU"])
    def test_invalidation_completeness(self, app):
        machine, oracle = run_with_oracle(app, seed=31)
        assert oracle.commits_checked > 0
        oracle.assert_clean()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_seeds_clean(self, seed):
        machine, oracle = run_with_oracle("Barnes", seed=seed, chunks=1)
        oracle.assert_clean()


class TestOracleOnHandmadeConflicts:
    def test_ww_storm_is_clean(self):
        config = SystemConfig(n_cores=4, seed=2,
                              protocol=ProtocolKind.SCALABLEBULK)
        line = 32 * 128 * 500
        mk = lambda: [ChunkSpec(250, [ChunkAccess(1, line, True)])
                      for _ in range(4)]
        remaining = {c: mk() for c in range(4)}

        def next_spec(core_id):
            lst = remaining.get(core_id)
            return lst.pop(0) if lst else None

        machine = Machine(config, next_spec=next_spec)
        oracle = InvalidationOracle()
        machine.run(instruments=[oracle])
        assert oracle.commits_checked == 16
        oracle.assert_clean()

    def test_oracle_detects_injected_hole(self):
        """Sanity: the oracle is not vacuous — a manufactured hole trips it."""
        config = SystemConfig(n_cores=4, seed=2,
                              protocol=ProtocolKind.SCALABLEBULK)
        line = 32 * 128 * 600
        mk = lambda: [ChunkSpec(250, [ChunkAccess(1, line, True),
                                      ChunkAccess(1, line + 32, False)])
                      for _ in range(3)]
        remaining = {0: mk(), 1: mk()}

        def next_spec(core_id):
            lst = remaining.get(core_id)
            return lst.pop(0) if lst else None

        machine = Machine(config, next_spec=next_spec)
        oracle = InvalidationOracle()
        # sabotage: make every directory forget its sharers at expansion
        for d in machine.directories:
            d.sharers_to_invalidate = lambda lines, writer: set()
        with pytest.raises(AssertionError, match="invalidation-completeness"):
            machine.run(max_events=5_000_000, instruments=[oracle])
        assert oracle.violations, "oracle failed to notice missing sharers"


class TestOracleDirectly:
    """Direct unit tests for InvalidationOracle (satellite: previously the
    oracle was only exercised through full workload runs)."""

    @staticmethod
    def _oracle(chunks_by_core):
        """An oracle bound to a machine double (cores and sim.now only;
        ``attach`` would refuse it for lacking ScalableBulk directories)."""
        from types import SimpleNamespace

        cores = [SimpleNamespace(core_id=cid,
                                 active_chunks=lambda lst=lst: list(lst))
                 for cid, lst in chunks_by_core.items()]
        oracle = InvalidationOracle()
        oracle.machine = SimpleNamespace(directories=[], cores=cores,
                                         sim=SimpleNamespace(now=123))
        return oracle

    @staticmethod
    def _confirm(oracle, proc, write_lines, inval_acc, local_sharers=()):
        """One ``group_formed`` hook call, as the leader directory makes
        it (targets = inval_acc | local_sharers)."""
        oracle.group_formed(123, 0, (("t", proc, 0), 0), proc, (0,),
                            set(write_lines),
                            set(inval_acc) | set(local_sharers))

    @staticmethod
    def _stub_chunk(tag, read_lines, write_lines):
        from types import SimpleNamespace
        return SimpleNamespace(tag=tag, read_lines=set(read_lines),
                               write_lines=set(write_lines))

    def test_complete_inval_vector_is_clean(self):
        victim = self._stub_chunk("c1", {100}, set())
        oracle = self._oracle({0: [], 1: [victim]})
        self._confirm(oracle, proc=0, write_lines={100}, inval_acc={1})
        assert oracle.violations == []
        oracle.assert_clean()

    def test_dropped_invalidation_is_a_violation(self):
        victim = self._stub_chunk("c1", {100}, set())
        oracle = self._oracle({0: [], 1: [victim]})
        # the committing entry overlaps core 1's read set but the
        # accumulated inval_vec forgot core 1 entirely
        self._confirm(oracle, proc=0, write_lines={100}, inval_acc=set())
        assert len(oracle.violations) == 1
        v = oracle.violations[0]
        assert v.missed_core == 1 and v.writer == 0
        assert v.conflict_lines == {100}
        assert "missed conflicting chunk" in str(v)
        with pytest.raises(AssertionError, match="invalidation-completeness"):
            oracle.assert_clean()

    def test_local_sharers_count_as_covered(self):
        victim = self._stub_chunk("c1", set(), {100})
        oracle = self._oracle({0: [], 2: [victim]})
        self._confirm(oracle, proc=0, write_lines={100}, inval_acc=set(),
                      local_sharers={2})
        assert oracle.violations == []

    def test_broken_directory_dropping_invalidations_caught_live(self):
        """End to end: a directory that clears its invalidation vector at
        confirm time loses serializability and the oracle sees it."""
        config = SystemConfig(n_cores=4, seed=5,
                              protocol=ProtocolKind.SCALABLEBULK)
        line = 32 * 128 * 700
        mk = lambda: [ChunkSpec(250, [ChunkAccess(1, line, True),
                                      ChunkAccess(1, line + 32, False)])
                      for _ in range(3)]
        remaining = {0: mk(), 1: mk()}

        def next_spec(core_id):
            lst = remaining.get(core_id)
            return lst.pop(0) if lst else None

        machine = Machine(config, next_spec=next_spec)
        oracle = InvalidationOracle()
        # sabotage: drop every pending invalidation just before the
        # confirmation runs; its group_formed hook reports the emptied
        # targets, so the oracle audits exactly what the broken directory
        # acts on
        for d in machine.directories:
            wrapped = d._confirm_group

            def dropping(entry, _wrapped=wrapped):
                entry.inval_acc.clear()
                entry.local_sharers.clear()
                _wrapped(entry)

            d._confirm_group = dropping
        with pytest.raises(AssertionError, match="invalidation-completeness"):
            machine.run(max_events=5_000_000, instruments=[oracle])
        assert oracle.violations, "dropped invalidations went unnoticed"


class TestOracleScope:
    """The oracle only checks ScalableBulk confirmations; attaching it to
    another protocol must fail up front instead of passing vacuously."""

    @pytest.mark.parametrize("protocol", [ProtocolKind.TCC, ProtocolKind.SEQ,
                                          ProtocolKind.BULKSC])
    def test_attach_refuses_other_protocols(self, protocol):
        config = SystemConfig(n_cores=4, protocol=protocol)
        machine = Machine(config, next_spec=lambda core: None)
        with pytest.raises(ValueError, match="ScalableBulk"):
            InvalidationOracle().attach(machine)
