"""Unit + property tests for Bulk signatures and their hash families."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.signatures.bulk_signature import (
    BulkSignature, SignatureFactory, definitely_disjoint, exact_conflict,
)
from repro.signatures.hashing import (
    H3HashFamily, MultiplicativeHashFamily, make_hash_family,
)

lines = st.integers(min_value=0, max_value=2**40)
line_sets = st.sets(lines, min_size=0, max_size=80)


@pytest.fixture(params=["mult", "h3"])
def factory(request):
    return SignatureFactory(total_bits=2048, n_banks=4,
                            hash_kind=request.param, seed=11)


class TestHashFamilies:
    @pytest.mark.parametrize("kind", ["mult", "h3"])
    def test_indices_in_range(self, kind):
        fam = make_hash_family(kind, 4, 512, seed=3)
        for addr in [0, 1, 17, 2**20 + 5, 2**39]:
            for bank in range(4):
                assert 0 <= fam.bit_index(bank, addr) < 512

    @pytest.mark.parametrize("kind", ["mult", "h3"])
    def test_deterministic(self, kind):
        a = make_hash_family(kind, 4, 512, seed=3)
        b = make_hash_family(kind, 4, 512, seed=3)
        for addr in range(0, 1000, 37):
            for bank in range(4):
                assert a.bit_index(bank, addr) == b.bit_index(bank, addr)

    def test_banks_are_independent(self):
        fam = MultiplicativeHashFamily(4, 512, seed=3)
        addrs = range(2000)
        per_bank = [
            {fam.bit_index(b, a) for a in addrs} for b in range(4)
        ]
        # each bank should use most of its index space over 2000 addresses
        for used in per_bank:
            assert len(used) > 400

    def test_non_power_of_two_bank_rejected(self):
        with pytest.raises(ValueError):
            MultiplicativeHashFamily(4, 500)
        with pytest.raises(ValueError):
            H3HashFamily(4, 500)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_hash_family("sha", 4, 512)

    def test_dispersion_reasonable(self):
        fam = MultiplicativeHashFamily(4, 512, seed=3)
        hits = [0] * 512
        for a in range(4096):
            hits[fam.bit_index(0, a)] += 1
        # no bucket should collect a grossly disproportionate share
        assert max(hits) < 40


class TestMembership:
    def test_no_false_negatives(self, factory):
        sig = factory.empty()
        inserted = [5, 99, 12345, 2**30 + 7]
        for line in inserted:
            sig.insert(line)
        for line in inserted:
            assert sig.contains(line)

    @given(line_sets)
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives_property(self, addrs):
        factory = SignatureFactory(seed=11)
        sig = factory.from_lines(addrs)
        assert all(sig.contains(a) for a in addrs)

    def test_empty_contains_nothing(self, factory):
        sig = factory.empty()
        assert not sig.contains(123)
        assert sig.is_empty()

    def test_false_positive_rate_low_at_chunk_density(self):
        """At ~64 lines per signature the per-line membership FP rate must
        be small — this is what keeps the paper's aliasing squashes ~2%."""
        factory = SignatureFactory(total_bits=2048, n_banks=4, seed=11)
        sig = factory.from_lines(range(1000, 1064))
        probes = range(10**6, 10**6 + 20000)
        fp = sum(1 for p in probes if sig.contains(p))
        assert fp / 20000 < 0.01


class TestIntersection:
    def test_disjoint_small_sets(self, factory):
        a = factory.from_lines([1, 2, 3])
        b = factory.from_lines([10**6, 10**6 + 1])
        # banked AND may false-positive but usually not at this density
        assert definitely_disjoint(a, b) or True  # smoke; exactness below

    def test_overlap_always_detected(self, factory):
        a = factory.from_lines([7, 8, 9])
        b = factory.from_lines([9, 100, 200])
        assert a.intersects(b)

    def test_empty_never_intersects(self, factory):
        a = factory.empty()
        b = factory.from_lines([1, 2])
        assert not a.intersects(b)
        assert not b.intersects(a)

    @given(line_sets, line_sets)
    @settings(max_examples=40, deadline=None)
    def test_intersection_no_false_negatives(self, xs, ys):
        factory = SignatureFactory(seed=11)
        a = factory.from_lines(xs)
        b = factory.from_lines(ys)
        if xs & ys:
            assert a.intersects(b)

    def test_union_superset(self, factory):
        a = factory.from_lines([1, 2])
        b = factory.from_lines([3, 4])
        u = a.union(b)
        for line in (1, 2, 3, 4):
            assert u.contains(line)

    def test_union_update_in_place(self, factory):
        a = factory.from_lines([1])
        a.union_update(factory.from_lines([2]))
        assert a.contains(1) and a.contains(2)


class TestLifecycle:
    def test_clear_deallocates(self, factory):
        sig = factory.from_lines(range(50))
        sig.clear()
        assert sig.is_empty()
        assert sig.inserts == 0
        assert sig.bit_count() == 0

    def test_copy_is_independent(self, factory):
        a = factory.from_lines([1, 2])
        b = a.copy()
        b.insert(999)
        assert not a.contains(999) or a == b  # copy must not alias storage
        assert b.contains(999)

    def test_expand_filters_candidates(self, factory):
        sig = factory.from_lines([10, 20, 30])
        expanded = sig.expand([10, 20, 30, 40, 50])
        assert {10, 20, 30} <= set(expanded)

    def test_equality_by_bits(self, factory):
        a = factory.from_lines([5, 6])
        b = factory.from_lines([5, 6])
        assert a == b

    def test_bit_count_bounded_by_banks(self, factory):
        sig = factory.from_lines(range(10))
        assert sig.bit_count() <= 10 * factory.n_banks

    def test_fp_probability_monotone(self, factory):
        a = factory.from_lines(range(10))
        b = factory.from_lines(range(100))
        assert a.false_positive_probability() <= b.false_positive_probability()


class TestFactory:
    def test_bits_must_divide_banks(self):
        with pytest.raises(ValueError):
            SignatureFactory(total_bits=2048, n_banks=3)

    def test_incompatible_factories_rejected(self):
        f1 = SignatureFactory(total_bits=2048, n_banks=4)
        f2 = SignatureFactory(total_bits=1024, n_banks=2)
        with pytest.raises(ValueError):
            f1.empty().intersects(f2.empty())

    def test_same_geometry_different_seed_rejected(self):
        """Regression: equal bits/banks but a different hash seed used to be
        accepted — bit positions disagree, so ``intersects`` can silently
        report disjoint for overlapping sets (a missed conflict)."""
        f1 = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        f2 = SignatureFactory(total_bits=2048, n_banks=4, seed=2011)
        a = f1.from_lines([1, 2, 3])
        b = f2.from_lines([1, 2, 3])
        with pytest.raises(ValueError, match="incompatible"):
            a.intersects(b)
        with pytest.raises(ValueError, match="incompatible"):
            a.union_update(b)

    def test_union_rejects_incompatible_factories(self):
        """Regression: union() used to skip the compatibility check that
        union_update() and intersects() perform, silently interleaving
        bits hashed under different seeds."""
        f1 = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        f2 = SignatureFactory(total_bits=2048, n_banks=4, seed=2011)
        with pytest.raises(ValueError, match="incompatible"):
            f1.from_lines([1, 2]).union(f2.from_lines([3]))

    def test_same_geometry_different_hash_kind_rejected(self):
        f_mult = SignatureFactory(total_bits=2048, n_banks=4, hash_kind="mult")
        f_h3 = SignatureFactory(total_bits=2048, n_banks=4, hash_kind="h3")
        with pytest.raises(ValueError, match="incompatible"):
            f_mult.from_lines([7]).intersects(f_h3.from_lines([7]))

    def test_equal_hash_params_accepted_across_instances(self):
        """Two factories with identical parameters map addresses to the
        same bits, so cross-factory tests are meaningful and allowed."""
        f1 = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        f2 = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        assert f1.hash_params == f2.hash_params
        assert f1.from_lines([1, 2]).intersects(f2.from_lines([2, 9]))
        assert not f1.from_lines([1, 2]).intersects(f2.from_lines([40, 41]))

    def test_line_masks_memoized_and_consistent(self):
        """The memoized per-line masks must agree with direct hashing."""
        f = SignatureFactory(total_bits=2048, n_banks=4, seed=7)
        for line in (0, 1, 17, 2**40 + 3):
            masks = f.line_masks(line)
            assert masks is f.line_masks(line)  # cached object reused
            for b, mask in enumerate(masks):
                assert mask == 1 << f.hashes.bit_index(b, line)
        sig = f.from_lines([5, 6])
        assert sig.contains(5) and sig.contains(6)


class TestExactConflict:
    def test_read_write(self):
        assert exact_conflict({1, 2}, set(), {2})

    def test_write_write(self):
        assert exact_conflict(set(), {5}, {5})

    def test_disjoint(self):
        assert not exact_conflict({1}, {2}, {3})
