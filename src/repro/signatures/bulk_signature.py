"""Banked Bloom signatures over cache-line addresses.

A signature is split into ``n_banks`` equal banks; inserting an address sets
exactly one bit in every bank.  Consequently:

* **membership**: an address is (possibly) present iff its bit is set in
  *every* bank — no false negatives, bounded false positives;
* **intersection**: two signatures (possibly) share an address iff the
  bitwise AND of every corresponding bank pair is non-zero.  If any bank
  pair ANDs to zero the sets are *definitely* disjoint.

These are exactly the tests a ScalableBulk directory performs on incoming
loads and incoming (R, W) pairs (paper Fig. 2), and the tests a processor
performs for chunk disambiguation on a received bulk invalidation.

Storage layout (the compiled-core speed push): all banks live in ONE
packed Python int — bank ``b`` occupies bit slice
``[b * bank_bits, (b + 1) * bank_bits)``.  A line's per-bank one-hot masks
fold into a single *packed mask*, so the hot operations collapse to one
big-int op each:

* ``insert``    — ``bits |= mask``
* ``contains``  — ``bits & mask == mask`` (its bit set in *every* bank)
* ``intersects``— one AND, then an n_banks-slice emptiness scan

The banked semantics are unchanged: per-bank views are recovered on
demand (``banks()``), and the bank-local ``line_masks`` API is kept for
diagnostics and tests.

Each operation has exactly one body.  Host-time attribution
(:mod:`repro.obs.profile`) does not branch in here: attaching it points
the factory at a scoped subclass, so signatures handed out afterwards
time their ``insert``/``contains``/``intersects`` calls and the
unobserved path pays nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.signatures.hashing import HashFamily, make_hash_family


class SignatureFactory:
    """Creates signatures that share one hash family (one per machine)."""

    def __init__(self, total_bits: int = 2048, n_banks: int = 4,
                 hash_kind: str = "mult", seed: int = 2010) -> None:
        if total_bits % n_banks:
            raise ValueError("total_bits must divide into banks evenly")
        self.total_bits = total_bits
        self.n_banks = n_banks
        self.bank_bits = total_bits // n_banks
        self.hash_kind = hash_kind
        self.seed = seed
        self.hashes: HashFamily = make_hash_family(hash_kind, n_banks, self.bank_bits, seed)
        #: line address -> packed all-banks mask (one bit per bank, each in
        #: its bank's slice).  A workload touches each line many times
        #: (every chunk re-inserts its read/write sets), so hashing each
        #: line once and reusing the mask takes the hash out of the
        #: insert/contains hot path.  Bounded by the workload's
        #: distinct-line footprint.
        self._mask_cache: Dict[int, int] = {}
        #: line address -> bank-local one-hot masks (diagnostics API).
        self._bank_mask_cache: Dict[int, Tuple[int, ...]] = {}
        #: per-bank slice masks of the packed layout (intersection scan).
        bank_ones = (1 << self.bank_bits) - 1
        self.bank_slices: Tuple[int, ...] = tuple(
            bank_ones << (b * self.bank_bits) for b in range(n_banks))
        #: class of the signatures this factory hands out (host-time
        #: attribution swaps in a scoped subclass; see repro.obs.profile)
        self._signature_cls: type = BulkSignature

    @property
    def hash_params(self) -> Tuple[int, int, str, int]:
        """Everything that determines where a line's bits land.

        Two factories with equal ``hash_params`` map every address to the
        same bit positions, so their signatures are safely comparable.
        """
        return (self.total_bits, self.n_banks, self.hash_kind, self.seed)

    def packed_mask(self, line_addr: int) -> int:
        """All-banks packed mask for ``line_addr`` (memoized hot path)."""
        mask = self._mask_cache.get(line_addr)
        if mask is None:
            hashes = self.hashes
            bank_bits = self.bank_bits
            mask = 0
            for b in range(self.n_banks):
                mask |= 1 << (b * bank_bits + hashes.bit_index(b, line_addr))
            self._mask_cache[line_addr] = mask
        return mask

    def line_masks(self, line_addr: int) -> Tuple[int, ...]:
        """Per-bank one-hot bit masks for ``line_addr`` (memoized)."""
        masks = self._bank_mask_cache.get(line_addr)
        if masks is None:
            packed = self.packed_mask(line_addr)
            bank_bits = self.bank_bits
            bank_ones = (1 << bank_bits) - 1
            masks = tuple((packed >> (b * bank_bits)) & bank_ones
                          for b in range(self.n_banks))
            self._bank_mask_cache[line_addr] = masks
        return masks

    def empty(self) -> "BulkSignature":
        """A fresh, empty signature."""
        return self._signature_cls(self)

    def from_lines(self, lines: Iterable[int]) -> "BulkSignature":
        """Fold a whole line set into a fresh signature in one pass."""
        sig = self._signature_cls(self)
        sig.insert_many(lines)
        return sig

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SignatureFactory(total_bits={self.total_bits}, "
                f"n_banks={self.n_banks})")


class BulkSignature:
    """One chunk's R or W signature.

    All banks are stored in one packed Python int (bank ``b`` at bit slice
    ``b * bank_bits``).  Mutating operations are one big-int OR per
    address; membership is one AND + compare; intersection is one AND plus
    an O(banks) slice scan.
    """

    __slots__ = ("_factory", "_bits", "_count")

    def __init__(self, factory: SignatureFactory) -> None:
        self._factory = factory
        self._bits: int = 0
        self._count = 0  #: number of inserted addresses (not distinct)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, line_addr: int) -> None:
        """Add a line address to the encoded set."""
        self._bits |= self._factory.packed_mask(line_addr)
        self._count += 1

    def insert_many(self, lines: Iterable[int]) -> None:
        """Fold a whole read/write set in one pass (one final OR)."""
        packed_mask = self._factory.packed_mask
        bits = 0
        n = 0
        for line in lines:
            bits |= packed_mask(line)
            n += 1
        self._bits |= bits
        self._count += n

    def clear(self) -> None:
        """Deallocate: reset to the empty set."""
        self._bits = 0
        self._count = 0

    def union_update(self, other: "BulkSignature") -> None:
        """In-place union (used to fold R and W for disambiguation)."""
        self._check_compatible(other)
        self._bits |= other._bits
        self._count += other.inserts

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """Possibly-present membership test (no false negatives)."""
        mask = self._factory.packed_mask(line_addr)
        return self._bits & mask == mask

    def intersects(self, other: "BulkSignature") -> bool:
        """Possibly-overlapping test: True unless provably disjoint."""
        self._check_compatible(other)
        both = self._bits & other._bits
        return all(both & s for s in self._factory.bank_slices)

    def union(self, other: "BulkSignature") -> "BulkSignature":
        # A cross-hash-family union would interleave bits hashed with
        # different functions into one signature: downstream intersects()
        # could then miss real conflicts.  Same check as union_update.
        self._check_compatible(other)
        out = self._factory.empty()
        out._bits = self._bits | other._bits
        out._count = self._count + other.inserts
        return out

    def expand(self, candidates: Iterable[int]) -> List[int]:
        """Filter ``candidates`` to those possibly in the set.

        Models directory-side signature expansion: the directory checks the
        lines it tracks for membership (Section 3.1).
        """
        return [line for line in candidates if self.contains(line)]

    def is_empty(self) -> bool:
        return not self._bits

    def bit_count(self) -> int:
        """Total set bits across banks (density / aliasing diagnostics)."""
        return self._bits.bit_count()

    def false_positive_probability(self) -> float:
        """Analytic FP rate for a membership probe against this signature."""
        prob = 1.0
        for bank in self.banks():
            prob *= bank.bit_count() / self._factory.bank_bits
        return prob

    @property
    def inserts(self) -> int:
        return self._count

    @property
    def factory(self) -> SignatureFactory:
        return self._factory

    # ------------------------------------------------------------------
    def copy(self) -> "BulkSignature":
        out = self._factory.empty()
        out._bits = self._bits
        out._count = self._count
        return out

    def banks(self) -> Iterator[int]:
        """Per-bank ints, bank 0 first (views of the packed storage)."""
        bits = self._bits
        bank_bits = self._factory.bank_bits
        bank_ones = (1 << bank_bits) - 1
        for b in range(self._factory.n_banks):
            yield (bits >> (b * bank_bits)) & bank_ones

    def _check_compatible(self, other: "BulkSignature") -> None:
        # Matching geometry is not enough: a different hash kind or seed
        # lands the same address on different bits, and intersects() would
        # then silently report "disjoint" for overlapping sets — a missed
        # conflict.  The full hash-family parameters must agree.
        if (other._factory is not self._factory
                and other._factory.hash_params != self._factory.hash_params):
            raise ValueError(
                "signatures from incompatible factories: "
                f"{self._factory.hash_params} vs {other._factory.hash_params}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BulkSignature):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:  # signatures are mutable; identity hashing
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BulkSignature(bits={self.bit_count()}, inserts={self._count})"


def definitely_disjoint(a: BulkSignature, b: BulkSignature) -> bool:
    """Convenience negation of :meth:`BulkSignature.intersects`."""
    return not a.intersects(b)


def exact_conflict(read_set: Set[int], write_set: Set[int],
                   other_write_set: Set[int]) -> bool:
    """Ground-truth conflict test used by validators and tests.

    A chunk with (read_set, write_set) conflicts with a committing chunk
    whose write set is ``other_write_set`` iff Ri ∩ Wj or Wi ∩ Wj is
    non-empty (Section 3.4).
    """
    return bool(other_write_set & read_set) or bool(other_write_set & write_set)


__all__ = ["BulkSignature", "SignatureFactory", "definitely_disjoint",
           "exact_conflict"]
