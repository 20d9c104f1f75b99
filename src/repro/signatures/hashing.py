"""The hash family of banked Bloom signatures.

``MultiplicativeHashFamily`` is a per-bank Knuth multiplicative hash:
deterministic given a seed, it maps a line address to one bit index per
bank.  Bulk-style hardware would use H3 parity hashing (XOR trees),
which is much slower in Python; on the 16-core ``repro sweep --quick``
matrix the two families differ by one aliasing squash in 128
ScalableBulk commits (1 here, 0 under H3).
"""

from __future__ import annotations

from repro.engine.rng import DeterministicRng


class MultiplicativeHashFamily:
    """Per-bank Knuth multiplicative hashing (fast Python path)."""

    WORD = 64

    def __init__(self, n_banks: int, bank_bits: int, seed: int = 2010) -> None:
        if bank_bits & (bank_bits - 1):
            raise ValueError("bank_bits must be a power of two")
        self.n_banks = n_banks
        self.bank_bits = bank_bits
        self._shift = self.WORD - (bank_bits.bit_length() - 1)
        rng = DeterministicRng(seed, "mult-consts")
        # Odd 64-bit constants, one per bank, plus a per-bank xor whitener so
        # banks are independent even for small addresses.
        self._consts = [(rng.randbits(self.WORD) | 1) for _ in range(n_banks)]
        self._whiteners = [rng.randbits(self.WORD) for _ in range(n_banks)]
        self._mask64 = (1 << self.WORD) - 1

    def bit_index(self, bank: int, line_addr: int) -> int:
        x = (line_addr ^ self._whiteners[bank]) & self._mask64
        return ((x * self._consts[bank]) & self._mask64) >> self._shift


__all__ = ["MultiplicativeHashFamily"]
