"""Deterministic, stream-splittable randomness.

Every stochastic component (workload generators, hash-mask selection,
backoff jitter) draws from a `DeterministicRng` derived from the experiment
seed plus a textual stream label, so adding a new consumer never perturbs
the random streams of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A labelled wrapper around ``random.Random``.

    ``split(label)`` derives an independent child stream whose seed depends
    only on (parent seed, label) — never on draw order.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._rng = random.Random(self._derive(seed, label))
        #: one uniform draw in [0, 1): the stream's own bound method, so a
        #: hot loop binds it once and draws with one call
        self.random = self._rng.random

    @staticmethod
    def _derive(seed: int, label: str) -> int:
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def split(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream keyed by ``label``."""
        return DeterministicRng(self._derive(self.seed, self.label + "/" + label), label)

    # -- draw helpers ---------------------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        return self._rng.sample(seq, k)

    def expovariate(self, lambd: float) -> float:
        return self._rng.expovariate(lambd)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including the first success."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p={p} out of (0, 1]")
        count = 1
        while self._rng.random() >= p:
            count += 1
        return count

    def zipf_index(self, n: int, s: float = 1.0) -> int:
        """Draw an index in [0, n) skewed toward low indices.

        ``s = 0`` is uniform; larger ``s`` concentrates mass on the popular
        (low) indices.  This is a power-law popularity skew — cheap, and
        close enough to Zipf for working-set modelling.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if s <= 0:
            return self._rng.randrange(n)
        k = int(n * (self._rng.random() ** (1.0 + s)))
        return min(k, n - 1)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def randbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeterministicRng(seed={self.seed}, label={self.label!r})"


__all__ = ["DeterministicRng"]
