"""Deterministic random-number streams.

Every stochastic component (each device channel, each workload client, the
flash garbage collector, ...) draws from its own named stream, forked from a
single experiment seed.  Adding a new consumer therefore never perturbs the
draws seen by existing ones, which keeps experiments comparable across code
changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class RandomStream:
    """A named, seedable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._rng = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RandomStream":
        """Create an independent child stream identified by ``name``."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    # -- draws ---------------------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def lognormal(self, mean: float, sigma: float) -> float:
        return self._rng.lognormvariate(mean, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def chance(self, p: float) -> bool:
        """True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._rng.random() < p

    def jittered(self, base: float, jitter: float) -> float:
        """``base`` scaled by a uniform factor in [1-jitter, 1+jitter]."""
        if jitter <= 0.0:
            return base
        return base * self._rng.uniform(1.0 - jitter, 1.0 + jitter)
