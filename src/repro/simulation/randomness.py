"""Seeded randomness helpers used by workload generators.

Everything is built on ``random.Random`` instances passed around explicitly,
so experiments are reproducible from a single integer seed.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence

__all__ = ["ZipfSampler", "make_rng"]


def make_rng(seed: int) -> random.Random:
    """A dedicated RNG stream for one component, derived from ``seed``."""
    return random.Random(seed)


class ZipfSampler:
    """Sample integers ``0..n-1`` from a Zipf(s) distribution.

    ``skew == 0.0`` degenerates to the uniform distribution, matching the
    paper's sensitivity-analysis parameterisation (skewness in
    ``[0.0, 0.5, 1.0, 1.5]``).  Sampling is O(log n) via a precomputed CDF.
    """

    def __init__(self, n: int, skew: float, rng: random.Random):
        if n < 1:
            raise ValueError("n must be >= 1")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        self.n = n
        self.skew = skew
        self._rng = rng
        weights = [1.0 / math.pow(rank, skew) for rank in range(1, n + 1)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift
        self._cdf = cdf

    def sample(self) -> int:
        """Draw one value in ``[0, n)``; rank 0 is the most popular."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u)

    def probabilities(self) -> Sequence[float]:
        """The probability mass function, index = rank."""
        pmf = []
        prev = 0.0
        for c in self._cdf:
            pmf.append(c - prev)
            prev = c
        return pmf
