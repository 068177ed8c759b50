"""Portable 64-bit pseudorandom generator for reproducible experiment streams.

All stochastic contracts of this package (sparse support draws, uniform
subset sampling, the maximizer search's starting points) are driven by
splitmix64, a tiny documented generator with published reference output
(state advances by the golden-ratio increment 0x9E3779B97F4A7C15; output
is a 64-bit finalizer of the state).  A pure Python implementation keeps
the byte-exact stream trivially portable across platforms and languages.
"""
from __future__ import annotations

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_GAMMA = 0x9E37_79B9_7F4A_7C15


class SplitMix64:
    """splitmix64 stream seeded by a 64-bit integer.

    Reference output from seed 0:
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) % bound
        while True:
            r = self.next_uint64()
            if r >= threshold:
                return r % bound

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def sample_subset(self, n: int, k: int) -> tuple[int, ...]:
        """Uniform size-k subset of {0,...,n-1} via a partial Fisher-Yates
        shuffle; returns sorted coordinate indices."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))

    def sample_subset_mask(self, n: int, k: int) -> int:
        """Like :meth:`sample_subset` but packed as a bitmask
        (bit i set means coordinate i+1 is in the subset)."""
        mask = 0
        for i in self.sample_subset(n, k):
            mask |= 1 << i
        return mask
