"""Portable 64-bit pseudorandom generator for reproducible experiment streams.

All stochastic contracts of this package (sparse support draws, uniform
subset sampling, the maximizer search's starting points) are driven by
splitmix64, a tiny documented generator with published reference output
(state advances by the golden-ratio increment 0x9E3779B97F4A7C15; output
is a 64-bit finalizer of the state).  A scalar reference plus numpy block
draws that reproduce it keep the byte-exact stream portable across
platforms and languages: the generator is counter-based (output i is the
finalizer of seed + i*gamma), so wrapping uint64 arithmetic computes a
whole block of the stream at once.
"""
from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_GAMMA = 0x9E37_79B9_7F4A_7C15
# raw outputs computed per block by randbelow_array; a fixed size keeps its
# uint64 temporaries at 512 KB however many values are asked for
_BLOCK = 1 << 16


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

    def randbelow_array(self, bound: int, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`randbelow` as one array.

        ``bound`` must lie in 1..2^64-1.  The values and the final ``state``
        are exactly those of ``count`` scalar calls: each block of raw
        outputs is computed in uint64, and the raw values below
        2^64 mod bound, which the scalar rejection skips, are dropped in
        stream order.  The dtype is the smallest unsigned integer type
        that holds bound-1 (uint8 for bound <= 256).
        """
        if not 0 < bound <= _MASK64:
            raise ValueError("bound must be in 1..2^64-1")
        if count < 0:
            raise ValueError("count must be >= 0")
        threshold = (1 << 64) % bound
        bound64 = np.uint64(bound)
        out = np.empty(count, dtype=np.min_scalar_type(bound - 1))
        # offsets[i] = (i+1)*gamma mod 2^64: the counter steps of one block
        offsets = np.arange(1, min(count, _BLOCK) + 1, dtype=np.uint64)
        offsets *= np.uint64(_GAMMA)
        filled = 0
        while filled < count:
            z = offsets[:count - filled] + np.uint64(self.state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58_476D_1CE4_E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D0_49BB_1331_11EB)
            z ^= z >> np.uint64(31)
            # the block holds no more raw values than values still wanted,
            # so the scalar path would consume every one of them
            self.state = (self.state + z.size * _GAMMA) & _MASK64
            if threshold:
                z = z[z >= np.uint64(threshold)]
            out[filled:filled + z.size] = z % bound64
            filled += z.size
        return out

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
