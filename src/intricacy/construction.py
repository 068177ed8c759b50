"""Sparse random support construction: the empirical measure of d^M i.i.d.
uniform configurations, its exact expected subset entropies, and the
nearly-constant-entropy envelope.

Writing B_k for a Binomial(d^M, d^-k) variable and
phi(x) = -x log(x)/log(d), the expected subset entropy of a size-k
sub-family is h_k = d^k E(phi(B_k d^-M)) in units of log d, with the two
equivalent stabler forms h_k = k + E(phi(B_k d^{k-M})) and
h_k = M + d^{k-M} E(phi(B_k)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientTable, coefficient_table
from .laws import (MAX_D, CapExceededError, EntropyProfile, SystemLaw,
                   _group_rows, _support_law, entropy_profile_exact)
from .profiles import g_functional
from .rng import SplitMix64

# Most configurations (d^M) one construction may draw.
SUPPORT_CAP = 1 << 20


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one sparse random system draw."""

    d: int
    N: int
    M: int
    seed: int

    def __post_init__(self):
        if not 2 <= self.d <= MAX_D:
            raise ValueError(f"d must be in 2..{MAX_D}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.M <= self.N:
            raise ValueError(f"need 0 <= M <= N, got M={self.M}, N={self.N}")


def m_from_target(x: float, N: int) -> int:
    """Support exponent M = floor(x*N) for a normalized entropy target."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0,1]")
    return int(math.floor(x * N))


def sample_sparse_system(spec: ConstructionSpec) -> SystemLaw:
    """Empirical measure of d^M i.i.d. uniform configurations.

    Each configuration is drawn coordinate by coordinate (coordinate 1
    first) with one bounded splitmix64 draw per symbol, so the output is a
    byte-exact function of the spec.  The d^M * N symbols come from one
    :meth:`SplitMix64.randbelow_array` call, which computes the stream in
    numpy blocks and equals scalar ``randbelow(d)`` calls value for value.
    Each distinct drawn row gets mass (number of draws) / d^M.  Raises
    :class:`CapExceededError` when d^M > ``SUPPORT_CAP``.
    """
    d, N, M = spec.d, spec.N, spec.M
    # d >= 2: refused on M before d**M, which grows without bound, is formed
    if M >= SUPPORT_CAP.bit_length() or d**M > SUPPORT_CAP:
        raise CapExceededError(
            f"d^M = {d}^{M} draws is above SUPPORT_CAP = {SUPPORT_CAP}")
    draws = d**M
    rows = SplitMix64(spec.seed).randbelow_array(d, draws * N)
    rows = rows.astype(np.uint8, copy=False).reshape(draws, N)
    configs, counts = _group_rows(rows, np.ones(draws), d)
    return _support_law(d, N, "sparse", configs, counts / draws)


def _phi(x: np.ndarray, d: int) -> np.ndarray:
    """phi(x) = -x log(x)/log(d), with phi(0) = 0."""
    out = np.zeros_like(x, dtype=float)
    pos = x > 0
    out[pos] = -x[pos] * np.log(x[pos]) / math.log(d)
    return out


def _binomial_pmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """P(B = j | lo <= B <= hi) for j = lo..hi, B ~ Binomial(n, p), 0 < p < 1.

    The log-ratios log P(j+1)/P(j) = log((n-j)/(j+1) * p/(1-p)) are
    summed outward from the mode, so no term under- or overflows before
    ``exp``, and the terms are normalized over the window.  A window of all
    of 0..n gives the binomial law itself.
    """
    js = np.arange(lo, hi, dtype=float)
    # one log of the whole ratio: half the rounding of two added logs
    steps = np.log((float(n) - js) / (js + 1.0) * (p / (1.0 - p)))
    m = min(max(int((n + 1) * p), lo), hi) - lo
    logq = np.zeros(hi - lo + 1)
    np.cumsum(steps[m:], out=logq[m + 1:])
    logq[:m] = -np.cumsum(steps[:m][::-1])[::-1]
    q = np.exp(logq)
    return q / np.add.reduce(q)


class ExpectedEntropyDetail(NamedTuple):
    """h_k in units of log d; ``truncated_tail_mass`` is Bernstein's bound
    (< 1e-30) on the mass outside its sum, 0.0 when the sum is all of 0..n."""

    value: float
    truncated_tail_mass: float


def expected_subset_entropy_detail(d: int, N: int, M: int,
                                   k: int) -> ExpectedEntropyDetail:
    """h_k in units of log d, and a bound on the binomial mass left out.

    With n = d^M draws, p = d^-k, mean np and sigma^2 = np(1-p), the sum
    runs over B in mean +/- t, t = 12 sigma + 50, cut at 0 and n.  By
    Bernstein's inequality the mass outside is at most
    2 exp(-t^2 / (2 (sigma^2 + t/3))) < 2 exp(-72) < 1e-30, for a large mean
    and a mean below 1 alike; that bound is ``truncated_tail_mass``.  The
    law comes from :func:`_binomial_pmf`, and the phi-weighted terms are
    added pairwise.
    """
    if not 0 <= k <= N:
        raise ValueError(f"need 0 <= k <= N, got k={k}")
    if not 0 <= M <= N:
        raise ValueError(f"need 0 <= M <= N, got M={M}")
    if k == 0:
        return ExpectedEntropyDetail(0.0, 0.0)
    n = d**M
    p = float(d) ** (-k)
    mean = n * p
    sigma = math.sqrt(mean * (1.0 - p))
    # 12 sigma holds the Gaussian tail, 50 the Poisson one of a small mean
    t = 12 * sigma + 50
    lo, hi = max(0, int(mean - t)), min(n, int(mean + t))
    tail = 0.0 if (lo, hi) == (0, n) else 2.0 * math.exp(
        -t * t / (2.0 * (sigma * sigma + t / 3.0)))
    pmf = _binomial_pmf(n, p, lo, hi)
    js = np.arange(lo, hi + 1, dtype=float)
    if k <= M:
        # first closed form: stable when the binomial mean d^{M-k} is large
        value = k + float(np.add.reduce(pmf * _phi(js * float(d) ** (k - M), d)))
    else:
        value = M + float(d) ** (k - M) * float(np.add.reduce(pmf * _phi(js, d)))
    return ExpectedEntropyDetail(value, tail)


def expected_subset_entropy(d: int, N: int, M: int, k: int) -> float:
    """h_k, the expected entropy of a size-k sub-family of the sparse
    random construction, in units of log d."""
    return expected_subset_entropy_detail(d, N, M, k).value


def entropy_envelope(d: int, M: int, k: int) -> tuple[float, float]:
    """Envelope containing h_k: (k - 2 d^{(k-M)/2}, k) for k <= M and
    (M - d^{M-k}, M) for k > M, in units of log d."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= M:
        return (k - 2.0 * float(d) ** ((k - M) / 2.0), float(k))
    return (M - float(d) ** (M - k), float(M))


@dataclass(frozen=True)
class RealizedProfile:
    """One sampled system together with its exact profile, normalized
    entropy and per-family normalized intricacies."""

    spec: ConstructionSpec
    law: SystemLaw
    profile: EntropyProfile
    normalized_entropy: float
    normalized_intricacy: dict


def realized_profile(spec: ConstructionSpec, families=()) -> RealizedProfile:
    """Sample the system and evaluate its exact profile plus one normalized
    intricacy per requested (name, MixingMeasure) family."""
    law = sample_sparse_system(spec)
    profile = entropy_profile_exact(law)
    x_n = float(profile.values[-1])
    intricacies = {}
    for name, measure in families:
        table: CoefficientTable = coefficient_table(measure, spec.N)
        intricacies[name] = g_functional(profile, table)
    return RealizedProfile(spec, law, profile, x_n, intricacies)
