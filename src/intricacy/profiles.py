"""Intricacy evaluation, ideal profiles, finite-size and limiting intricacy
ceilings, the weighted profile norm, and the deficit identity.

Two evaluation routes are kept deliberately distinct: the definition sums
coefficient-weighted mutual informations over every bipartition, while the
profile route evaluates 2 E h(beta_N) - h(1) on the entropy profile.  For
exact profiles the two agree to floating precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTable, MixingMeasure
from .laws import (EntropyProfile, SystemLaw, all_subset_entropies,
                   entropy_profile_exact)


def intricacy_defn(law: SystemLaw, table: CoefficientTable) -> float:
    """I^c(X) = sum over all subsets S of c^N_{|S|} MI(X_S, X_{S^c}), nats."""
    if table.N != law.N:
        raise ValueError(f"table size {table.N} != law size {law.N}")
    H = all_subset_entropies(law)
    mi = H + H[::-1] - H[-1]
    k = np.bitwise_count(np.arange(H.size, dtype=np.uint32))  # uint8
    # a pairwise sum: BLAS dots over 2^N terms split by thread count
    return float(np.add.reduce(table.c[k] * mi))


def g_functional(profile: EntropyProfile, table: CoefficientTable) -> float:
    """G^c_N(h) = 2 E h(beta_N) - h(1) of a law's profile, dimensionless."""
    if table.N != profile.N:
        raise ValueError(f"table size {table.N} != profile size {profile.N}")
    G = float(2.0 * np.dot(table.p, profile.values) - profile.values[-1])
    return max(G, 0.0)  # every mutual information is >= 0, so I^c is too


def intricacy_from_profile(profile: EntropyProfile, table: CoefficientTable,
                           d: int) -> float:
    """Intricacy in nats recovered from the entropy profile."""
    return profile.N * math.log(d) * g_functional(profile, table)


def ideal_profile(x: float, N: int) -> EntropyProfile:
    """h*_x(t) = min(t, x) sampled on the grid k/N."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x!r}")
    t = np.arange(N + 1) / N
    return EntropyProfile(N, np.minimum(t, x))


def ic_n(x: float, table: CoefficientTable) -> float:
    """Finite-size ceiling i^c_N(x) = 2 E(x ^ beta_N) - x."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x!r}")
    N = table.N
    return float(2.0 * np.dot(table.p, np.minimum(np.arange(N + 1) / N, x)) - x)


def ic_limit(x: float, measure: MixingMeasure) -> float:
    """Limiting ceiling i^c(x) = 2 E(x ^ W_c) - x, in closed form.

    Atoms contribute 2*mass*min(x,w); the uniform-density component
    contributes 2(x - x^2/2).  Specializes to x(1-x) for the neural
    complexity, min(x,1-x) for the uniform intricacy and
    min(x,1-x,p,1-p) for the symmetric p-intricacy.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x!r}")
    val = 2.0 * sum(m * min(x, w) for w, m in measure.atoms)
    val += measure.lebesgue_mass * (2.0 * x - x * x)
    return val - x


def profile_norm(h: EntropyProfile, g: EntropyProfile,
                 table: CoefficientTable) -> float:
    """||h - g||_{c,N} = E |h(beta_N) - g(beta_N)|."""
    if h.N != g.N or h.N != table.N:
        raise ValueError("profiles and table must share N")
    return float(np.dot(table.p, np.abs(h.values - g.values)))


@dataclass(frozen=True)
class DeficitReport:
    """Exact decomposition I^c(X)/(N log d) = i^c_N(x) - deficit at
    x = H(X)/(N log d).

    ``deficit`` is the exact gap 2 ||h_X - h*_x||_{c,N}: since the G
    functional weights each profile value by 2 c_k C(N,k), the distance to
    the ideal profile enters the identity with a factor of two.
    """

    x: float
    icn_x: float
    deficit: float
    normalized_intricacy: float
    d: int
    N: int
    family: str = ""

    def to_json_dict(self) -> dict:
        return {"x": self.x, "icn_x": self.icn_x, "deficit": self.deficit,
                "normalized_intricacy": self.normalized_intricacy,
                "d": self.d, "N": self.N, "family": self.family}


def deficit_report(law: SystemLaw, table: CoefficientTable, *,
                   family: str = "",
                   profile: EntropyProfile | None = None) -> DeficitReport:
    """Evaluate the deficit identity for one law and one coefficient table.

    The subset entropies are computed once per law and cached on it (see
    :func:`all_subset_entropies`), so calls for several families share one
    kernel run with or without ``profile``.  ``profile``, an exact profile
    of ``law`` already computed, is only a shortcut: it skips averaging the
    cached entropies by subset size again.
    """
    if profile is None:
        profile = entropy_profile_exact(law)
    x = min(max(float(profile.values[-1]), 0.0), 1.0)
    icn = ic_n(x, table)
    deficit = 2.0 * profile_norm(profile, ideal_profile(x, law.N), table)
    return DeficitReport(
        x=x,
        icn_x=icn,
        deficit=deficit,
        normalized_intricacy=g_functional(profile, table),
        d=law.d,
        N=law.N,
        family=family,
    )
