"""Intricacy coefficient systems c^N_k generated by symmetric mixing
measures on [0,1].

A mixing measure is restricted to finitely many atoms plus a uniform-density
component, which covers the three named families exactly and keeps all
moments in closed form: the atom part of c^N_k is sum of mass*w^k*(1-w)^(N-k)
and the uniform part is the Beta integral k!(N-k)!/(N+1)!.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .laws import CapExceededError

MEASURE_TOL = 1e-12
# How near an atom x must lie to be in a measure's support.
ATOM_TOL = 1e-9


class MeasureValidationError(ValueError):
    """Mixing measure violates symmetry or normalization."""


class TableValidationError(ValueError):
    """Coefficient table violates its defining constraints."""


@dataclass(frozen=True)
class MixingMeasure:
    """Symmetric probability measure on [0,1]: atoms ((location, mass), ...)
    plus ``lebesgue_mass`` of uniform density."""

    atoms: tuple[tuple[float, float], ...] = ()
    lebesgue_mass: float = 0.0
    name: str = ""

    def __post_init__(self):
        total = self.lebesgue_mass + sum(m for _, m in self.atoms)
        if abs(total - 1.0) > MEASURE_TOL:
            raise MeasureValidationError(f"measure mass {total!r} != 1")
        if not 0.0 <= self.lebesgue_mass <= 1.0:
            raise MeasureValidationError("lebesgue_mass outside [0,1]")
        for w, m in self.atoms:
            if not 0.0 <= w <= 1.0:
                raise MeasureValidationError(f"atom location {w!r} outside [0,1]")
            if m <= 0.0:
                raise MeasureValidationError("atom masses must be positive")
            if abs(self.mass_at(1.0 - w) - m) > MEASURE_TOL:
                raise MeasureValidationError(
                    f"measure not symmetric: atom at {w!r} has no mirror")

    def mass_at(self, w: float) -> float:
        return sum(m for loc, m in self.atoms if abs(loc - w) <= MEASURE_TOL)

    def supports(self, x: float) -> bool:
        """Literal support membership: any atom within ``ATOM_TOL`` of x, or
        anywhere in [0,1] when the uniform component is present."""
        if self.lebesgue_mass > 0.0 and 0.0 <= x <= 1.0:
            return True
        return any(abs(loc - x) <= ATOM_TOL for loc, _ in self.atoms)


def est_measure() -> MixingMeasure:
    """Edelman-Sporns-Tononi neural complexity: uniform density on [0,1]."""
    return MixingMeasure((), 1.0, name="est")


def uniform_measure() -> MixingMeasure:
    """Uniform intricacy: point mass at 1/2 (c^N_k = 2^-N)."""
    return MixingMeasure(((0.5, 1.0),), 0.0, name="uniform")


def p_symmetric_measure(p: float) -> MixingMeasure:
    """Symmetric p-intricacy: masses 1/2 at p and 1-p (0 < p < 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p!r}")
    if p == 0.5:
        return uniform_measure()
    lo, hi = min(p, 1.0 - p), max(p, 1.0 - p)
    return MixingMeasure(((lo, 0.5), (hi, 0.5)), 0.0, name=f"p-sym:{p:g}")


def parse_family(shorthand: str) -> MixingMeasure:
    """CLI shorthands: ``est``, ``uniform``, ``p-sym:<p>``."""
    s = shorthand.strip().lower()
    if s == "est":
        return est_measure()
    if s == "uniform":
        return uniform_measure()
    if s.startswith("p-sym:"):
        return p_symmetric_measure(float(s.split(":", 1)[1]))
    raise ValueError(f"unknown intricacy family {shorthand!r}")


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients c^N_k for k = 0..N of an intricacy at size N, and the
    law of D_N, p_k = C(N,k) c^N_k, that every profile route weighs by:
    both read-only, ``p`` formed once here."""

    N: int
    c: np.ndarray
    p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.c.size != self.N + 1:
            raise TableValidationError("table needs N+1 coefficients")
        object.__setattr__(self, "p", self.c * binomials(self.N))
        self.c.setflags(write=False)
        self.p.setflags(write=False)


@dataclass(frozen=True)
class DnLaw:
    """Law of the coefficient-induced random subset size D_N:
    p_k = C(N,k) * c^N_k."""

    N: int
    p: np.ndarray

    def expectation(self, f) -> float:
        """E f(D_N / N) for a function on the grid {0, 1/N, ..., 1}."""
        ks = np.arange(self.N + 1)
        return float(np.dot(self.p, [f(k / self.N) for k in ks]))


@lru_cache(maxsize=None)
def coefficient_table(measure: MixingMeasure, N: int) -> CoefficientTable:
    """c^N_k = E((1-W)^(N-k) W^k) under the mixing measure, in closed form.

    The table is symmetrized (exactly) after assembly so that
    c_k == c_{N-k} holds bit-for-bit despite rounding in 1-w.  Raises
    ``CapExceededError`` when the table leaves float range: when (N+1) C(N,
    N/2), the reciprocal of the smallest uniform-density coefficient, is
    above the largest float, from N = 1020 on.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    # C(2048, 1024) > 2^2000: larger N are refused before the binomial
    if (N.bit_length() > 11
            or (N + 1) * math.comb(N, N // 2) > sys.float_info.max):
        raise CapExceededError(
            f"the coefficient table at N={N} leaves float range: (N+1) "
            "C(N, N/2) is above the largest float")
    ks = np.arange(N + 1)
    c = np.zeros(N + 1)
    for w, m in measure.atoms:
        c += m * w**ks * (1.0 - w) ** (N - ks)
    if measure.lebesgue_mass:
        beta = np.array([1.0 / ((N + 1) * math.comb(N, k)) for k in ks])
        c += measure.lebesgue_mass * beta
    c = 0.5 * (c + c[::-1])
    return CoefficientTable(N, c)


def binomials(N: int) -> np.ndarray:
    """C(N,k) for k = 0..N, exact integers converted to float."""
    return np.array([math.comb(N, k) for k in range(N + 1)], dtype=float)


def dn_law(table: CoefficientTable) -> DnLaw:
    if np.any(table.p < 0) or abs(table.p.sum() - 1.0) > MEASURE_TOL:
        raise TableValidationError("coefficient table does not induce a law")
    return DnLaw(table.N, table.p)


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per invariant of a coefficient table.  ``pascal`` is None
    when no predecessor table was supplied."""

    nonnegative: bool
    symmetric: bool
    unit_mass: bool
    pascal: bool | None
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        checks = [self.nonnegative, self.symmetric, self.unit_mass]
        if self.pascal is not None:
            checks.append(self.pascal)
        return all(checks)


def validate_coefficients(
        table: CoefficientTable,
        predecessor: CoefficientTable | None = None) -> ValidationReport:
    """Check c_k >= 0, c_k = c_{N-k}, sum C(N,k) c_k = 1, and (optionally)
    Pascal consistency c^{N-1}_k = c^N_k + c^N_{k+1}, each within
    ``MEASURE_TOL``.  Reports, never raises.
    """
    c = table.c
    nonneg = bool(np.all(c >= 0))
    sym_err = float(np.max(np.abs(c - c[::-1]))) if c.size else 0.0
    mass = float(np.dot(c, binomials(table.N)))
    pascal = None
    pascal_err = None
    if predecessor is not None:
        if predecessor.N != table.N - 1:
            pascal = False
            pascal_err = float("nan")
        else:
            pascal_err = float(np.max(np.abs(predecessor.c - (c[:-1] + c[1:]))))
            pascal = pascal_err <= MEASURE_TOL
    return ValidationReport(
        nonnegative=nonneg,
        symmetric=sym_err <= MEASURE_TOL,
        unit_mass=abs(mass - 1.0) <= MEASURE_TOL,
        pascal=pascal,
        details={"symmetry_error": sym_err, "mass": mass,
                 "pascal_error": pascal_err},
    )
