"""Convergence, profile-convergence, simultaneity and threshold-census
experiments, plus a small-scale stochastic maximizer search benchmarked
against the finite-size ceiling.

All experiments are deterministic given their seeds: system draws, subset
sampling and the maximizer search's starting points all run on the portable
splitmix64 stream.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientTable, coefficient_table
from .construction import (ConstructionSpec, m_from_target,
                           sample_sparse_system)
from .laws import (CapExceededError, EntropyProfile, SystemLaw, _check_sizes,
                   _check_subset_cap, entropy, entropy_profile_exact,
                   size_k_masks, subset_entropies)
from .profiles import deficit_report, ic_limit, ic_n, ideal_profile
from .rng import SplitMix64

# Maximizer search: exponentiated-gradient step size, and the cap on the
# (d+1)^N cells of the subset lattice it evaluates at every step.
STEP_SIZE = 0.5
SEARCH_CAP_CELLS = 3**12

SWEEP_CSV_HEADER = ("family,d,N,M,seed,x_N,I_N,icn_at_xN,deficit,"
                    "sup_profile_gap")
CENSUS_CSV_HEADER = ("family,d,N,M,seed,y,k,epsilon,samples,frac_uniform,"
                     "se_uniform,frac_determining,se_determining")


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a convergence/simultaneity experiment.

    ``sup_profile_gap`` is max_k |h_X(k/N) - h*_x(k/N)| against the sweep's
    target entropy x (the limit profile the sequence should approach).
    """

    family: str
    d: int
    N: int
    M: int
    seed: int
    x_N: float
    I_N: float
    icn_at_xN: float
    deficit: float
    sup_profile_gap: float

    def csv_row(self) -> str:
        return (f"{self.family},{self.d},{self.N},{self.M},{self.seed},"
                f"{self.x_N!r},{self.I_N!r},{self.icn_at_xN!r},"
                f"{self.deficit!r},{self.sup_profile_gap!r}")


def _record_for(law: SystemLaw, profile: EntropyProfile, family: str,
                table: CoefficientTable, spec: ConstructionSpec,
                target_x: float) -> ExperimentRecord:
    report = deficit_report(law, table, profile=profile)
    return ExperimentRecord(
        family=family,
        d=spec.d,
        N=spec.N,
        M=spec.M,
        seed=spec.seed,
        x_N=report.x,
        I_N=report.normalized_intricacy,
        icn_at_xN=report.icn_x,
        deficit=report.deficit,
        sup_profile_gap=float(np.max(np.abs(
            profile.values - ideal_profile(target_x, spec.N).values))),
    )


def convergence_sweep(families, d: int, x: float, N_list, seeds, *,
                      keep_profiles: bool = False):
    """One sampled system per (N, seed) with M = floor(x*N); every family is
    evaluated on the same law.  Returns records sorted by (family, N, seed);
    with ``keep_profiles`` also returns {(N, seed): EntropyProfile}.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0,1)")
    # every exact profile's cap, before any coefficient table or law
    for N in N_list:
        _check_subset_cap(N)
    families = list(families)
    records = []
    profiles = {}
    for N in N_list:
        M = m_from_target(x, N)
        tables = {name: coefficient_table(measure, N)
                  for name, measure in families}
        for seed in seeds:
            spec = ConstructionSpec(d, N, M, seed)
            law = sample_sparse_system(spec)
            profile = entropy_profile_exact(law)
            if keep_profiles:
                profiles[(N, seed)] = profile
            for name, _ in families:
                records.append(
                    _record_for(law, profile, name, tables[name], spec, x))
    records.sort(key=lambda r: (r.family, r.N, r.seed))
    if keep_profiles:
        return records, profiles
    return records


@dataclass(frozen=True)
class GapRow:
    N: int
    mean_gap: float
    stderr: float
    samples: int


def profile_convergence(profiles_by_N: dict, x: float) -> list[GapRow]:
    """Per-N seed mean (and standard error) of sup_k |h_X - h*_x|."""
    rows = []
    for N in sorted(profiles_by_N):
        ideal = ideal_profile(x, N).values
        gaps = np.array([float(np.max(np.abs(p.values - ideal)))
                         for p in profiles_by_N[N]])
        se = gaps.std(ddof=1) / math.sqrt(gaps.size) if gaps.size > 1 else 0.0
        rows.append(GapRow(N, float(gaps.mean()), float(se), gaps.size))
    return rows


@dataclass(frozen=True)
class CensusReport:
    """Shares of sampled size-k subsets that are near-uniform or that
    nearly determine the whole system."""

    y: float
    k: int
    epsilon: float
    samples: int
    fraction_near_uniform: float
    se_uniform: float
    fraction_determining: float
    se_determining: float


def threshold_census(law: SystemLaw, x: float, y: float, epsilon: float,
                     samples: int, seed: int, *,
                     exhaustive: bool = False) -> CensusReport:
    """Sample uniform size-floor(y*N) subsets S (with replacement) and count
    those with H(X_S) > (1-eps)|S| log d and those with
    H(X | X_S) < eps * x * N log d.  Standard errors are binomial.  With
    ``exhaustive=True`` every size-k subset is counted once instead, within
    the mask cap of :func:`size_k_masks`.
    """
    if not 0.0 < y < 1.0:
        raise ValueError("y must lie in (0,1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0,1)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    N = law.N
    k = int(math.floor(y * N))
    if k < 1:
        raise ValueError(f"floor(y*N) = {k} must be >= 1")
    logd = math.log(law.d)
    h_full = entropy(law)
    uniform_cut = (1.0 - epsilon) * k * logd
    determine_cut = epsilon * x * N * logd
    masks = size_k_masks(N, k, None if exhaustive else SplitMix64(seed), samples)
    h_s = subset_entropies(law, masks)
    n_uniform = int(np.count_nonzero(h_s > uniform_cut))
    n_determining = int(np.count_nonzero(h_full - h_s < determine_cut))
    n = len(masks)
    fu, fd = n_uniform / n, n_determining / n
    return CensusReport(
        y=y, k=k, epsilon=epsilon, samples=n,
        fraction_near_uniform=fu,
        se_uniform=math.sqrt(fu * (1.0 - fu) / n),
        fraction_determining=fd,
        se_determining=math.sqrt(fd * (1.0 - fd) / n),
    )


# --- maximizer search ----------------------------------------------------


@dataclass(frozen=True)
class RestartResult:
    intricacy: float
    normalized_intricacy: float
    x: float
    certificate: float


@dataclass(frozen=True)
class SearchResult:
    law: SystemLaw
    intricacy: float
    certificate: float
    restarts: list[RestartResult] = field(default_factory=list)


def _lattice_factor(d: int, n: int):
    """E^(x)n for E = [I_d; 1^T], whose rows are the cells of the subset
    lattice of n axes (base d+1, digit d: summed out), and their kept axes."""
    E = np.vstack([np.eye(d), np.ones(d)])
    kept = np.append(np.ones(d, dtype=np.intp), 0)
    factor, k = np.ones((1, 1)), np.zeros(1, dtype=np.intp)
    for _ in range(n):
        factor = np.kron(factor, E)
        k = np.add.outer(k, kept).ravel()
    return factor, k


def _search_lattice(d: int, N: int, c: np.ndarray):
    """The ``A, B, u, shift`` of :func:`_intricacy` and
    :func:`_intricacy_grad`, built once per search.  I^c(p) =
    sum_{S != empty} 2 c_|S| H(X_S) - H(X), so a cell with kept axes S
    weighs u_S = -2 c_|S|, but 0 if S is empty and 1 more if S is full; the
    shift is the sum of u_S over the 2^N masks."""
    A, ka = _lattice_factor(d, N // 2)
    B, kb = _lattice_factor(d, N - N // 2)
    u = -2.0 * c
    u[0] = 0.0
    u[N] += 1.0
    shift = sum(math.comb(N, k) * u[k] for k in range(N + 1))
    return A, B, u[np.add.outer(ka, kb)], shift


def _weighted_log_cells(p: np.ndarray, A, B, u):
    """nu and u log nu on the (d+1)^N lattice cells: nu = A P B^T, for p as
    a d^floor(N/2) x d^ceil(N/2) matrix P, holds every subset marginal.
    Each product is an ``einsum`` (numpy's loops, not BLAS), so no bit
    depends on the BLAS thread count."""
    nu = np.einsum("ik,lk->il", np.einsum(
        "ij,jk->ik", A, p.reshape(A.shape[1], B.shape[1])), B)
    ulog = np.log(np.maximum(nu, 1e-300))
    ulog *= u
    return nu, ulog


def _intricacy(p: np.ndarray, A, B, u) -> float:
    """I^c(p) in nats: I = sum u nu log nu over the lattice cells."""
    nu, ulog = _weighted_log_cells(p, A, B, u)
    return float(np.einsum("ij,ij->", ulog, nu))


def _intricacy_grad(p: np.ndarray, A, B, u, shift) -> np.ndarray:
    """dI^c/dp = A^T (u log nu) B + shift, in the shape of p."""
    _, ulog = _weighted_log_cells(p, A, B, u)
    grad = np.einsum("jl,lk->jk", np.einsum("ij,il->jl", A, ulog), B) + shift
    return grad.reshape(p.shape)


def _check_search_size(d: int, N: int) -> None:
    """``LawValidationError`` for a bad d or N, ``CapExceededError`` if
    (d+1)^N > ``SEARCH_CAP_CELLS``."""
    _check_sizes(d, N)
    if N > SEARCH_CAP_CELLS.bit_length() or (d + 1)**N > SEARCH_CAP_CELLS:
        raise CapExceededError(
            f"dense search over (d+1)^N = {d + 1}^{N} lattice cells is above "
            f"SEARCH_CAP_CELLS = {SEARCH_CAP_CELLS}")


def maximizer_search(d: int, N: int, table: CoefficientTable, *,
                     restarts: int = 20, iterations: int = 200, seed: int = 0,
                     entropy_target: float | None = None,
                     penalty_weight: float = 20.0) -> SearchResult:
    """Stochastic mirror ascent over the simplex on d^N configurations.

    Exponentiated-gradient steps with 1/sqrt(t) decay; the optional entropy
    target enters through a squared penalty whose weight escalates over the
    iterations.  Each restart starts from a Dirichlet(1) draw on the
    splitmix64 stream of ``seed``: d^N Exp(1) draws -log(1 - u), normalized.
    The certificate ic_n(x_achieved) - I/(N log d) is nonnegative for every
    restart by the deficit identity.  Raises ``LawValidationError`` for a bad
    d or N, ``CapExceededError`` if (d+1)^N > ``SEARCH_CAP_CELLS``, and
    ``ValueError`` unless ``restarts >= 1``, ``iterations >= 0``, the entropy
    target (if any) is in [0, 1] and the penalty weight is finite and >= 0.
    """
    _check_search_size(d, N)
    if table.N != N:
        raise ValueError("table size mismatch")
    if restarts < 1 or iterations < 0:
        raise ValueError("maximizer search needs restarts >= 1 and "
                         "iterations >= 0")
    if entropy_target is not None and not 0.0 <= entropy_target <= 1.0:
        raise ValueError(f"entropy target {entropy_target!r} is not in [0, 1]")
    if not 0.0 <= penalty_weight < math.inf:
        raise ValueError(f"penalty weight {penalty_weight!r} is not a finite "
                         "number >= 0")
    rng = SplitMix64(seed)
    A, B, u, shift = _search_lattice(d, N, table.c)
    shape = (d,) * N
    norm = N * math.log(d)
    best = None
    results = []
    for _ in range(restarts):
        p = np.array([-math.log1p(-rng.uniform()) for _ in range(d**N)])
        p = np.maximum(p.reshape(shape) / p.sum(), 1e-12)
        p /= p.sum()
        for t in range(1, iterations + 1):
            grad = _intricacy_grad(p, A, B, u, shift)
            if entropy_target is not None:
                logp = np.log(np.maximum(p, 1e-300))
                h_n = float(-(p * logp).sum()) / norm
                weight = penalty_weight * t / iterations
                grad += 2.0 * weight * (h_n - entropy_target) * (1.0 + logp) / norm
            step = STEP_SIZE / math.sqrt(t)
            p = p * np.exp(step * (grad - grad.max()))
            p /= p.sum()
        law = SystemLaw.dense(d, N, p.ravel())
        value = _intricacy(p, A, B, u)
        x_ach = min(max(entropy(law) / norm, 0.0), 1.0)
        cert = ic_n(x_ach, table) - value / norm
        results.append(RestartResult(value, value / norm, x_ach, cert))
        if best is None or value > best[0]:
            best = (value, law, cert)
    return SearchResult(law=best[1], intricacy=best[0], certificate=best[2],
                        restarts=results)


# --- simultaneity ---------------------------------------------------------


@dataclass(frozen=True)
class FamilyTrend:
    family: str
    limit: float
    rows: list  # (N, mean_I_N, stderr, gap_to_limit)
    supported: bool


def simultaneity_check(families, d: int, x: float, N_list,
                       seeds) -> list[FamilyTrend]:
    """Evaluate every family's normalized intricacy trend on the SAME
    sampled law sequence and compare against each family's own limit
    i^c(x).  Emits a warning (not a failure) when x is outside a family's
    mixing-measure support, where the simultaneity guarantee does not apply.
    """
    families = list(families)
    records = convergence_sweep(families, d, x, N_list, seeds)
    by_family: dict[str, dict[int, list[float]]] = {}
    for r in records:
        by_family.setdefault(r.family, {}).setdefault(r.N, []).append(r.I_N)
    trends = []
    for name, measure in families:
        supported = measure.supports(x)
        if not supported:
            warnings.warn(
                f"x={x} is outside the support of family {name!r}; "
                "the simultaneity guarantee does not apply", stacklevel=2)
        limit = ic_limit(x, measure)
        rows = []
        for N in sorted(by_family[name]):
            vals = np.array(by_family[name][N])
            se = vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0
            rows.append((N, float(vals.mean()), float(se),
                         float(abs(vals.mean() - limit))))
        trends.append(FamilyTrend(name, limit, rows, supported))
    return trends
