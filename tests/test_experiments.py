import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy import (CapExceededError, LawValidationError, SplitMix64,
                       SystemLaw, coefficient_table, convergence_sweep,
                       deficit_report, diagonal_law, est_measure, ic_limit,
                       ic_n, intricacy_defn, maximizer_search,
                       p_symmetric_measure, parse_family, profile_convergence,
                       sample_sparse_system, simultaneity_check,
                       threshold_census, uniform_law, uniform_measure)
from intricacy.construction import ConstructionSpec
from intricacy.experiments import (CENSUS_CSV_HEADER, SEARCH_CAP_CELLS,
                                   SWEEP_CSV_HEADER, ExperimentRecord,
                                   _intricacy, _intricacy_grad,
                                   _search_lattice)

FAMILIES = [("est", est_measure()), ("uniform", uniform_measure()),
            ("p-sym:0.3", p_symmetric_measure(0.3))]


# --- sweep records ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    records, profiles = convergence_sweep(
        FAMILIES, d=2, x=0.5, N_list=[6, 8], seeds=range(8),
        keep_profiles=True)
    return records, profiles


def test_sweep_shape_and_order(small_sweep):
    records, profiles = small_sweep
    assert len(records) == 3 * 2 * 8
    keys = [(r.family, r.N, r.seed) for r in records]
    assert keys == sorted(keys)
    assert set(profiles) == {(N, s) for N in (6, 8) for s in range(8)}


def test_sweep_deterministic(small_sweep):
    records, _ = small_sweep
    again = convergence_sweep(FAMILIES, d=2, x=0.5, N_list=[6, 8],
                              seeds=range(8))
    assert records == again


def test_record_identity_and_bounds(small_sweep):
    records, _ = small_sweep
    for r in records:
        assert r.I_N == pytest.approx(r.icn_at_xN - r.deficit, abs=1e-9)
        assert r.I_N <= r.icn_at_xN + 1e-9
        for v in (r.x_N, r.I_N, r.icn_at_xN, r.deficit, r.sup_profile_gap):
            assert -1e-9 <= v <= 1 + 1e-9
        assert r.M == r.N // 2


def test_record_bound_gap_control(small_sweep):
    records, _ = small_sweep
    measures = dict(FAMILIES)
    for r in records:
        lim = ic_limit(r.x_N, measures[r.family])
        assert abs(r.icn_at_xN - lim) <= 0.5 / math.sqrt(r.N) + 1e-12


def test_record_fields_are_the_deficit_report(small_sweep):
    records, profiles = small_sweep
    tables = {(name, N): coefficient_table(measure, N)
              for name, measure in FAMILIES for N in (6, 8)}
    for r in records:
        law = sample_sparse_system(ConstructionSpec(2, r.N, r.M, r.seed))
        rep = deficit_report(law, tables[(r.family, r.N)],
                             profile=profiles[(r.N, r.seed)])
        assert r.x_N == rep.x
        assert r.I_N == rep.normalized_intricacy
        assert r.icn_at_xN == rep.icn_x
        assert r.deficit == rep.deficit


def test_csv_row_roundtrip(small_sweep):
    records, _ = small_sweep
    header = SWEEP_CSV_HEADER.split(",")
    row = records[0].csv_row().split(",")
    assert len(row) == len(header) == 10
    parsed = ExperimentRecord(
        family=row[0], d=int(row[1]), N=int(row[2]), M=int(row[3]),
        seed=int(row[4]), x_N=float(row[5]), I_N=float(row[6]),
        icn_at_xN=float(row[7]), deficit=float(row[8]),
        sup_profile_gap=float(row[9]))
    assert parsed == records[0]


def test_sweep_rejects_degenerate_target():
    with pytest.raises(ValueError):
        convergence_sweep(FAMILIES, d=2, x=0.0, N_list=[4], seeds=[0])


def test_profile_convergence_rows(small_sweep):
    _, profiles = small_sweep
    by_N = {}
    for (N, _), prof in profiles.items():
        by_N.setdefault(N, []).append(prof)
    rows = profile_convergence(by_N, x=0.5)
    assert [row.N for row in rows] == [6, 8]
    for row in rows:
        assert row.samples == 8
        assert 0.0 <= row.mean_gap <= 1.0
        assert row.stderr >= 0.0


# --- threshold census -----------------------------------------------------------

@pytest.fixture(scope="module")
def sparse_law():
    return sample_sparse_system(ConstructionSpec(2, 14, 7, seed=42))


def test_census_small_subsets_nearly_uniform(sparse_law):
    rep = threshold_census(sparse_law, x=0.5, y=0.25, epsilon=0.1,
                           samples=400, seed=7)
    assert rep.k == 3
    assert rep.fraction_near_uniform >= 0.8
    assert rep.samples == 400


def test_census_large_subsets_nearly_determining(sparse_law):
    rep = threshold_census(sparse_law, x=0.5, y=0.75, epsilon=0.1,
                           samples=400, seed=7)
    assert rep.k == 10
    assert rep.fraction_determining >= 0.8


def test_census_epsilon_monotone(sparse_law):
    # a stricter epsilon can only shrink both fractions
    for y in (0.25, 0.75):
        prev_u, prev_d = 1.0, 1.0
        for eps in (0.3, 0.2, 0.1, 0.05):
            rep = threshold_census(sparse_law, x=0.5, y=y, epsilon=eps,
                                   samples=300, seed=11)
            assert rep.fraction_near_uniform <= prev_u + 1e-12
            assert rep.fraction_determining <= prev_d + 1e-12
            prev_u, prev_d = rep.fraction_near_uniform, rep.fraction_determining


def test_census_exhaustive_uniform_law():
    # every subset of a product of fair bits is exactly uniform and none
    # determines the rest
    rep = threshold_census(uniform_law(2, 8), x=1.0, y=0.5, epsilon=0.05,
                           samples=1, seed=0, exhaustive=True)
    assert rep.samples == math.comb(8, 4)
    assert rep.fraction_near_uniform == 1.0
    assert rep.fraction_determining == 0.0
    assert rep.se_uniform == 0.0


def test_census_exhaustive_diagonal_law():
    # any nonempty subset of the fully coupled system determines everything
    rep = threshold_census(diagonal_law(2, 8), x=1 / 8, y=0.5, epsilon=0.5,
                           samples=1, seed=0, exhaustive=True)
    assert rep.fraction_determining == 1.0


def test_census_validation():
    law = uniform_law(2, 6)
    with pytest.raises(ValueError):
        threshold_census(law, x=0.5, y=0.0, epsilon=0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        threshold_census(law, x=0.5, y=0.5, epsilon=1.5, samples=10, seed=0)
    with pytest.raises(ValueError):
        threshold_census(law, x=0.5, y=0.5, epsilon=0.1, samples=0, seed=0)
    with pytest.raises(ValueError):
        threshold_census(law, x=0.5, y=0.05, epsilon=0.1, samples=10, seed=0)
    # C(25, 12) = 5,200,300 size-12 masks: above the 2^22 enumeration cap
    with pytest.raises(CapExceededError):
        threshold_census(diagonal_law(2, 25), x=0.5, y=0.5, epsilon=0.1,
                         samples=1, seed=0, exhaustive=True)


def test_census_header_schema():
    assert CENSUS_CSV_HEADER.count(",") == 12


# --- maximizer search -------------------------------------------------------------

def test_maximizer_approaches_known_optimum_n2():
    # at d=2, N=2 the coupled fair pair attains the EST ceiling 1/6
    table = coefficient_table(est_measure(), 2)
    res = maximizer_search(2, 2, table, restarts=8, iterations=300, seed=1)
    norm = 2 * math.log(2)
    assert res.intricacy / norm >= 1 / 6 - 0.005
    assert res.certificate >= -1e-9
    assert res.certificate <= 0.01


def test_maximizer_certificates_nonnegative():
    table = coefficient_table(uniform_measure(), 3)
    res = maximizer_search(2, 3, table, restarts=6, iterations=150, seed=3)
    for r in res.restarts:
        assert r.certificate >= -1e-9
        assert r.normalized_intricacy <= ic_n(r.x, table) + 1e-9


def test_maximizer_entropy_target_respected():
    table = coefficient_table(est_measure(), 3)
    res = maximizer_search(2, 3, table, restarts=6, iterations=300, seed=5,
                           entropy_target=0.5)
    from intricacy import entropy
    x = entropy(res.law) / (3 * math.log(2))
    assert abs(x - 0.5) < 0.1


def test_maximizer_deterministic():
    table = coefficient_table(est_measure(), 2)
    a = maximizer_search(2, 2, table, restarts=3, iterations=50, seed=9)
    b = maximizer_search(2, 2, table, restarts=3, iterations=50, seed=9)
    assert a.intricacy == b.intricacy
    assert np.array_equal(a.law.table, b.law.table)


@pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (2, 4), (3, 2), (3, 3)])
def test_intricacy_and_grad_value_and_gradient(d, N):
    table = coefficient_table(est_measure(), N)
    p = np.random.default_rng(17 * d + N).dirichlet(np.ones(d**N))
    A, B, u, shift = _search_lattice(d, N, table.c)
    value = _intricacy(p.reshape((d,) * N), A, B, u)
    grad = _intricacy_grad(p.reshape((d,) * N), A, B, u, shift)
    assert value == pytest.approx(
        intricacy_defn(SystemLaw.dense(d, N, p), table), abs=1e-12)
    h = 1e-6
    for x in range(d**N):
        e = np.zeros(d**N)
        e[x] = h
        up = _intricacy((p + e).reshape((d,) * N), A, B, u)
        down = _intricacy((p - e).reshape((d,) * N), A, B, u)
        assert grad.ravel()[x] == pytest.approx((up - down) / (2 * h), abs=1e-6)


def _intricacy_and_grad_per_call(p, c):
    """The search objective with its lattice factors, cell weights and shift
    built on every call, cell by cell from the base-(d+1) digits: the
    reference the hoisted form must match bit for bit."""
    d, N = p.shape[0], p.ndim
    u = -2.0 * c
    u[0] = 0.0
    u[N] += 1.0

    def factor(n):
        cells = list(itertools.product(range(d + 1), repeat=n))
        configs = list(itertools.product(range(d), repeat=n))
        F = np.array([[float(all(a in (d, x) for a, x in zip(cell, config)))
                       for config in configs] for cell in cells])
        return F, [sum(a != d for a in cell) for cell in cells]

    A, ka = factor(N // 2)
    B, kb = factor(N - N // 2)
    w = np.array([[u[i + j] for j in kb] for i in ka])
    shift = sum(math.comb(N, k) * u[k] for k in range(N + 1))
    nu = np.einsum("ik,lk->il", np.einsum(
        "ij,jk->ik", A, p.reshape(A.shape[1], B.shape[1])), B)
    ulog = np.log(np.maximum(nu, 1e-300))
    ulog *= w
    value = float(np.einsum("ij,ij->", ulog, nu))
    grad = np.einsum("jl,lk->jk", np.einsum("ij,il->jl", A, ulog), B) + shift
    return value, grad.reshape(p.shape)


@pytest.mark.parametrize("d,N", [(2, 1), (2, 6), (3, 4)])
@pytest.mark.parametrize("family", ["est", "uniform", "p-sym:0.3"])
def test_intricacy_and_grad_matches_per_call_weights_bitwise(d, N, family):
    table = coefficient_table(parse_family(family), N)
    A, B, u, shift = _search_lattice(d, N, table.c)
    gen = np.random.default_rng(d * 100 + N)
    for _ in range(3):
        p = gen.dirichlet(np.ones(d**N)).reshape((d,) * N)
        value = _intricacy(p, A, B, u)
        grad = _intricacy_grad(p, A, B, u, shift)
        want_value, want_grad = _intricacy_and_grad_per_call(p, table.c)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


def _naive_gradient(p: dict, N: int, c) -> dict:
    """dI/dp(x) = (1 + log p(x)) - sum_{S != empty} 2 c_|S| (1 + log nu_S(x_S)),
    with every marginal nu_S a dict of projected configurations."""
    grad = {x: 1.0 + math.log(px) for x, px in p.items()}
    for k in range(1, N + 1):
        for S in itertools.combinations(range(N), k):
            nu = {}
            for x, px in p.items():
                xs = tuple(x[i] for i in S)
                nu[xs] = nu.get(xs, 0.0) + px
            for x in p:
                xs = tuple(x[i] for i in S)
                grad[x] -= 2.0 * c[k] * (1.0 + math.log(nu[xs]))
    return grad


@given(d=st.integers(2, 4), N=st.integers(1, 5),
       family=st.sampled_from(["est", "uniform", "p-sym:0.3"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_intricacy_and_grad_match_the_definition_and_dict_marginals(
        d, N, family, seed):
    table = coefficient_table(parse_family(family), N)
    p = np.random.default_rng(seed).dirichlet(np.ones(d**N))
    p = np.maximum(p, 1e-12)
    p /= p.sum()
    A, B, u, shift = _search_lattice(d, N, table.c)
    value = _intricacy(p.reshape((d,) * N), A, B, u)
    grad = _intricacy_grad(p.reshape((d,) * N), A, B, u, shift)
    assert value == pytest.approx(
        intricacy_defn(SystemLaw.dense(d, N, p), table), abs=1e-12)
    configs = itertools.product(range(d), repeat=N)
    want = _naive_gradient(dict(zip(configs, p.tolist())), N, table.c)
    assert np.allclose(grad.ravel(), list(want.values()), rtol=0.0, atol=1e-12)


def test_maximizer_caps():
    assert SEARCH_CAP_CELLS == 3**12
    for d, N in [(2, 13), (3, 10), (4, 9)]:
        with pytest.raises(CapExceededError, match="SEARCH_CAP_CELLS"):
            maximizer_search(d, N, coefficient_table(est_measure(), N))
    # refused on N alone, before 3^(10^9) or the table is looked at
    with pytest.raises(CapExceededError, match="SEARCH_CAP_CELLS"):
        maximizer_search(2, 10**9, coefficient_table(est_measure(), 2))
    with pytest.raises(ValueError):
        maximizer_search(2, 2, coefficient_table(est_measure(), 3))


@pytest.mark.parametrize("d,N", [(4, 3), (2, 12), (3, 9), (4, 8), (256, 2)])
def test_maximizer_runs_up_to_the_cell_cap(d, N):
    res = maximizer_search(d, N, coefficient_table(est_measure(), N),
                           restarts=1, iterations=1, seed=2)
    assert res.law.d == d and res.law.N == N
    assert res.certificate >= -1e-9


@pytest.mark.parametrize("d", [-2, 0, 1, 257])
def test_maximizer_checks_sizes_first(d):
    # before the cap, the other arguments and any restart
    with pytest.raises(LawValidationError, match="alphabet size"):
        maximizer_search(d, 2, coefficient_table(est_measure(), 2),
                         restarts=0)


def test_maximizer_memory_is_a_few_lattices():
    import tracemalloc
    table = coefficient_table(est_measure(), 12)
    tracemalloc.start()
    try:
        maximizer_search(2, 12, table, restarts=1, iterations=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the weights, nu and u log nu on the 3^12 cells; a 2^12 x 2^12 index
    # matrix of every subset's keys would be 128 MB
    assert peak <= 8 * 8 * 3**12


@pytest.mark.parametrize("restarts,iterations", [(0, 10), (-1, 10), (1, -1)])
def test_maximizer_rejects_empty_search(restarts, iterations):
    with pytest.raises(ValueError):
        maximizer_search(2, 2, coefficient_table(est_measure(), 2),
                         restarts=restarts, iterations=iterations)


@pytest.mark.parametrize("option,value", [
    ("entropy_target", 2.0), ("entropy_target", -0.5),
    ("entropy_target", math.nan), ("penalty_weight", -5.0),
    ("penalty_weight", math.inf), ("penalty_weight", math.nan)])
def test_maximizer_rejects_bad_target_or_penalty(option, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        maximizer_search(2, 2, coefficient_table(est_measure(), 2),
                         restarts=1, iterations=2, **{option: value})


def test_maximizer_accepts_edge_targets_and_zero_penalty():
    table = coefficient_table(est_measure(), 2)
    for target in (0.0, 1.0):
        res = maximizer_search(2, 2, table, restarts=1, iterations=2,
                               entropy_target=target, penalty_weight=0.0)
        assert res.certificate >= -1e-9


def test_maximizer_starts_on_the_splitmix64_stream():
    # a Dirichlet(1) start is d^N Exp(1) draws -log(1 - u), normalized
    stream = SplitMix64(4)
    draws = np.array([-math.log1p(-stream.uniform()) for _ in range(8)])
    res = maximizer_search(2, 3, coefficient_table(est_measure(), 3),
                           restarts=1, iterations=0, seed=4)
    assert np.allclose(res.law.table, draws / draws.sum(), rtol=1e-12, atol=0.0)
    assert type(res.intricacy) is float


# --- simultaneity -------------------------------------------------------------------

def test_simultaneity_all_families_trend(small_sweep):
    import warnings as _warnings
    with _warnings.catch_warnings():
        # p-sym:0.3 has no atom at 1/2, so a support warning is expected
        _warnings.simplefilter("ignore")
        trends = simultaneity_check(FAMILIES, d=2, x=0.5, N_list=[6, 8],
                                    seeds=range(8))
    assert {t.family for t in trends} == {"est", "uniform", "p-sym:0.3"}
    assert [t.supported for t in trends] == [True, True, False]
    for t in trends:
        assert t.limit == pytest.approx(
            ic_limit(0.5, dict(FAMILIES)[t.family]), abs=1e-14)
        gaps = [row[3] for row in t.rows]
        # the N=8 mean should sit no farther from the limit than N=6
        assert gaps[-1] <= gaps[0] + 0.05


def test_simultaneity_warns_outside_support():
    fams = [("uniform", uniform_measure())]
    with pytest.warns(UserWarning):
        simultaneity_check(fams, d=2, x=0.3, N_list=[6], seeds=range(3))
