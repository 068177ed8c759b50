import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy import (CapExceededError, ConstructionSpec, SplitMix64,
                       SystemLaw, entropy, entropy_profile_exact, est_measure,
                       expected_subset_entropy, entropy_envelope, m_from_target,
                       realized_profile, sample_sparse_system, subset_entropy)
from intricacy.construction import (_binomial_pmf,
                                    expected_subset_entropy_detail)


# --- sampling ---------------------------------------------------------------

def test_sampling_deterministic_byte_for_byte():
    spec = ConstructionSpec(d=2, N=10, M=5, seed=1234)
    a = sample_sparse_system(spec)
    b = sample_sparse_system(spec)
    assert np.array_equal(a.configs, b.configs)
    assert np.array_equal(a.probs, b.probs)


def test_sampling_seed_sensitivity():
    a = sample_sparse_system(ConstructionSpec(2, 10, 5, seed=1))
    b = sample_sparse_system(ConstructionSpec(2, 10, 5, seed=2))
    assert not (np.array_equal(a.configs, b.configs)
                and np.array_equal(a.probs, b.probs))


def test_sampling_matches_raw_generator_stream():
    # one bounded draw per coordinate, coordinate 1 first
    spec = ConstructionSpec(d=3, N=4, M=1, seed=77)
    rng = SplitMix64(77)
    expected = [tuple(rng.randbelow(3) for _ in range(4)) for _ in range(3)]
    law = sample_sparse_system(spec)
    counts = {}
    for cfg in expected:
        counts[cfg] = counts.get(cfg, 0) + 1
    configs, probs = law.support()
    got = {tuple(int(s) for s in c): float(p) for c, p in zip(configs, probs)}
    assert got == {c: n / 3 for c, n in counts.items()}


@pytest.mark.parametrize("d,N,M", [(2, 6, 4), (3, 5, 3), (5, 4, 2),
                                   (7, 3, 2), (256, 3, 1)])
def test_sampling_equals_scalar_draws(d, N, M):
    # the block draws reproduce one scalar randbelow(d) call per symbol
    rng = SplitMix64(91)
    draws = d**M
    counts = collections.Counter(
        tuple(rng.randbelow(d) for _ in range(N)) for _ in range(draws))
    expected = SystemLaw.sparse(d, N, list(counts),
                                [n / draws for n in counts.values()])
    law = sample_sparse_system(ConstructionSpec(d, N, M, seed=91))
    assert np.array_equal(law.configs, expected.configs)
    assert np.array_equal(law.probs, expected.probs)


def test_m_zero_is_a_point_mass():
    law = sample_sparse_system(ConstructionSpec(2, 6, 0, seed=5))
    assert law.probs.size == 1
    assert entropy(law) == 0.0


def test_entropy_at_most_m_log_d():
    for seed in range(5):
        for d, N, M in ((2, 8, 3), (2, 8, 8), (3, 5, 2)):
            law = sample_sparse_system(ConstructionSpec(d, N, M, seed=seed))
            assert entropy(law) <= M * math.log(d) + 1e-12
            assert law.probs.size <= d**M


def test_support_cap_enforced():
    # d^M = 2^21 draws, one power of 2 above the cap
    with pytest.raises(CapExceededError, match=r"2\^21 draws .* = 1048576"):
        sample_sparse_system(ConstructionSpec(2, 30, 21, seed=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec(2, 4, 5, seed=0)
    with pytest.raises(ValueError):
        ConstructionSpec(1, 4, 2, seed=0)
    with pytest.raises(ValueError, match="N must be >= 1"):
        ConstructionSpec(2, 0, 0, seed=0)


def test_m_from_target():
    assert m_from_target(0.5, 8) == 4
    assert m_from_target(0.5, 9) == 4
    assert m_from_target(0.0, 7) == 0
    assert m_from_target(1.0, 7) == 7
    with pytest.raises(ValueError):
        m_from_target(1.2, 4)


# --- exact expected subset entropies -------------------------------------------

def test_expected_entropy_exhaustive_d2_m1():
    # d=2, M=1: two fair coin flips pick two configurations; average the
    # realized entropies over all generator outcomes by direct enumeration
    d, N, M = 2, 2, 1
    hs = {1: [], 2: []}
    for c1 in itertools.product(range(2), repeat=N):
        for c2 in itertools.product(range(2), repeat=N):
            counts = {}
            for c in (c1, c2):
                counts[c] = counts.get(c, 0) + 1
            pmap = {c: n / 2 for c, n in counts.items()}

            def h(keep):
                marg = {}
                for cfg, p in pmap.items():
                    key = tuple(cfg[i] for i in keep)
                    marg[key] = marg.get(key, 0.0) + p
                return -sum(p * math.log(p) for p in marg.values() if p > 0)

            hs[1].append((h((0,)) + h((1,))) / 2)
            hs[2].append(h((0, 1)))
    want_h1 = float(np.mean(hs[1])) / math.log(d)
    want_h2 = float(np.mean(hs[2])) / math.log(d)
    assert want_h1 == pytest.approx(0.5, abs=1e-12)
    assert want_h2 == pytest.approx(0.75, abs=1e-12)
    assert expected_subset_entropy(d, N, M, 1) == pytest.approx(
        want_h1, abs=1e-12)
    assert expected_subset_entropy(d, N, M, 2) == pytest.approx(
        want_h2, abs=1e-12)


def test_expected_entropy_boundary_values():
    assert expected_subset_entropy(2, 8, 4, 0) == 0.0
    # k = M = N: entropy of the empirical measure of d^N draws is below N
    assert expected_subset_entropy(2, 3, 3, 3) < 3.0


def test_expected_entropy_monotone_in_k():
    for d, N, M in ((2, 12, 6), (3, 8, 3)):
        hs = [expected_subset_entropy(d, N, M, k) for k in range(N + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))


def test_expected_entropy_within_envelope():
    for d, N, M in ((2, 16, 8), (2, 20, 6), (3, 10, 4)):
        for k in range(1, N + 1):
            lo, hi = entropy_envelope(d, M, k)
            h = expected_subset_entropy(d, N, M, k)
            assert lo - 1e-9 <= h <= hi + 1e-9, (d, N, M, k, lo, h, hi)


def test_expected_entropy_crossover_value():
    # at k = M both closed forms reduce to M + E(phi(B)) with
    # B ~ Binomial(d^M, d^-M); recompute that directly
    from scipy import stats
    for d, M in ((2, 6), (3, 4)):
        n = d**M
        js = np.arange(n + 1).astype(float)
        pmf = stats.binom.pmf(js, n, float(d) ** (-M))
        pos = js > 0
        phi = np.zeros_like(js)
        phi[pos] = -js[pos] * np.log(js[pos]) / math.log(d)
        want = M + float(np.dot(pmf, phi))
        assert expected_subset_entropy(d, 2 * M, M, M) == pytest.approx(
            want, abs=1e-10)


def test_truncated_tail_mass_is_tiny():
    detail = expected_subset_entropy_detail(2, 40, 24, 10)
    assert detail.truncated_tail_mass < 1e-12


# --- the binomial law against scipy -------------------------------------------

PMF_NS = (1, 2, 3, 16, 100, 4096, 65537, 10**6)
PMF_PS = (0.5, 1 / 3, 0.1, 2.0**-10, 1e-4, 1e-7)
H_GRID = ((2, 22, 16), (2, 16, 8), (2, 12, 6), (3, 10, 4), (3, 12, 6),
          (2, 20, 6), (5, 8, 5), (7, 6, 4), (2, 2, 1), (2, 3, 3))
TRUNCATED_GRID = ((2, 40, 24), (2, 30, 21), (2, 60, 30), (3, 30, 15))


def scipy_pmf_distance(n, p):
    from scipy import stats
    want = stats.binom.pmf(np.arange(n + 1), n, p)
    return float(np.abs(_binomial_pmf(n, p, 0, n) - want).sum())


@pytest.mark.parametrize("n", PMF_NS)
def test_binomial_pmf_matches_scipy(n):
    for p in PMF_PS:
        assert scipy_pmf_distance(n, p) <= 1e-13, (n, p)


@given(n=st.integers(1, 10**6), log_p=st.floats(math.log(1e-7), math.log(0.5)))
@settings(max_examples=40, deadline=None)
def test_binomial_pmf_matches_scipy_property(n, log_p):
    assert scipy_pmf_distance(n, math.exp(log_p)) <= 1e-13


def scipy_expected_entropy(d, M, k):
    """h_k from scipy's binomial law over mean +/- (40 sigma + 400), a window
    far wider than the implementation's, added by math.fsum."""
    from scipy import stats
    n, p = d**M, float(d) ** (-k)
    mean, sigma = n * p, math.sqrt(n * p * (1.0 - p))
    lo = max(0, int(mean - 40 * sigma) - 400)
    hi = min(n, int(mean + 40 * sigma) + 400)
    js = np.arange(lo, hi + 1, dtype=float)
    pmf = stats.binom.pmf(js, n, p)
    phi = lambda x: -x * np.log(np.where(x > 0, x, 1.0)) / math.log(d)
    if k <= M:
        return k + math.fsum(pmf * phi(js * float(d) ** (k - M)))
    return M + float(d) ** (k - M) * math.fsum(pmf * phi(js))


def window_is_whole(d, M, k):
    """Whether the documented window mean +/- (12 sigma + 50) covers 0..n."""
    n, p = d**M, float(d) ** (-k)
    mean, sigma = n * p, math.sqrt(n * p * (1.0 - p))
    t = 12 * sigma + 50
    return int(mean - t) <= 0 and int(mean + t) >= n


@pytest.mark.parametrize("d,N,M", H_GRID + TRUNCATED_GRID)
def test_expected_entropy_matches_scipy(d, N, M):
    for k in range(1, N + 1):
        want = scipy_expected_entropy(d, M, k)
        got = expected_subset_entropy_detail(d, N, M, k)
        assert abs(got.value - want) <= 1e-13, (d, N, M, k)
        assert got.truncated_tail_mass <= 1e-30, (d, N, M, k)
        if window_is_whole(d, M, k):
            assert got.truncated_tail_mass == 0.0, (d, N, M, k)


@pytest.mark.parametrize("d,N,M,k", [(2, 60, 30, 39), (3, 30, 15, 20)])
def test_small_mean_keeps_the_tail_where_phi_is_nonzero(d, N, M, k):
    # B ~ Binomial(d^M, d^-k) has mean 2^-9 and 3^-5: almost all of its mass
    # sits on {0, 1}, where phi(B) = 0, so h_k falls short of M only
    # through B >= 2
    got = expected_subset_entropy_detail(d, N, M, k)
    assert got.value < M
    assert abs(got.value - scipy_expected_entropy(d, M, k)) <= 1e-13
    assert got.truncated_tail_mass <= 1e-30


def test_argument_validation():
    with pytest.raises(ValueError):
        expected_subset_entropy(2, 4, 2, 5)
    with pytest.raises(ValueError):
        expected_subset_entropy(2, 4, 5, 1)


# --- envelope -----------------------------------------------------------------

def test_envelope_examples():
    assert entropy_envelope(2, 5, 3) == (3 - 2.0 * 2 ** (-1.0), 3.0)
    assert entropy_envelope(2, 5, 7) == (5 - 2.0**-2, 5.0)
    assert entropy_envelope(2, 5, 5) == (5 - 2.0, 5.0)
    with pytest.raises(ValueError):
        entropy_envelope(2, 5, -1)


def test_envelope_tightens_away_from_m():
    # the band 2 d^{(k-M)/2} narrows as k moves below M, and d^{M-k} narrows
    # as k moves above M
    below = [entropy_envelope(2, 10, k) for k in range(1, 10)]
    gaps_below = [hi - lo for lo, hi in below]
    assert all(a <= b + 1e-12 for a, b in zip(gaps_below, gaps_below[1:]))
    above = [entropy_envelope(2, 10, k) for k in range(11, 20)]
    gaps_above = [hi - lo for lo, hi in above]
    assert all(a >= b - 1e-12 for a, b in zip(gaps_above, gaps_above[1:]))


# --- mean realized profile vs exact expectation -----------------------------------

def test_mean_profile_matches_expectation_within_4se():
    d, N, M, seeds = 2, 10, 5, 200
    per_k = np.zeros((seeds, N + 1))
    for s in range(seeds):
        law = sample_sparse_system(ConstructionSpec(d, N, M, seed=s))
        prof = entropy_profile_exact(law)
        per_k[s] = prof.values * N  # back to units of log d
    mean = per_k.mean(axis=0)
    se = per_k.std(axis=0, ddof=1) / math.sqrt(seeds)
    for k in range(1, N + 1):
        want = expected_subset_entropy(d, N, M, k)
        slack = 4 * max(se[k], 1e-4)
        assert abs(mean[k] - want) <= slack, (k, mean[k], want, se[k])


def test_realized_profile_bundle():
    spec = ConstructionSpec(2, 8, 4, seed=3)
    rp = realized_profile(spec, families=[("est", est_measure())])
    assert rp.spec == spec
    assert rp.normalized_entropy == pytest.approx(
        entropy(rp.law) / (8 * math.log(2)), abs=1e-12)
    assert rp.normalized_entropy <= 0.5 + 1e-12
    assert set(rp.normalized_intricacy) == {"est"}
    assert 0.0 <= rp.normalized_intricacy["est"] <= 0.25 + 1e-9
