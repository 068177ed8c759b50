import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intricacy as it
from intricacy import laws
from intricacy import (CapExceededError, LawValidationError, SystemLaw,
                       all_subset_entropies, conditional_entropy,
                       diagonal_law, entropy, entropy_profile_exact,
                       entropy_profile_sampled, full_mask, marginal,
                       mutual_information, point_mass, product_law,
                       subset_entropy, uniform_law)
from conftest import (naive_entropy, naive_marginal, naive_mutual_information,
                      naive_pmap, naive_profile, naive_subset_entropy,
                      random_dense_law)

LOG2 = math.log(2)


# --- entropy -------------------------------------------------------------

def test_entropy_point_mass_is_zero():
    assert entropy(point_mass(2, 3, [0, 1, 0])) == 0.0


def test_entropy_uniform_is_maximal():
    assert entropy(uniform_law(2, 3)) == pytest.approx(3 * LOG2, abs=1e-12)


def test_entropy_diagonal_pair():
    # uniform on {(0,0),(1,1)}: direct summation -2*(1/2)log(1/2)
    assert entropy(diagonal_law(2, 2)) == pytest.approx(LOG2, abs=1e-15)


def test_negative_mass_rejected():
    with pytest.raises(LawValidationError):
        SystemLaw.dense(2, 1, [1.5, -0.5])


def test_mass_off_by_too_much_rejected():
    with pytest.raises(LawValidationError):
        SystemLaw.dense(2, 1, [0.5, 0.4])


def test_mass_within_tolerance_renormalized():
    law = SystemLaw.dense(2, 1, [0.5 + 4e-10, 0.5])
    assert float(law.table.sum()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_mass_rejected(bad):
    with pytest.raises(LawValidationError):
        SystemLaw.dense(2, 1, [bad, 1.0])
    with pytest.raises(LawValidationError):
        SystemLaw.sparse(2, 1, [[0], [1]], [bad, 1.0])


@pytest.mark.parametrize("symbol", [-255, 257, 1.7, 3])
def test_out_of_range_symbols_rejected(symbol):
    # checked on the input, before the uint8 cast would wrap it into range
    with pytest.raises(LawValidationError):
        SystemLaw.sparse(3, 1, [[symbol], [0]], [0.5, 0.5])
    with pytest.raises(LawValidationError):
        point_mass(3, 1, [symbol])


def test_alphabets_above_256_rejected():
    with pytest.raises(LawValidationError):
        SystemLaw.sparse(300, 1, [[299]], [1.0])
    with pytest.raises(LawValidationError):
        SystemLaw.dense(300, 1, np.full(300, 1 / 300))
    with pytest.raises(LawValidationError):
        point_mass(300, 1, [299])
    # d = 256 still fits uint8 symbols
    assert entropy(point_mass(256, 2, [255, 0])) == 0.0


def test_duplicate_sparse_support_rejected():
    with pytest.raises(LawValidationError):
        SystemLaw.sparse(2, 2, [[0, 0], [0, 0]], [0.5, 0.5])
    wide = np.zeros((2, 70), dtype=np.uint8)
    wide[:, 0] = 1
    with pytest.raises(LawValidationError):
        SystemLaw.sparse(2, 70, wide, [0.5, 0.5])


def test_sparse_rows_differing_in_coordinate_one_are_distinct_at_n70():
    # 2^69 is 0 mod 2^64, so an int64 mixed-radix key merges these rows
    configs = np.zeros((2, 70), dtype=np.uint8)
    configs[0, 0] = 1
    law = SystemLaw.sparse(2, 70, configs, [0.25, 0.75])
    assert np.array_equal(law.configs, configs[::-1])
    assert np.array_equal(law.probs, [0.75, 0.25])


def test_sparse_rows_are_lexicographic_at_d3_n41():
    # 3^40 is negative as an int64, which put (1,0,...) before (0,...,0)
    gen = np.random.default_rng(41)
    configs = gen.integers(0, 3, size=(30, 41), dtype=np.uint8)
    configs[:10, 1:38] = 0              # rows that differ only at the ends
    configs[:2] = 0
    configs[1, 0] = 1                   # the all-zero row and (1,0,...,0)
    configs = gen.permutation(np.unique(configs, axis=0))
    law = SystemLaw.sparse(3, 41, configs, np.full(len(configs), 1 / len(configs)))
    assert sorted(map(tuple, configs.tolist())) == list(map(tuple, law.configs.tolist()))


@given(d=st.sampled_from([2, 3, 5]), N=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_group_rows_matches_dict_oracle(d, N, seed):
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, d, size=(int(gen.integers(1, 40)), N), dtype=np.uint8)
    weights = gen.random(len(rows))
    want = {}
    for row, w in zip(map(tuple, rows.tolist()), weights.tolist()):
        want[row] = want.get(row, 0.0) + w
    got_rows, got_weights = laws._group_rows(rows, weights)
    assert list(map(tuple, got_rows.tolist())) == sorted(want)
    assert np.allclose(got_weights, [want[r] for r in sorted(want)],
                       rtol=1e-14, atol=0.0)


# --- marginal -------------------------------------------------------------

def test_marginal_full_set_is_identity():
    law = diagonal_law(2, 2)
    m = marginal(law, full_mask(2))
    assert np.array_equal(m.configs, law.configs)
    assert np.allclose(m.probs, law.probs)


def test_marginal_empty_set_unit_mass():
    m = marginal(diagonal_law(2, 2), 0)
    assert m.N == 0
    assert entropy(m) == 0.0
    assert float(m.probs.sum()) == pytest.approx(1.0)


def test_marginal_diagonal_first_coordinate():
    m = marginal(diagonal_law(2, 2), 0b01)
    assert np.allclose(sorted(m.probs), [0.5, 0.5])


def test_marginal_out_of_range_mask():
    with pytest.raises(IndexError):
        marginal(diagonal_law(2, 2), 0b100)


def test_marginal_preserves_representation():
    assert marginal(uniform_law(2, 3), 0b011).kind == "dense"
    assert marginal(diagonal_law(2, 3), 0b011).kind == "sparse"


@pytest.mark.parametrize("transform,arg,match", [
    (laws.permute_coordinates, [0, 0, 1], "permutation of 0..N-1"),
    (laws.permute_coordinates, [0, 1], "permutation of 0..N-1"),
    (laws.relabel_symbols, [[1, 0]] * 2, "one symbol permutation"),
    (laws.relabel_symbols, [[1, 0, 2]] * 3, "one symbol permutation"),
])
def test_transforms_reject_malformed_arguments(transform, arg, match):
    with pytest.raises(ValueError, match=match):
        transform(diagonal_law(2, 3), arg)


def _table_with_zeros(gen, d, N):
    table = gen.dirichlet(np.ones(d**N))
    table[gen.permutation(d**N)[: d**N // 3]] = 0.0
    return table / table.sum()


@pytest.mark.parametrize("d,N", [(2, 5), (3, 3)])
def test_dense_law_is_held_as_its_support(d, N):
    gen = np.random.default_rng(10 * d + N)
    table = _table_with_zeros(gen, d, N)
    law = SystemLaw.dense(d, N, table)
    assert law.table.tobytes() == laws._normalized(table).tobytes()
    shaped = law.table.reshape((d,) * N)
    # the transforms keep the dense file format and act on the table
    mask = 0b101
    m = marginal(law, mask)
    drop = tuple(i for i in range(N) if not (mask >> i) & 1)
    assert m.kind == "dense"
    assert np.allclose(m.table, shaped.sum(axis=drop).ravel(),
                       rtol=0.0, atol=1e-15)
    perm = gen.permutation(N)
    p = laws.permute_coordinates(law, perm)
    assert p.kind == "dense"
    assert np.array_equal(p.table, shaped.transpose(np.argsort(perm)).ravel())
    maps = [gen.permutation(d) for _ in range(N)]
    r = laws.relabel_symbols(law, maps)
    assert r.kind == "dense"
    inverse = np.ix_(*[np.argsort(t) for t in maps])
    assert np.array_equal(r.table, shaped[inverse].ravel())
    # the sort path and the lattice walk give the same entropies
    assert np.allclose(laws.subset_entropies(law, np.arange(1 << N)),
                       laws._lattice_entropies(law), rtol=0.0, atol=1e-12)


def test_dense_file_writes_negative_zero_as_zero():
    law = SystemLaw.dense(2, 1, [-0.0, 1.0])
    assert law.to_json() == '{"d": 2, "N": 1, "dense": [0.0, 1.0]}'


# --- subset entropy / MI / conditional ------------------------------------

def test_subset_entropy_product_bits():
    law = uniform_law(2, 4)
    for mask in (0b1, 0b101, 0b1111):
        k = bin(mask).count("1")
        assert subset_entropy(law, mask) == pytest.approx(k * LOG2, abs=1e-12)


def test_subset_entropy_empty_is_zero():
    assert subset_entropy(diagonal_law(3, 3), 0) == 0.0


def test_subset_entropy_diagonal_singleton():
    assert subset_entropy(diagonal_law(2, 2), 0b10) == pytest.approx(LOG2)


def test_mutual_information_product_is_zero():
    law = product_law([[0.3, 0.7], [0.5, 0.5], [0.2, 0.8]], 2)
    for mask in range(8):
        assert mutual_information(law, mask) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_diagonal_is_log_d():
    law = diagonal_law(2, 2)
    assert mutual_information(law, 0b01) == pytest.approx(LOG2, abs=1e-12)


def test_mutual_information_empty_convention():
    law = diagonal_law(2, 3)
    assert mutual_information(law, 0) == 0.0
    assert mutual_information(law, full_mask(3)) == 0.0


def test_mutual_information_symmetric_in_complement():
    rng = np.random.default_rng(5)
    law = random_dense_law(rng, 2, 4)
    for mask in range(16):
        comp = full_mask(4) ^ mask
        assert mutual_information(law, mask) == pytest.approx(
            mutual_information(law, comp), abs=1e-12)


def test_conditional_entropy_full_set_zero():
    law = diagonal_law(2, 3)
    assert conditional_entropy(law, full_mask(3)) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_independent_bits():
    law = uniform_law(2, 4)
    assert conditional_entropy(law, 0b0011) == pytest.approx(2 * LOG2, abs=1e-12)


def test_conditional_entropy_diagonal_determined():
    assert conditional_entropy(diagonal_law(2, 2), 0b01) == pytest.approx(
        0.0, abs=1e-12)


# --- profiles --------------------------------------------------------------

def test_profile_product_law_is_linear():
    prof = entropy_profile_exact(uniform_law(2, 5))
    assert np.allclose(prof.values, np.arange(6) / 5, atol=1e-12)


def test_profile_diagonal_pair():
    prof = entropy_profile_exact(diagonal_law(2, 2))
    assert np.allclose(prof.values, [0.0, 0.5, 0.5], atol=1e-12)


def test_profile_constant_system_zero():
    prof = entropy_profile_exact(point_mass(2, 4, [1, 0, 1, 1]))
    assert np.allclose(prof.values, 0.0)


def test_exact_profile_sums_sizes_without_a_copy():
    import tracemalloc
    N = 18
    law = diagonal_law(2, N)
    H = all_subset_entropies(law)
    tracemalloc.start()
    try:
        prof = entropy_profile_exact(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^16-mask blocks: no 2^N x 8-byte (2 MB) copy of the subset sizes
    assert peak < 1 << 20
    sizes = np.bitwise_count(np.arange(1 << N))
    want = np.bincount(sizes, weights=H, minlength=N + 1)
    assert np.array_equal(prof.values[1:],
                          want[1:] / [math.comb(N, k) for k in range(1, N + 1)]
                          / (N * LOG2))


def test_profile_cap_raises():
    with pytest.raises(CapExceededError, match="SUBSET_CAP = 22"):
        entropy_profile_exact(point_mass(2, 23, [0] * 23))


@pytest.mark.parametrize("law", [
    SystemLaw.dense(2, 0, [1.0]),
    SystemLaw.from_json_dict({"d": 2, "N": 0,
                              "support": [{"config": [], "p": 1.0}]}),
], ids=["dense", "sparse"])
def test_profile_of_an_empty_system_is_zero(law, recwarn):
    exact = entropy_profile_exact(law)
    sampled = entropy_profile_sampled(law, [0], 2, seed=0)
    assert exact.values.tolist() == sampled.values.tolist() == [0.0]
    exact.validate()
    assert not recwarn


def test_profile_in_gamma(rng):
    for d, N in ((2, 5), (3, 4)):
        prof = entropy_profile_exact(random_dense_law(rng, d, N))
        prof.validate()


def test_averaged_increment_monotonicity(rng):
    # H_{k+l} - H_k <= H_{j+l} - H_j for j <= k
    for d, N in ((2, 6), (3, 4)):
        law = random_dense_law(rng, d, N)
        H = entropy_profile_exact(law).values * N * math.log(d)
        for ell in range(1, N):
            for j in range(N - ell + 1):
                for k in range(j, N - ell + 1):
                    assert H[k + ell] - H[k] <= H[j + ell] - H[j] + 1e-8


def test_sampled_profile_product_exact():
    prof = entropy_profile_sampled(uniform_law(2, 6), sizes=[1, 3, 5],
                                   samples_per_size=10, seed=1)
    for k in (1, 3, 5):
        assert prof.values[k] == pytest.approx(k / 6, abs=1e-12)
        assert prof.stderr[k] == pytest.approx(0.0, abs=1e-12)


def test_sampled_profile_diagonal_singletons():
    prof = entropy_profile_sampled(diagonal_law(2, 8), sizes=[1],
                                   samples_per_size=100, seed=3)
    assert prof.values[1] == pytest.approx(1 / 8 * 4, abs=1e-12) or True
    # all size-1 entropies equal log2, so the estimate is exact: 1/N * ...
    assert prof.values[1] == pytest.approx(LOG2 / (8 * LOG2), abs=1e-12)


def test_sampled_exhaustive_matches_exact(rng):
    law = random_dense_law(rng, 2, 5)
    exact = entropy_profile_exact(law)
    samp = entropy_profile_sampled(law, sizes=range(6), samples_per_size=2,
                                   seed=0, exhaustive=True)
    assert np.allclose(samp.values, exact.values, atol=1e-12)


def test_sampled_profile_deterministic(rng):
    law = random_dense_law(rng, 2, 6)
    a = entropy_profile_sampled(law, [2, 4], 25, seed=99)
    b = entropy_profile_sampled(law, [2, 4], 25, seed=99)
    assert np.array_equal(a.values, b.values, equal_nan=True)


def test_sampled_requires_two_samples():
    with pytest.raises(ValueError):
        entropy_profile_sampled(uniform_law(2, 3), [1], 1, seed=0)


@pytest.mark.parametrize("size", [-1, 4])
def test_sampled_size_outside_range_rejected(size):
    with pytest.raises(IndexError, match="outside 0..3"):
        entropy_profile_sampled(uniform_law(2, 3), [1, size], 2, seed=0)


def test_profile_needs_n_plus_one_values():
    with pytest.raises(ValueError, match="N\\+1 values"):
        laws.EntropyProfile(3, [0.0, 0.5, 1.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("values,match", [
    ([0.1, 0.3, 0.6, 0.9], "start at 0"),
    ([0.0, 0.3, 0.2, 0.5], "increments"),
    ([0.0, 0.5, 0.6, 0.7], "increments"),
    # the NaN hides a rise of 0.9 over two sizes, above 2/3
    ([0.0, NAN, 0.9, 1.0], "finite"),
    ([0.0, 0.3, INF, 1.0], "finite"),
    ([NAN, 0.3, 0.6, 0.9], "finite"),
], ids=["h0", "fall", "rise", "nan-hides-rise", "inf", "nan-h0"])
def test_profile_outside_gamma_rejected(values, match):
    with pytest.raises(ValueError, match=match):
        laws.EntropyProfile(3, values).validate()


def test_sampled_profile_of_some_sizes_is_not_validated():
    prof = entropy_profile_sampled(uniform_law(2, 3), [1], 4, seed=0)
    with pytest.raises(ValueError, match="finite"):
        prof.validate()


# --- brute-force equivalence ------------------------------------------------

def test_brute_force_equivalence(rng):
    for d in (2, 3):
        for N in (2, 3, 4):
            law = random_dense_law(rng, d, N)
            pmap = naive_pmap(law)
            assert entropy(law) == pytest.approx(naive_entropy(pmap), abs=1e-12)
            H = all_subset_entropies(law)
            for mask in range(1 << N):
                keep = tuple(i for i in range(N) if (mask >> i) & 1)
                assert H[mask] == pytest.approx(
                    naive_subset_entropy(pmap, keep), abs=1e-12)
                assert mutual_information(law, mask) == pytest.approx(
                    naive_mutual_information(pmap, keep, N), abs=1e-12)
            prof = entropy_profile_exact(law)
            assert np.allclose(prof.values, naive_profile(pmap, N, d),
                               atol=1e-12)


def _random_law(gen, d, N, sparse):
    if not sparse:
        return random_dense_law(gen, d, N)
    size = int(gen.integers(1, min(d**N, 40) + 1))
    idx = gen.choice(d**N, size=size, replace=False)
    configs = idx[:, None] // d ** np.arange(N - 1, -1, -1) % d
    return SystemLaw.sparse(d, N, configs, gen.dirichlet(np.ones(size)))


def _keep(mask, N):
    return tuple(i for i in range(N) if (mask >> i) & 1)


@given(d=st.sampled_from([2, 3, 4, 5]), N=st.integers(0, 5),
       sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_paths_match_oracle(d, N, sparse, seed):
    law = _random_law(np.random.default_rng(seed), d, N, sparse)
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, tuple(i for i in range(N) if (m >> i) & 1))
            for m in range(1 << N)]
    for path in (laws._lattice_entropies, laws._sorted_entropies):
        assert np.allclose(path(law), want, rtol=0.0, atol=1e-12), path.__name__


def _law_with_zero_cells(gen, d, N):
    table = gen.dirichlet(np.ones(d**N))
    table[gen.random(d**N) < 0.5] = 0.0
    table[gen.integers(d**N)] += 0.25           # at least one cell is kept
    return SystemLaw.dense(d, N, table / table.sum())


@given(d=st.sampled_from([2, 3, 4, 5]), N=st.integers(0, 6),
       zeros=st.booleans(), seed=st.integers(0, 2**32 - 1),
       middle=st.integers(1, 6**6))
@settings(max_examples=40, deadline=None)
def test_lattice_blocks_match_oracle_at_every_block_size(d, N, zeros, seed,
                                                         middle):
    gen = np.random.default_rng(seed)
    law = (_law_with_zero_cells if zeros else random_dense_law)(gen, d, N)
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, _keep(m, N)) for m in range(1 << N)]
    # no blocks (the per-node walk everywhere), a mix of blocks and per-node
    # steps, every node but the top one, and the whole law in one block
    outs = []
    for block in (0, middle, (d + 1) ** N - 1, (d + 1) ** N):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laws, "_LATTICE_BLOCK", block)
            H = laws._lattice_entropies(law)
        assert np.allclose(H, want, rtol=0.0, atol=1e-12), block
        assert H[0] == 0.0 and not np.signbit(H[0])
        outs.append(H)
    for H in outs[1:]:
        assert np.allclose(H, outs[0], rtol=0.0, atol=1e-14)


def test_lattice_memory_is_two_tables_and_a_few_blocks():
    import tracemalloc
    d, N = 2, 16
    law = random_dense_law(np.random.default_rng(16), d, N)
    tracemalloc.start()
    try:
        laws._lattice_entropies(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^N output, the table and one marginal per level, and the blocks'
    # arrays; no (support, N) array of indices while the table is scattered
    floats = (1 << N) + 2 * d**N + 4 * laws._LATTICE_BLOCK
    assert peak <= 8 * floats


def _kernel_path(monkeypatch, law):
    """The kernel :func:`all_subset_entropies` picks for ``law``.  The stubs
    run on a copy, so their output is not cached on ``law`` itself."""
    chosen = []
    for name in ("_lattice_entropies", "_sorted_entropies"):
        monkeypatch.setattr(laws, name, lambda law, name=name: (
            chosen.append(name) or np.zeros(1 << law.N)))
    all_subset_entropies(replace(law))
    return chosen


@given(d=st.sampled_from([2, 3, 4, 5]), N=st.integers(0, 5),
       sparse=st.booleans(), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_subset_entropies_match_oracle(d, N, sparse, seed, count):
    gen = np.random.default_rng(seed)
    law = _random_law(gen, d, N, sparse)
    # unsorted, with repeats, always holding the empty and the full mask
    drawn = gen.integers(0, 1 << N, size=count)
    masks = gen.permutation(np.concatenate(
        [drawn, drawn[:count // 2], [0, full_mask(N)]]))
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, _keep(int(m), N)) for m in masks]
    got = laws.subset_entropies(law, masks)
    assert got.shape == masks.shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all(got[masks == 0] == 0.0)


@pytest.mark.parametrize("d,N,words", [pytest.param(2, 40, 1, id="40"),
                                       pytest.param(2, 60, 2, id="60"),
                                       pytest.param(2, 70, 2, id="70"),
                                       pytest.param(3, 26, 1, id="d3-26"),
                                       pytest.param(3, 30, 2, id="d3-30"),
                                       pytest.param(3, 41, 2, id="d3-41"),
                                       pytest.param(256, 7, 1, id="d256-7"),
                                       pytest.param(256, 10, 2, id="d256-10"),
                                       pytest.param(256, 16, 3, id="d256-16"),
                                       pytest.param(7, 60, 4, id="d7-60"),
                                       pytest.param(2, 200, 4, id="200"),
                                       pytest.param(2, 250, 5, id="250")])
def test_subset_entropies_wide_keys(d, N, words):
    # Keys take bits(d-1)*N bits and the support index (17 to 24 rows) 5
    # more.  Word 0 holds (63-5)//b coordinates and every later word
    # (63-10)//b: N=40 (width 45), d=3 at N=26 (57) and d=256 at N=7 (61)
    # fit one word; N=60 takes 2 words, N=200 4 and N=250 5, d=256 at N=16
    # (7 + 6 + 6 coordinates) 3 and d=7 at N=60 (19 + 17 + 17 + 17) 4
    gen = np.random.default_rng(N)
    configs = gen.integers(0, d, size=(24, N), dtype=np.uint8)
    configs[:8, : N // 2] = 0           # shared halves make real groups
    configs = np.unique(configs, axis=0)
    law = SystemLaw.sparse(d, N, configs, gen.dirichlet(np.ones(len(configs))))
    # Python ints, so the masks of N=70 may use bits 63..69
    masks = [int(gen.integers(0, 2**62)) & full_mask(N) for _ in range(10)]
    masks += [full_mask(N), 1 << (N - 1), (1 << (N - 1)) | 0b1011, 0]
    masks += [laws.indices_to_mask(gen.choice(N, k, replace=False).tolist())
              for k in (1, 2, 4, N // 2, N - 1)]
    masks += [int.from_bytes(gen.bytes(N // 8 + 1), "little") & full_mask(N)]
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, _keep(m, N)) for m in masks]
    got = laws.subset_entropies(law, masks)
    assert law._keys.shape == (words, law.support_size)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # alone, a mask skips the words it does not touch: the same bits
    assert np.array_equal([subset_entropy(law, m) for m in masks], got)


def _matches_fsum(law):
    # 65k support points: the row sum of -p log p must stay within 1e-12
    stream = it.SplitMix64(5)
    masks = [stream.sample_subset_mask(22, k) for k in range(1, 21)]
    configs, probs = law.support()
    for mask, got in zip(masks, laws.subset_entropies(law, masks)):
        keep = list(_keep(mask, 22))
        key = configs[:, keep].astype(np.int64) @ (1 << np.arange(len(keep)))
        _, inv = np.unique(key, return_inverse=True)
        marg = np.bincount(inv, weights=probs)
        want = math.fsum(-p * math.log(p) for p in marg.tolist())
        assert abs(got - want) <= 1e-12, (mask, got, want)


def test_subset_entropies_large_support_matches_fsum():
    # masses counts / 2^16: the count route
    law = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77))
    assert law._draws is not None
    _matches_fsum(law)


def test_weighted_route_large_support_matches_fsum():
    # Dirichlet weights on the same rows are not counts, so they keep the
    # weighted route and its pairwise sums of 65k gathered masses
    rows = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77)).configs
    weights = np.random.default_rng(22).dirichlet(np.ones(len(rows)))
    law = SystemLaw.sparse(2, 22, rows, weights)
    assert law._draws is None
    _matches_fsum(law)


def _weighted(law):
    """A copy of ``law`` that takes the weighted route."""
    copy = replace(law)
    vars(copy)["_draws"] = None         # the cached route decision
    return copy


@pytest.mark.parametrize("spec", [
    # a repeated draw (support < d^M), then none, per (d, N)
    (2, 8, 4, 0), (2, 8, 4, 3), (2, 12, 6, 3), (2, 12, 6, 0),
    (2, 16, 8, 2), (2, 16, 8, 0), (4, 8, 4, 1), (4, 8, 4, 0),
    (4, 12, 6, 6), (4, 12, 6, 0), (4, 16, 4, 0)],
    ids=lambda spec: "-".join(map(str, spec)))
def test_count_route_is_bit_identical_for_powers_of_two(spec):
    # every mass c/2^(jM) is dyadic, so the weighted route's group sums are
    # exact and both routes take -s log s of the same floats in one order
    law = it.sample_sparse_system(it.ConstructionSpec(*spec))
    assert law._draws is not None
    assert law._draws.shape == (1, spec[0] ** spec[2])
    assert np.array_equal(laws._sorted_entropies(law),
                          laws._sorted_entropies(_weighted(law)))


def test_count_route_is_bit_identical_on_sampled_and_census_masks():
    # large_n's law, its file read back, and a 64-bit (2,64,6) key, which
    # the weighted route spreads over two words
    law = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77))
    read = SystemLaw.from_json(law.to_json())
    wide = it.sample_sparse_system(it.ConstructionSpec(2, 64, 6, 1))
    assert law._draws.dtype == np.uint32 and wide._draws.dtype == np.uint64
    assert np.array_equal(read._draws, law._draws)
    assert _weighted(wide)._keys.shape[0] == 2
    for law in (law, wide):
        N = law.N
        sampled = entropy_profile_sampled(law, range(N + 1), 6, seed=8)
        want = entropy_profile_sampled(_weighted(law), range(N + 1), 6, seed=8)
        assert np.array_equal(sampled.values, want.values)
        assert np.array_equal(sampled.stderr, want.stderr)
        census = it.threshold_census(law, x=0.5, y=0.7, epsilon=0.1,
                                     samples=40, seed=3)
        assert census == it.threshold_census(_weighted(law), x=0.5, y=0.7,
                                             epsilon=0.1, samples=40, seed=3)
    masks = [full_mask(64), 1 << 63, (1 << 63) | 1, 0, 0xF0F0F0F0F0F0F0F0]
    pmap = naive_pmap(wide)
    want = [naive_subset_entropy(pmap, _keep(m, 64)) for m in masks]
    assert np.allclose(laws.subset_entropies(wide, masks), want,
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("spec", [(3, 8, 4, 3), (3, 8, 4, 0), (3, 12, 6, 2),
                                  (5, 8, 4, 0), (5, 8, 4, 1)],
                         ids=lambda spec: "-".join(map(str, spec)))
def test_count_route_for_other_alphabets(spec):
    # masses c/d^M are rounded, so a group's mass n/T is rounded once where
    # the weighted route rounds each addition
    law = it.sample_sparse_system(it.ConstructionSpec(*spec))
    assert law._draws is not None
    H = laws._sorted_entropies(law)
    weighted = laws._sorted_entropies(_weighted(law))
    assert np.allclose(H, weighted, rtol=0.0, atol=1e-14)
    pmap = naive_pmap(law)
    some = np.arange(0, 1 << law.N, 1 if law.N <= 8 else 37)
    want = [naive_subset_entropy(pmap, _keep(int(m), law.N)) for m in some]
    assert np.allclose(H[some], want, rtol=0.0, atol=1e-12)


def test_route_rule():
    gen = np.random.default_rng(33)
    # the sweep's and large_n's constructions take the count route
    for spec in ((2, 8, 4, 1), (2, 12, 6, 1), (2, 16, 8, 1), (2, 22, 16, 7)):
        assert it.sample_sparse_system(it.ConstructionSpec(*spec))._draws is not None
    # the rest keep the weighted route: Dirichlet laws, dense or sparse ...
    dense = [random_dense_law(gen, 2, 12), random_dense_law(gen, 3, 8)]
    sparse = _random_law(gen, 2, 10, sparse=True)
    # ... a law with subnormal masses, which must raise no warning ...
    tiny = SystemLaw.sparse(2, 3, [[0, 0, 0], [1, 0, 1], [1, 1, 1]],
                            [1.0, 5e-324, 1e-310])
    # ... counts over T = 5 draws, above 2 * support ...
    heavy = SystemLaw.sparse(2, 3, [[0, 0, 0], [1, 1, 0]], [0.2, 0.8])
    # ... and the (2,70,16) construction, whose keys take 70 bits
    wide = it.sample_sparse_system(it.ConstructionSpec(2, 70, 16, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (*dense, sparse, tiny, heavy, wide):
            assert law._draws is None
            masks = [1, full_mask(law.N), 1 << (law.N - 1)]
            pmap = naive_pmap(law)
            want = [math.fsum(-p * math.log(p) for p in
                              naive_marginal(pmap, _keep(m, law.N)).values())
                    for m in masks]
            assert np.allclose(laws.subset_entropies(law, masks), want,
                               rtol=0.0, atol=1e-12)
    # the same counts over T = 4 <= 2 * support take the count route
    light = SystemLaw.sparse(2, 3, [[0, 0, 0], [1, 1, 0]], [0.25, 0.75])
    assert light._draws.tolist() == [[0, 3, 3, 3]]
    assert laws.subset_entropies(light, [1, 4]).tolist() == [
        entropy(light), 0.0]


def test_subset_entropies_out_of_range_masks():
    law = diagonal_law(2, 2)
    for bad in (0b100, -1, 2**70):
        with pytest.raises(IndexError):
            laws.subset_entropies(law, [0, bad])
    with pytest.raises(IndexError):
        subset_entropy(law, 0b100)
    with pytest.raises(IndexError):
        mutual_information(law, 0b101)


@pytest.mark.parametrize("bad", [3.5, "3", np.float64(2.0), None, True,
                                 np.array([True, False])])
def test_subset_entropies_rejects_non_integer_masks(bad):
    law = diagonal_law(2, 2)
    if isinstance(bad, np.ndarray):
        # a boolean membership vector, not masks 1 and 0
        masks, shown = bad, True
    else:
        masks, shown = [1, bad], bad
    with pytest.raises(TypeError, match=re.escape(f"mask {shown!r} ")):
        laws.subset_entropies(law, masks)


def _pool_widths(monkeypatch, cores):
    """Run the kernel as if the process may use ``cores`` CPUs, and record
    the worker count of every pool it starts."""
    monkeypatch.setattr(laws.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    pools = []

    class Recording(laws.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(laws, "ThreadPoolExecutor", Recording)
    return pools


@pytest.mark.parametrize("spec", [(2, 16, 8, 0), (3, 12, 6, 4)],
                         ids=["2-16-8", "3-12-6"])
def test_all_subset_entropies_do_not_depend_on_workers(monkeypatch, spec):
    law = it.sample_sparse_system(it.ConstructionSpec(*spec))
    assert _kernel_path(monkeypatch, law) == ["_sorted_entropies"]
    monkeypatch.undo()
    # a fresh law per worker count: a law runs the kernel once
    pools = _pool_widths(monkeypatch, 1)
    one = all_subset_entropies(replace(law))
    assert pools == []
    fresh = replace(law)
    keys = fresh._keys
    pools = _pool_widths(monkeypatch, 2)
    two = all_subset_entropies(fresh)
    assert pools == [2]
    assert fresh._keys is keys          # the pool shares the law's keys
    assert np.array_equal(one, two)


def test_subset_entropies_do_not_depend_on_workers(monkeypatch):
    # dense d=2, N=14: 16384 support points, so 64 masks a chunk on one
    # core, 32 on two and 8 on eight; 300 masks span 5, 10 and 38 chunks
    gen = np.random.default_rng(14)
    law = random_dense_law(gen, 2, 14)
    masks = [int(m) for m in gen.integers(1, 1 << 14, size=260)]
    masks += masks[:30] + [0] * 5 + [full_mask(14)] * 5
    masks = [masks[i] for i in gen.permutation(len(masks))]
    pools = _pool_widths(monkeypatch, 1)
    one = laws.subset_entropies(law, masks)
    assert pools == []
    pools = _pool_widths(monkeypatch, 2)
    two = laws.subset_entropies(law, masks)
    assert pools == [2]
    assert np.array_equal(one, two)
    assert np.all(two[np.array(masks) == 0] == 0.0)
    # more workers than cores, switching threads as often as possible
    pools = _pool_widths(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eight = laws.subset_entropies(law, masks)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8]
    assert np.array_equal(one, eight)
    pmap = naive_pmap(law)
    for m in masks[:8]:
        assert two[masks.index(m)] == pytest.approx(
            naive_subset_entropy(pmap, _keep(m, 14)), abs=1e-12)


def test_one_chunk_call_starts_no_pool(monkeypatch):
    # at 65k support a chunk holds 8 masks on two cores, so the 4-mask
    # calls of the sampled routes run inline
    law = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77))
    stream = it.SplitMix64(1)
    masks = [stream.sample_subset_mask(22, k) for k in (1, 8, 15, 21)]
    want = laws.subset_entropies(law, masks)
    monkeypatch.setattr(laws.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def refuse(*_):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(laws, "ThreadPoolExecutor", refuse)
    assert np.array_equal(laws.subset_entropies(law, masks), want)


def test_sort_block_size_does_not_change_entropies(monkeypatch):
    wide = it.sample_sparse_system(it.ConstructionSpec(2, 70, 16, 3))
    assert wide._keys.shape[0] == 2
    stream = it.SplitMix64(19)
    # masks touching word 0 only, word 1 only and both, so the later-word
    # pass runs on some rows of a block and skips others
    masks = [stream.sample_subset_mask(70, k) for k in (1, 12, 35, 69)]
    masks += [1, 1 << 69, (1 << 46) | 1, 0, full_mask(70)]
    masks += [m & full_mask(40) for m in masks[:4]]
    masks += [m & ~full_mask(50) for m in masks[:4]]
    calls = [(it.sample_sparse_system(it.ConstructionSpec(*spec)), None)
             for spec in [(2, 16, 8, 0), (3, 12, 6, 4)]] + [(wide, masks)]

    def entropies(law, masks):
        if masks is None:
            return all_subset_entropies(replace(law))
        return laws.subset_entropies(law, masks)

    for law, masks in calls:
        want = entropies(law, masks)
        n = law.support_size
        for rows, size in ((1, 1), (3, 3 * n), ("over a chunk", 1 << 40)):
            monkeypatch.setattr(laws, "_SORT_BLOCK", size)
            assert np.array_equal(entropies(law, masks), want), (law.N, rows)
        monkeypatch.undo()
    law = calls[1][0]
    H = all_subset_entropies(law)
    pmap = naive_pmap(law)
    for m in (1, 0b101010101010, 0b111111000000, full_mask(12)):
        assert H[m] == pytest.approx(naive_subset_entropy(pmap, _keep(m, 12)),
                                     abs=1e-12)


def _with_weights(law, seed):
    """The law's rows with Dirichlet weights, which are not counts: the
    weighted route."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(law.support_size))
    return SystemLaw.sparse(law.d, law.N, law.configs, weights)


def test_kernel_rows_stay_within_one_block(monkeypatch):
    # large_n's 4-mask calls at 65k support stay one inline chunk, now
    # sorted a row at a time; an exhaustive N=16 run on two cores never
    # sorts more than a block of rows either.  On both routes: a count
    # route row holds the T draws, a weighted one the support
    blocks = []
    grouped = laws._grouped_entropies

    def counting(K, probs, *args):
        blocks.append((K.shape, probs is None))
        return grouped(K, probs, *args)

    def refuse(*_):
        raise AssertionError("a pool was started")

    big = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77))
    small = it.sample_sparse_system(it.ConstructionSpec(2, 16, 8, 5))
    stream = it.SplitMix64(4)
    masks = [stream.sample_subset_mask(22, k) for k in (2, 9, 16, 20)]
    for count, law in ((True, big), (False, _with_weights(big, 1))):
        width = 1 << 16 if count else law.support_size
        want = laws.subset_entropies(law, masks)
        monkeypatch.setattr(laws.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(laws, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(laws, "_grouped_entropies", counting)
        blocks.clear()
        assert np.array_equal(laws.subset_entropies(law, masks), want)
        assert blocks == [((1, width), count)] * 4
        assert laws._SORT_BLOCK // width == 1
        monkeypatch.undo()
    for count, law in ((True, small), (False, _with_weights(small, 2))):
        width = 1 << 8 if count else law.support_size
        _pool_widths(monkeypatch, 2)
        monkeypatch.setattr(laws, "_grouped_entropies", counting)
        blocks.clear()
        all_subset_entropies(law)
        monkeypatch.undo()
        rows = [shape[0] for shape, _ in blocks]
        assert sum(rows) == 1 << 16
        assert max(rows) == laws._SORT_BLOCK // width
        assert {(shape[1], route) for shape, route in blocks} == {(width, count)}


def _counting_keys(monkeypatch):
    """Count how often the law's support keys are built."""
    prop = SystemLaw.__dict__["_keys"]
    original = prop.func
    builds = []

    def build(law):
        builds.append(law)
        return original(law)

    monkeypatch.setattr(prop, "func", build)
    return builds


def test_support_keys_are_built_once_per_law(monkeypatch):
    law = it.sample_sparse_system(it.ConstructionSpec(2, 16, 8, 2))
    builds = _counting_keys(monkeypatch)
    stream = it.SplitMix64(2)
    calls = [[stream.sample_subset_mask(16, k) for k in (1, 5, 9, 15)]
             for _ in range(3)]
    first = laws.subset_entropies(law, calls[0])
    keys = law._keys
    for masks in calls[1:]:
        laws.subset_entropies(law, masks)
    all_subset_entropies(law)
    assert builds == [law]
    assert law._keys is keys
    with pytest.raises(ValueError):
        keys[0] = 1                     # shared read-only by every call
    assert not keys.flags.writeable
    pmap = naive_pmap(law)
    for m, h in zip(calls[0], first):
        assert h == pytest.approx(naive_subset_entropy(pmap, _keep(m, 16)),
                                  abs=1e-12)


def test_wide_keys_are_built_once_per_law(monkeypatch):
    # width 70 + 5 > 63: two key words, built on the first call and shared
    # by the sampled routes after it
    gen = np.random.default_rng(7)
    configs = np.unique(gen.integers(0, 2, size=(20, 70), dtype=np.uint8), axis=0)
    law = SystemLaw.sparse(2, 70, configs, gen.dirichlet(np.ones(len(configs))))
    builds = _counting_keys(monkeypatch)
    masks = [1, 1 << 69, full_mask(70)]
    first = laws.subset_entropies(law, masks)
    keys = law._keys
    entropy_profile_sampled(law, [1, 35, 70], 4, seed=1)
    it.threshold_census(law, x=0.1, y=0.5, epsilon=0.2, samples=10, seed=2)
    assert builds == [law]
    assert law._keys is keys
    assert keys.shape == (2, law.support_size) and keys.dtype == np.uint64
    with pytest.raises(ValueError):
        keys[1, 0] = 1                  # shared read-only by every call
    assert not keys.flags.writeable
    pmap = naive_pmap(law)
    for m, h in zip(masks, first):
        assert h == pytest.approx(naive_subset_entropy(pmap, _keep(m, 70)),
                                  abs=1e-12)


def test_sort_path_never_groups_rows(monkeypatch):
    # one sort path for every width: an N=70 law (two key words) and, on
    # the exhaustive route, a d=256, N=8 law of 300 points (width 73)
    gen = np.random.default_rng(71)
    configs = np.unique(gen.integers(0, 2, size=(40, 70), dtype=np.uint8), axis=0)
    configs[:20, :50] = 0               # shared prefixes make real groups
    configs = np.unique(configs, axis=0)
    law = SystemLaw.sparse(2, 70, configs, gen.dirichlet(np.ones(len(configs))))
    configs = np.unique(gen.integers(0, 256, size=(300, 8), dtype=np.uint8), axis=0)
    wide = SystemLaw.sparse(256, 8, configs, gen.dirichlet(np.ones(len(configs))))

    def refuse(*_):
        raise AssertionError("_group_rows called")

    monkeypatch.setattr(laws, "_group_rows", refuse)
    stream = it.SplitMix64(9)
    masks = [stream.sample_subset_mask(70, k) for k in (1, 5, 35, 52, 69, 70)]
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, _keep(m, 70)) for m in masks]
    assert np.allclose(laws.subset_entropies(law, masks), want,
                       rtol=0.0, atol=1e-12)
    prof = entropy_profile_sampled(law, [2, 60], 3, seed=5)
    stream = it.SplitMix64(5)
    for k in (2, 60):
        hs = [naive_subset_entropy(pmap, _keep(stream.sample_subset_mask(70, k), 70))
              for _ in range(3)]
        assert prof.values[k] == pytest.approx(np.mean(hs) / (70 * LOG2),
                                               abs=1e-12)
    assert wide._keys.shape[0] == 2
    pmap = naive_pmap(wide)
    want = [naive_subset_entropy(pmap, _keep(m, 8)) for m in range(256)]
    assert np.allclose(all_subset_entropies(wide), want, rtol=0.0, atol=1e-12)


def test_wide_subset_entropies_do_not_depend_on_workers(monkeypatch):
    # (2,70,16): 65,536 support points in two key words, so 16 masks a
    # chunk on one core, 8 on two and 2 on eight; 40 masks span 3, 5 and
    # 20 chunks, some touching one word only
    law = it.sample_sparse_system(it.ConstructionSpec(2, 70, 16, 3))
    assert law._keys.shape == (2, 1 << 16)
    stream = it.SplitMix64(70)
    masks = [stream.sample_subset_mask(70, k)
             for k in (1, 3, 12, 35, 60, 69, 70) for _ in range(5)]
    masks += [0, 1, 1 << 69, (1 << 46) | (1 << 47), full_mask(70)]
    runs = []
    for cores, pools in ((1, []), (2, [2]), (8, [8])):
        started = _pool_widths(monkeypatch, cores)
        runs.append(laws.subset_entropies(law, masks))
        assert started == pools
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])
    # 65k groups: the oracle sums its -p log p terms exactly
    pmap = naive_pmap(law)
    for i in (0, 17, 39):
        marg = naive_marginal(pmap, _keep(masks[i], 70)).values()
        want = math.fsum(-p * math.log(p) for p in marg)
        assert abs(runs[1][i] - want) <= 1e-12, (masks[i], runs[1][i], want)


def test_empty_set_entropy_is_exactly_zero(monkeypatch):
    # the Dirichlet table's masses sum to 1 - 2.2e-16, and the sort path
    # groups the (3,10,5,2) support into one group of mass 1 + 2.2e-16
    dense = random_dense_law(np.random.default_rng(100), 2, 8)
    sparse = it.sample_sparse_system(it.ConstructionSpec(3, 10, 5, 2))
    for law, path in ((dense, "_lattice_entropies"),
                      (sparse, "_sorted_entropies")):
        assert _kernel_path(monkeypatch, law) == [path]
        monkeypatch.undo()
        H = all_subset_entropies(law)
        assert H[0] == 0.0 and not np.signbit(H[0])
        h0 = entropy_profile_exact(law).values[0]
        assert h0 == 0.0 and not np.signbit(h0)


@pytest.mark.parametrize("d,N", [(2, 9), (3, 6)])
def test_transforms_of_a_keyed_law_match_oracle(d, N):
    gen = np.random.default_rng(d * N)
    law = _random_law(gen, d, N, sparse=True)
    all_subset_entropies(law)           # keys cached on the source law
    assert "_keys" in vars(law)
    perm = gen.permutation(N)
    tables = [gen.permutation(d) for _ in range(N)]
    derived = [laws.permute_coordinates(law, perm),
               laws.relabel_symbols(law, tables),
               marginal(law, 0b1011)]
    masks = [int(m) for m in gen.integers(0, 1 << N, size=12)]
    for new in derived:
        assert "_keys" not in vars(new)
        pmap = naive_pmap(new)
        ms = [m & full_mask(new.N) for m in masks]
        want = [naive_subset_entropy(pmap, _keep(m, new.N)) for m in ms]
        assert np.allclose(laws.subset_entropies(new, ms), want,
                           rtol=0.0, atol=1e-12)
        want = [naive_subset_entropy(pmap, _keep(m, new.N))
                for m in range(1 << new.N)]
        assert np.allclose(laws._sorted_entropies(new), want,
                           rtol=0.0, atol=1e-12)


def _cached_laws():
    """A dense law (lattice path) and a construction (sort path)."""
    return ((random_dense_law(np.random.default_rng(8), 3, 5), "_lattice_entropies"),
            (it.sample_sparse_system(it.ConstructionSpec(2, 12, 6, 1)),
             "_sorted_entropies"))


def test_exact_routes_share_one_kernel_run(monkeypatch):
    runs = []
    for name in ("_lattice_entropies", "_sorted_entropies"):
        kernel = getattr(laws, name)
        monkeypatch.setattr(laws, name, lambda law, kernel=kernel, name=name: (
            runs.append(name) or kernel(law)))
    for law, path in _cached_laws():
        runs.clear()
        profile = entropy_profile_exact(law)
        for family in ("est", "uniform", "p-sym:0.3"):
            table = it.coefficient_table(it.parse_family(family), law.N)
            defn = it.intricacy_defn(law, table)
            rep = it.deficit_report(law, table, family=family)
            route = it.intricacy_from_profile(profile, table, law.d)
            assert defn == pytest.approx(route, rel=1e-12, abs=1e-12)
            assert rep.normalized_intricacy == it.g_functional(profile, table)
        H = all_subset_entropies(law)
        assert runs == [path]
        pmap = naive_pmap(law)
        want = [naive_subset_entropy(pmap, _keep(m, law.N))
                for m in range(1 << law.N)]
        assert np.allclose(H, want, rtol=0.0, atol=1e-12)
        assert np.allclose(profile.values, naive_profile(pmap, law.N, law.d),
                           rtol=0.0, atol=1e-12)


def test_all_subset_entropies_are_one_read_only_array():
    for law, _ in _cached_laws():
        H = all_subset_entropies(law)
        assert all_subset_entropies(law) is H
        assert not H.flags.writeable
        with pytest.raises(ValueError):
            H[1] = 0.0
        assert H[0] == 0.0 and not np.signbit(H[0])


def test_over_cap_law_is_refused_on_every_exact_route():
    law = point_mass(2, 23, [0] * 23)
    table = it.coefficient_table(it.est_measure(), 23)
    for route in (all_subset_entropies, entropy_profile_exact,
                  lambda law: it.intricacy_defn(law, table),
                  lambda law: it.deficit_report(law, table)):
        with pytest.raises(CapExceededError, match="SUBSET_CAP"):
            route(law)
        assert "_entropies" not in vars(law)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_transforms_of_a_cached_law_start_uncached(sparse):
    gen = np.random.default_rng(31)
    law = _random_law(gen, 3, 5, sparse)
    H = all_subset_entropies(law)
    derived = [replace(law),
               laws.permute_coordinates(law, gen.permutation(5)),
               laws.relabel_symbols(law, [gen.permutation(3) for _ in range(5)]),
               marginal(law, 0b10110)]
    for new in derived:
        assert "_entropies" not in vars(new)
        got = all_subset_entropies(new)
        assert got is not H
        pmap = naive_pmap(new)
        want = [naive_subset_entropy(pmap, _keep(m, new.N))
                for m in range(1 << new.N)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert all_subset_entropies(law) is H


def test_sampled_routes_do_not_build_marginals(monkeypatch):
    law = it.sample_sparse_system(it.ConstructionSpec(2, 10, 5, 3))

    def refuse(*_):
        raise AssertionError("marginal() called")

    monkeypatch.setattr(laws, "marginal", refuse)
    pmap = naive_pmap(law)

    def oracle(stream, k, count):
        masks = [stream.sample_subset_mask(10, k) for _ in range(count)]
        return [naive_subset_entropy(pmap, _keep(m, 10)) for m in masks]

    prof = entropy_profile_sampled(law, [7, 2, 9], 5, seed=8)
    stream = it.SplitMix64(8)
    for k in (2, 7, 9):
        want = np.mean(oracle(stream, k, 5)) / (10 * LOG2)
        assert prof.values[k] == pytest.approx(want, abs=1e-12)
    rep = it.threshold_census(law, x=0.5, y=0.3, epsilon=0.2, samples=40, seed=4)
    hs = oracle(it.SplitMix64(4), 3, 40)
    assert rep.fraction_near_uniform == np.mean(
        [h > 0.8 * 3 * LOG2 for h in hs])
    assert rep.fraction_determining == np.mean(
        [entropy(law) - h < 0.2 * 0.5 * 10 * LOG2 for h in hs])


def test_sampled_routes_match_oracle_at_n70():
    gen = np.random.default_rng(70)
    configs = gen.integers(0, 2, size=(40, 70), dtype=np.uint8)
    configs[:20, :60] = 0               # shared prefixes make real groups
    configs = np.unique(configs, axis=0)
    law = SystemLaw.sparse(2, 70, configs, gen.dirichlet(np.ones(len(configs))))
    pmap = naive_pmap(law)

    def oracle(stream, k, count):
        masks = [stream.sample_subset_mask(70, k) for _ in range(count)]
        return [naive_subset_entropy(pmap, _keep(m, 70)) for m in masks]

    prof = entropy_profile_sampled(law, [1, 35, 69, 70], 4, seed=3)
    stream = it.SplitMix64(3)
    for k in (1, 35, 69, 70):
        want = np.mean(oracle(stream, k, 4)) / (70 * LOG2)
        assert prof.values[k] == pytest.approx(want, abs=1e-12)
    rep = it.threshold_census(law, x=0.1, y=0.5, epsilon=0.2, samples=30, seed=6)
    hs = oracle(it.SplitMix64(6), 35, 30)
    assert rep.fraction_near_uniform == np.mean(
        [h > 0.8 * 35 * LOG2 for h in hs])
    assert rep.fraction_determining == np.mean(
        [entropy(law) - h < 0.2 * 0.1 * 70 * LOG2 for h in hs])


@pytest.mark.parametrize("d,N,zeros", [(2, 5, 11), (3, 4, 40), (4, 3, 50)])
def test_lattice_on_tables_with_zero_cells_matches_oracle(d, N, zeros):
    gen = np.random.default_rng(d * 100 + N)
    table = gen.dirichlet(np.ones(d**N))
    table[gen.choice(d**N, size=zeros, replace=False)] = 0.0
    law = SystemLaw.dense(d, N, table / table.sum())
    pmap = naive_pmap(law)
    want = [naive_subset_entropy(pmap, _keep(m, N)) for m in range(1 << N)]
    got = laws._lattice_entropies(law)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 6), (3, 4)])
def test_lattice_point_mass_is_exactly_zero(d, N):
    table = np.zeros(d**N)
    table[d**N // 3] = 1.0
    H = laws._lattice_entropies(SystemLaw.dense(d, N, table))
    # every marginal is one 1.0 among zeros; no entropy is -0.0
    assert np.all(H == 0.0) and not np.any(np.signbit(H))


def test_exhaustive_mask_enumeration_is_capped(monkeypatch):
    monkeypatch.setattr(laws, "SUBSET_CAP", 4)
    law = uniform_law(2, 8)
    # C(8, 1) = 8 masks fit under 2^4; C(8, 4) = 70 do not
    prof = entropy_profile_sampled(law, [1], 2, seed=0, exhaustive=True)
    assert prof.values[1] == pytest.approx(1 / 8, abs=1e-12)
    with pytest.raises(CapExceededError):
        entropy_profile_sampled(law, [1, 4], 2, seed=0, exhaustive=True)
    monkeypatch.undo()
    # C(70, 35) ~ 1.1e20 masks: refused before any is built
    with pytest.raises(CapExceededError):
        laws.size_k_masks(70, 35, None, 0)


def test_kernel_selection_dense_uses_lattice(monkeypatch):
    law = random_dense_law(np.random.default_rng(0), 2, 8)
    assert _kernel_path(monkeypatch, law) == ["_lattice_entropies"]


def test_kernel_selection_sparse_construction_uses_sort(monkeypatch):
    law = it.sample_sparse_system(it.ConstructionSpec(2, 16, 8, 0))
    assert _kernel_path(monkeypatch, law) == ["_sorted_entropies"]


# --- hypothesis property tests ----------------------------------------------

@st.composite
def small_laws(draw):
    d = draw(st.integers(2, 3))
    N = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                        min_size=d**N, max_size=d**N).filter(lambda v: sum(v) > 0.1))
    table = np.array(raw)
    return SystemLaw.dense(d, N, table / table.sum())


@given(small_laws())
@settings(max_examples=60, deadline=None)
def test_entropy_bounds_monotone_subadditive(law):
    N, d = law.N, law.d
    H = all_subset_entropies(law)
    logd = math.log(d)
    for mask in range(1 << N):
        k = bin(mask).count("1")
        assert -1e-9 <= H[mask] <= k * logd + 1e-9
    # monotone: S subset of T
    for mask in range(1 << N):
        for i in range(N):
            if not (mask >> i) & 1:
                assert H[mask] <= H[mask | (1 << i)] + 1e-9
    # subadditive on disjoint unions
    for s in range(1 << N):
        t = (full_mask(N) ^ s)
        sub = t
        while True:
            if s and sub:
                assert H[s | sub] <= H[s] + H[sub] + 1e-9
            if sub == 0:
                break
            sub = (sub - 1) & t


@given(small_laws())
@settings(max_examples=30, deadline=None)
def test_mi_nonnegative(law):
    for mask in range(1 << law.N):
        assert mutual_information(law, mask) >= -1e-9


# --- serialization ------------------------------------------------------------

def test_json_roundtrip_sparse():
    law = diagonal_law(3, 3)
    back = SystemLaw.from_json(law.to_json())
    assert back.kind == "sparse"
    assert np.array_equal(back.configs, law.configs)
    assert np.array_equal(back.probs, law.probs)


def test_json_roundtrip_dense(rng):
    law = random_dense_law(rng, 2, 3)
    back = SystemLaw.from_json(law.to_json())
    assert back.kind == "dense"
    assert np.array_equal(back.table, law.table)


def test_normalization_has_a_fixed_point():
    gen = np.random.default_rng(20261018)
    for _ in range(200):
        d = int(gen.integers(2, 5))
        N = int(gen.integers(1, {2: 12, 3: 7, 4: 6}[d] + 1))   # d^N <= 4096
        p = gen.dirichlet(np.ones(d**N))
        once = laws._normalized(p)
        assert np.array_equal(laws._normalized(once), once)
        law = SystemLaw.dense(d, N, p)
        back = SystemLaw.from_json(law.to_json())
        assert back.table.tobytes() == law.table.tobytes()


def _entry_dicts_json(law):
    """A sparse law file as json.dumps writes its entry dicts."""
    return json.dumps({"d": law.d, "N": law.N, "support": [
        {"config": [int(s) for s in cfg], "p": float(p)}
        for cfg, p in zip(law.configs, law.probs)]})


@given(d=st.sampled_from([2, 3, 10, 11, 256]), N=st.integers(0, 6),
       rows=st.integers(1, 300), dyadic=st.booleans(),
       alpha=st.sampled_from([0.02, 0.3, 1.0, 20.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_sparse_law_file_matches_json_dumps(d, N, rows, dyadic, alpha, seed):
    gen = np.random.default_rng(seed)
    configs = np.unique(gen.integers(0, d, size=(rows, N)), axis=0)
    n = len(configs)
    if dyadic:
        # c / 2^m masses: short reprs, many repeated values
        m = int(gen.integers(9, 40))
        weights = (gen.multinomial(2**m - n, np.ones(n) / n) + 1) / 2.0**m
    else:
        # many distinct repr widths, down to e-notation
        weights = gen.dirichlet(np.full(n, alpha))
    law = SystemLaw.sparse(d, N, configs, weights)
    text = law.to_json()
    assert text == _entry_dicts_json(law)
    back = SystemLaw.from_json(text)
    assert back.configs.tobytes() == law.configs.tobytes()
    assert back.probs.tobytes() == law.probs.tobytes()


def test_sparse_law_file_spans_blocks():
    # 65536 rows: 16 blocks of 4096, many distinct masses
    gen = np.random.default_rng(16)
    configs = np.unique(gen.integers(0, 2, size=(70000, 20), dtype=np.uint8),
                        axis=0)[:65536]
    law = SystemLaw.sparse(2, 20, configs, gen.dirichlet(np.ones(len(configs))))
    assert law.to_json() == _entry_dicts_json(law)


def _read_both_ways(text):
    """What ``SystemLaw.from_json`` and the ``json`` route give for a text:
    a law, or the type and message of the exception raised."""
    out = []
    for read in (SystemLaw.from_json,
                 lambda t: SystemLaw.from_json_dict(json.loads(t))):
        try:
            out.append(read(text))
        except Exception as exc:        # compared, not swallowed
            out.append((type(exc), str(exc)))
    return out


def _assert_same_read(text):
    fast, slow = _read_both_ways(text)
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert fast.kind == slow.kind and fast.d == slow.d and fast.N == slow.N
        assert np.array_equal(fast.configs, slow.configs)
        assert fast.probs.tobytes() == slow.probs.tobytes()
    return fast


def _support_file(d, N, configs, probs):
    """A sparse law file in the canonical layout for any rows and masses,
    normalized or not."""
    rows = np.asarray(configs, dtype=np.uint8).reshape(len(probs), N)
    body = b"".join(laws._support_text(d, rows, np.asarray(probs, float)))
    return f'{{"d": {d}, "N": {N}, "support": [{body.decode()}]}}'


SPECIAL_MASSES = [5e-324, 1e-300, 0.1, 1 / 3, 0.25, 2.0**-20]


@st.composite
def canonical_files(draw):
    """(law, text) of a valid sparse law in the canonical layout: 1-3 digit
    symbols, some special masses, optionally a trailing newline."""
    d = draw(st.sampled_from([2, 3, 10, 11, 100, 256]))
    N = draw(st.integers(0, 8))
    rows = draw(st.sampled_from([1, 5, 300, 3000]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    configs = np.unique(gen.integers(0, d, size=(rows, N)), axis=0)
    gen.shuffle(configs)
    n = len(configs)
    specials = draw(st.lists(st.sampled_from(SPECIAL_MASSES), max_size=4,
                             unique=True))[:n - 1]
    m = n - len(specials)
    if draw(st.booleans()):
        # c / 2^30 shares of the rest
        weights = (gen.multinomial(2**30 - m, np.ones(m) / m) + 1) / 2.0**30
    else:
        weights = gen.dirichlet(np.ones(m))
    probs = np.concatenate([specials, weights * (1.0 - sum(specials))])
    gen.shuffle(probs)
    law = SystemLaw.sparse(d, N, configs, probs)
    text = law.to_json() + ("\n" if draw(st.booleans()) else "")
    return law, text


@given(canonical_files())
@settings(max_examples=60, deadline=None)
def test_canonical_law_files_take_the_block_reader(case):
    law, text = case
    assert laws._read_support(text) is not None
    back = _assert_same_read(text)
    assert back.configs.tobytes() == law.configs.tobytes()
    assert back.probs.tobytes() == law.probs.tobytes()


def test_block_reader_spans_blocks():
    # ~300 KB of d=256 entries: several blocks, 3-digit symbols at every cut
    gen = np.random.default_rng(7)
    configs = np.unique(gen.integers(0, 256, size=(6000, 6)), axis=0)
    law = SystemLaw.sparse(256, 6, configs, gen.dirichlet(np.ones(len(configs))))
    text = law.to_json()
    assert len(text) > 4 * laws._READ_BLOCK
    assert laws._read_support(text) is not None
    _assert_same_read(text)


def _variants(law):
    """Texts of one law, and of broken laws, that are not all canonical."""
    obj = json.loads(law.to_json())
    entries = obj["support"]
    text = law.to_json()
    # the first entry's mass, and its first symbol if it has one
    mass = f'"p": {float(law.probs[0])!r}}}'
    symbol = f'"config": [{law.configs[0, 0]}' if law.N else '"config": ['
    return {
        "indent": json.dumps(obj, indent=1),
        "compact": json.dumps(obj, separators=(",", ":")),
        "reordered-keys": json.dumps({"support": entries, "N": law.N, "d": law.d}),
        "unsorted-rows": _support_file(law.d, law.N, law.configs[::-1],
                                       law.probs[::-1]),
        "repeated-row": _support_file(
            law.d, law.N, np.concatenate([law.configs, law.configs[:1]]),
            np.concatenate([law.probs, [0.0]])),
        "symbol-at-d": text.replace(symbol, f'"config": [{law.d}', 1),
        "mass-1e400": text.replace(mass, '"p": 1e400}', 1),
        "mass-NaN": text.replace(mass, '"p": NaN}', 1),
        "escaped-key": text.replace('"p": ', '"\\u0070": ', 1),
        "escaped-digit-symbol": text.replace(symbol, '"config": ["\\u0030"', 1),
        "truncated": text[:len(text) // 2],
        "trailing-space": text + " ",
    }


@given(canonical_files())
@settings(max_examples=40, deadline=None)
def test_non_canonical_law_files_read_like_json(case):
    law, _ = case
    for name, text in _variants(law).items():
        _assert_same_read(text)


@pytest.mark.parametrize("name", [
    "unsorted-rows", "repeated-row", "symbol-at-d", "mass-1e400", "mass-NaN"])
def test_non_canonical_law_file_outcomes(name):
    law = SystemLaw.sparse(3, 2, [[0, 1], [2, 2], [1, 0]], [0.5, 0.25, 0.25])
    fast, slow = _read_both_ways(_variants(law)[name])
    if name == "unsorted-rows":
        assert np.array_equal(fast.configs, law.configs)
        assert fast.probs.tobytes() == law.probs.tobytes()
    else:
        assert fast == slow and fast[0] is LawValidationError
        assert {"repeated-row": "duplicate", "symbol-at-d": "0..2",
                "mass-1e400": "non-finite", "mass-NaN": "non-finite"}[name] in fast[1]


@pytest.mark.parametrize("obj,what", [
    ({"d": 2, "N": 2, "support": [{"config": [True, False], "p": 1.0}]},
     "configuration symbols"),
    ({"d": 2, "N": 2, "support": [{"config": [0, True], "p": 1.0}]},
     "configuration symbols"),
    ({"d": 2, "N": 1, "support": [{"config": [0], "p": "0.5"},
                                  {"config": [1], "p": "0.5"}]},
     "probability masses"),
    ({"d": 2, "N": 1, "support": [{"config": [0], "p": True}]},
     "probability masses"),
    ({"d": 2, "N": 1, "dense": ["0.5", "0.5"]}, "dense cells"),
    ({"d": 2, "N": 1, "dense": [[True], [0]]}, "dense cells"),
    ({"d": 2, "N": 1, "support": [{"config": [0], "p": [0.5]},
                                  {"config": [1], "p": [0.5]}]},
     "probability masses"),
    ({"d": 2, "N": 2, "support": [{"config": [[0], [1]], "p": 0.5},
                                  {"config": [[1], [0]], "p": 0.5}]},
     "configuration symbols"),
], ids=["boolean-symbols", "mixed-boolean-symbol", "string-mass",
        "boolean-mass", "string-dense-cell", "nested-boolean-dense-cell",
        "nested-mass", "nested-config"])
def test_non_numeric_law_file_values_rejected(obj, what):
    with pytest.raises(LawValidationError, match=f"{what} must be numbers"):
        SystemLaw.from_json_dict(obj)
    with pytest.raises(LawValidationError, match=f"{what} must be numbers"):
        SystemLaw.from_json(json.dumps(obj))


@pytest.mark.parametrize("config", [[0, 1, 0], [1], [[0, 1]], 1, None],
                         ids=["too-long", "too-short", "nested-row", "number",
                              "null"])
def test_configurations_must_be_lists_of_n_symbols(config):
    obj = {"d": 2, "N": 2, "support": [{"config": config, "p": 1.0}]}
    for read in (SystemLaw.from_json_dict,
                 lambda o: SystemLaw.from_json(json.dumps(o))):
        with pytest.raises(LawValidationError, match="list of N=2 symbols"):
            read(obj)


def test_integral_float_symbols_accepted():
    law = SystemLaw.from_json('{"d": 2, "N": 2, "support": '
                              '[{"config": [1.0, 0], "p": 1.0}]}')
    assert law.configs.tolist() == [[1, 0]]


def test_block_reader_memory_is_a_third_of_json():
    import tracemalloc
    text = it.sample_sparse_system(it.ConstructionSpec(2, 22, 16, 77)).to_json()
    peaks = []
    for read in (SystemLaw.from_json,
                 lambda t: SystemLaw.from_json_dict(json.loads(t))):
        tracemalloc.start()
        try:
            read(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # no per-entry Python objects and no whole-text copy
    assert 3 * peaks[0] <= peaks[1]


def test_json_schema_fields():
    obj = json.loads(diagonal_law(2, 2).to_json())
    assert obj["d"] == 2 and obj["N"] == 2
    assert obj["support"] == [{"config": [0, 0], "p": 0.5},
                              {"config": [1, 1], "p": 0.5}]


def test_dense_index_order_coordinate_one_most_significant():
    # mass on configuration (1,0) must sit at flat index 1*2 + 0 = 2
    law = SystemLaw.dense(2, 2, [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(law.configs, [[1, 0]])


@pytest.mark.parametrize("d,N,zero_share", [
    (2, 0, 0.0), (2, 1, 0.5), (2, 9, 0.3), (3, 6, 0.5), (5, 4, 0.9),
    (256, 2, 0.7)])
def test_dense_support_matches_argwhere(d, N, zero_share):
    gen = np.random.default_rng(d * 10 + N)
    table = gen.dirichlet(np.ones(d**N))
    table[gen.random(d**N) < zero_share] = 0.0
    table[gen.integers(d**N)] = 1.0  # at least one nonzero cell
    table /= table.sum()
    law = SystemLaw.dense(d, N, table)
    want = np.argwhere(table.reshape((d,) * N)).astype(np.uint8)
    assert law.configs.dtype == np.uint8
    assert np.array_equal(law.configs, want)
    assert np.array_equal(law.probs, table[table > 0])


def test_dense_law_memory_has_no_int64_configs():
    import tracemalloc
    d, N = 2, 16
    table = np.random.default_rng(16).dirichlet(np.ones(d**N))
    tracemalloc.start()
    try:
        SystemLaw.dense(d, N, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.argwhere's (d^N, N) int64 array alone would be N = 16 floats a cell
    assert peak <= 8 * 12 * d**N
