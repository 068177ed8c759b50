import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy import (DeficitReport, coefficient_table, deficit_report,
                       diagonal_law, entropy_profile_exact, est_measure,
                       g_functional, ic_limit, ic_n, ideal_profile,
                       intricacy_defn, intricacy_from_profile, parse_family,
                       permute_coordinates, point_mass, product_law,
                       relabel_symbols, uniform_law)
from conftest import naive_intricacy, naive_pmap, random_dense_law

LOG2 = math.log(2)
FAMILIES = ("est", "uniform", "p-sym:0.3")


def est_table(N):
    return coefficient_table(est_measure(), N)


# --- intricacy evaluation -----------------------------------------------------

def test_diagonal_pair_neural_complexity():
    # two perfectly coupled fair bits: only the two singleton bipartitions
    # carry information, each MI = log 2, each weighted 1/6
    val = intricacy_defn(diagonal_law(2, 2), est_table(2))
    assert val == pytest.approx(LOG2 / 3, abs=1e-12)


def test_product_law_zero_intricacy():
    law = product_law([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]], 2)
    for fam in FAMILIES:
        table = coefficient_table(parse_family(fam), 3)
        assert intricacy_defn(law, table) == pytest.approx(0.0, abs=1e-12)


def test_point_mass_zero_intricacy():
    assert intricacy_defn(point_mass(3, 4, [2, 0, 1, 2]),
                          est_table(4)) == pytest.approx(0.0, abs=1e-12)


def test_uniform_law_zero_intricacy():
    assert intricacy_defn(uniform_law(2, 5),
                          est_table(5)) == pytest.approx(0.0, abs=1e-12)


def test_routes_agree_on_random_laws(rng):
    for d, N in ((2, 4), (2, 6), (3, 4)):
        law = random_dense_law(rng, d, N)
        profile = entropy_profile_exact(law)
        for fam in FAMILIES:
            table = coefficient_table(parse_family(fam), N)
            a = intricacy_defn(law, table)
            b = intricacy_from_profile(profile, table, d)
            assert a == pytest.approx(b, abs=1e-10)


def test_matches_naive_oracle(rng):
    for d, N in ((2, 3), (3, 3), (2, 4)):
        law = random_dense_law(rng, d, N)
        pmap = naive_pmap(law)
        for fam in FAMILIES:
            table = coefficient_table(parse_family(fam), N)
            assert intricacy_defn(law, table) == pytest.approx(
                naive_intricacy(pmap, N, table.c), abs=1e-12)


def test_table_size_mismatch_raises():
    with pytest.raises(ValueError):
        intricacy_defn(diagonal_law(2, 3), est_table(2))
    with pytest.raises(ValueError):
        g_functional(ideal_profile(0.5, 3), est_table(2))
    from intricacy import profile_norm
    with pytest.raises(ValueError):
        profile_norm(ideal_profile(0.5, 3), ideal_profile(0.5, 2), est_table(3))
    with pytest.raises(ValueError):
        profile_norm(ideal_profile(0.5, 3), ideal_profile(0.5, 3), est_table(2))


def test_invariant_under_coordinate_permutation(rng):
    law = random_dense_law(rng, 2, 5)
    table = est_table(5)
    base = intricacy_defn(law, table)
    for perm in ([4, 3, 2, 1, 0], [1, 2, 3, 4, 0], [2, 0, 4, 1, 3]):
        assert intricacy_defn(permute_coordinates(law, perm),
                              table) == pytest.approx(base, abs=1e-12)


def test_invariant_under_symbol_relabeling(rng):
    law = random_dense_law(rng, 3, 4)
    table = est_table(4)
    base = intricacy_defn(law, table)
    relabeled = relabel_symbols(law, [[2, 0, 1]] * 4)
    assert intricacy_defn(relabeled, table) == pytest.approx(base, abs=1e-12)


# --- ceilings -------------------------------------------------------------------

def test_icn_uniform_family_n2_at_half():
    table = coefficient_table(parse_family("uniform"), 2)
    assert ic_n(0.5, table) == pytest.approx(0.25, abs=1e-15)


def test_icn_endpoints_vanish():
    for fam in FAMILIES:
        for N in (1, 5, 12):
            table = coefficient_table(parse_family(fam), N)
            assert ic_n(0.0, table) == pytest.approx(0.0, abs=1e-15)
            assert ic_n(1.0, table) == pytest.approx(0.0, abs=1e-12)


def test_ic_limit_closed_forms():
    est = est_measure()
    uni = parse_family("uniform")
    psym = parse_family("p-sym:0.3")
    for x in np.linspace(0.0, 1.0, 21):
        assert ic_limit(x, est) == pytest.approx(x * (1 - x), abs=1e-14)
        assert ic_limit(x, uni) == pytest.approx(min(x, 1 - x), abs=1e-14)
        assert ic_limit(x, psym) == pytest.approx(
            min(x, 1 - x, 0.3, 0.7), abs=1e-14)


def test_ic_limit_est_at_half():
    assert ic_limit(0.5, est_measure()) == pytest.approx(0.25, abs=1e-15)


def test_icn_converges_to_limit_at_rate():
    # |i^c_N(x) - i^c(x)| <= 1/(2 sqrt N)
    for fam in FAMILIES:
        measure = parse_family(fam)
        for N in (1, 2, 4, 8, 16, 32, 64):
            table = coefficient_table(measure, N)
            for x in np.linspace(0.0, 1.0, 11):
                gap = abs(ic_n(float(x), table) - ic_limit(float(x), measure))
                assert gap <= 0.5 / math.sqrt(N) + 1e-12, (fam, N, x, gap)


def test_ic_limit_symmetric_and_concave_grid():
    for fam in FAMILIES:
        measure = parse_family(fam)
        xs = np.linspace(0.0, 1.0, 101)
        vals = np.array([ic_limit(float(x), measure) for x in xs])
        assert np.allclose(vals, vals[::-1], atol=1e-12)
        # midpoint concavity on the grid
        assert np.all(vals[1:-1] >= 0.5 * (vals[:-2] + vals[2:]) - 1e-12)
        # 1-Lipschitz
        assert np.max(np.abs(np.diff(vals))) <= 0.01 + 1e-12


def test_icn_domain_check():
    with pytest.raises(ValueError):
        ic_n(1.5, est_table(3))
    with pytest.raises(ValueError):
        ic_limit(-0.1, est_measure())
    with pytest.raises(ValueError):
        ideal_profile(1.5, 3)


# --- ideal profiles and the deficit identity --------------------------------------

def test_ideal_profile_values():
    prof = ideal_profile(0.5, 4)
    assert np.allclose(prof.values, [0.0, 0.25, 0.5, 0.5, 0.5], atol=1e-15)
    prof.validate()


def test_ideal_profile_attains_ceiling():
    for fam in FAMILIES:
        for N in (2, 5, 10):
            table = coefficient_table(parse_family(fam), N)
            for x in (0.0, 0.25, 0.5, 0.8, 1.0):
                assert g_functional(ideal_profile(x, N),
                                    table) == pytest.approx(
                    ic_n(x, table), abs=1e-14)


def test_deficit_identity_exact(rng):
    # I/(N log d) == i^c_N(x) - ||h - h*_x||, bit for bit up to rounding
    for d, N in ((2, 5), (3, 4), (2, 7)):
        law = random_dense_law(rng, d, N)
        for fam in FAMILIES:
            table = coefficient_table(parse_family(fam), N)
            rep = deficit_report(law, table, family=fam)
            assert rep.normalized_intricacy == pytest.approx(
                rep.icn_x - rep.deficit, abs=1e-12)
            assert rep.deficit >= -1e-12
            assert intricacy_defn(law, table) == pytest.approx(
                rep.normalized_intricacy * N * math.log(d), abs=1e-10)


def test_deficit_zero_for_ideal_system():
    # the coupled-pair system realizes h*_{1/2} exactly at N = 2
    rep = deficit_report(diagonal_law(2, 2), est_table(2), family="est")
    assert rep.x == pytest.approx(0.5, abs=1e-12)
    assert rep.icn_x == pytest.approx(1 / 6, abs=1e-12)
    assert rep.deficit == pytest.approx(0.0, abs=1e-12)
    assert rep.normalized_intricacy == pytest.approx(1 / 6, abs=1e-12)


def test_deficit_report_json_fields():
    rep = deficit_report(diagonal_law(2, 2), est_table(2), family="est")
    obj = rep.to_json_dict()
    assert set(obj) == {"x", "icn_x", "deficit", "normalized_intricacy",
                        "d", "N", "family"}
    assert obj["family"] == "est"


def test_deficit_report_reuses_supplied_profile(rng):
    law = random_dense_law(rng, 2, 5)
    prof = entropy_profile_exact(law)
    table = est_table(5)
    a = deficit_report(law, table)
    b = deficit_report(law, table, profile=prof)
    assert a == DeficitReport(**{**b.__dict__})


def test_norm_trivial_values():
    from intricacy import profile_norm
    from intricacy.laws import EntropyProfile
    N = 6
    table = est_table(N)
    h = ideal_profile(0.4, N)
    assert profile_norm(h, h, table) == 0.0
    zero = EntropyProfile(N, np.zeros(N + 1))
    one = EntropyProfile(N, np.ones(N + 1))
    assert profile_norm(zero, one, table) == pytest.approx(1.0, abs=1e-14)


def test_gap_to_ideal_is_twice_the_norm(rng):
    # the G functional doubles every profile weight, so the distance to the
    # ideal profile enters the deficit identity with a factor of two
    from intricacy import profile_norm
    law = random_dense_law(rng, 2, 5)
    prof = entropy_profile_exact(law)
    x = float(prof.values[-1])
    for fam in FAMILIES:
        table = coefficient_table(parse_family(fam), 5)
        gap = abs(g_functional(prof, table) - g_functional(
            ideal_profile(x, 5), table))
        assert gap == pytest.approx(
            2.0 * profile_norm(prof, ideal_profile(x, 5), table), abs=1e-12)


# --- the ceiling really is a ceiling ----------------------------------------------

@given(st.integers(2, 3), st.integers(2, 5), st.integers(0, 2),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_normalized_intricacy_below_ceiling(d, N, fam_idx, seed):
    law = random_dense_law(np.random.default_rng(seed), d, N)
    table = coefficient_table(parse_family(FAMILIES[fam_idx]), N)
    rep = deficit_report(law, table)
    assert rep.normalized_intricacy <= rep.icn_x + 1e-12
    assert rep.normalized_intricacy <= ic_n(rep.x, table) + 1e-12
