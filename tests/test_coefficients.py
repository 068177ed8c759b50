import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy import (CoefficientTable, MixingMeasure, coefficient_table,
                       dn_law, est_measure, p_symmetric_measure, parse_family,
                       uniform_measure, validate_coefficients)
from intricacy.coefficients import (MeasureValidationError,
                                    TableValidationError, binomials)


# --- mixing measures -------------------------------------------------------

def test_asymmetric_measure_rejected():
    with pytest.raises(MeasureValidationError):
        MixingMeasure(((0.3, 1.0),), 0.0)


def test_mass_deficit_rejected():
    with pytest.raises(MeasureValidationError):
        MixingMeasure(((0.5, 0.9),), 0.0)


@pytest.mark.parametrize("atoms,lebesgue,match", [
    (((0.5, -0.5),), 1.5, "lebesgue_mass outside"),
    (((1.5, 0.5), (-0.5, 0.5)), 0.0, "atom location 1.5 outside"),
    (((0.5, 1.0), (0.25, 0.0)), 0.0, "atom masses must be positive"),
])
def test_measure_outside_its_domain_rejected(atoms, lebesgue, match):
    # each has total mass 1, so the named check is the one that fires
    with pytest.raises(MeasureValidationError, match=match):
        MixingMeasure(atoms, lebesgue)


def test_p_symmetric_half_collapses_to_uniform():
    m = p_symmetric_measure(0.5)
    assert m.atoms == ((0.5, 1.0),)


def test_p_symmetric_range_check():
    with pytest.raises(ValueError):
        p_symmetric_measure(0.0)
    with pytest.raises(ValueError):
        p_symmetric_measure(1.0)


def test_parse_family_shorthands():
    assert parse_family("est").lebesgue_mass == 1.0
    assert parse_family("uniform").atoms == ((0.5, 1.0),)
    assert parse_family("p-sym:0.3").atoms == ((0.3, 0.5), (0.7, 0.5))
    with pytest.raises(ValueError):
        parse_family("gaussian")


def test_supports_membership():
    assert est_measure().supports(0.37)
    assert uniform_measure().supports(0.5)
    assert not uniform_measure().supports(0.4)
    m = p_symmetric_measure(0.3)
    assert m.supports(0.3) and m.supports(0.7) and not m.supports(0.5)


# --- coefficient tables ------------------------------------------------------

def test_est_coefficients_n2():
    c = coefficient_table(est_measure(), 2).c
    assert np.allclose(c, [1 / 3, 1 / 6, 1 / 3], atol=1e-15)


def test_est_coefficients_closed_form():
    for N in (1, 3, 5, 10):
        c = coefficient_table(est_measure(), N).c
        want = [1.0 / ((N + 1) * math.comb(N, k)) for k in range(N + 1)]
        assert np.allclose(c, want, atol=1e-15)


def test_uniform_coefficients_are_constant():
    for N in (1, 4, 9):
        c = coefficient_table(uniform_measure(), N).c
        assert np.allclose(c, 2.0**-N, atol=1e-15)


def test_p_symmetric_coefficients_explicit():
    # c^N_k = (p^k (1-p)^{N-k} + (1-p)^k p^{N-k}) / 2
    p, N = 0.3, 5
    c = coefficient_table(p_symmetric_measure(p), N).c
    want = [(p**k * (1 - p) ** (N - k) + (1 - p) ** k * p ** (N - k)) / 2
            for k in range(N + 1)]
    assert np.allclose(c, want, atol=1e-15)


def test_tables_exactly_symmetric():
    for fam in ("est", "uniform", "p-sym:0.17"):
        for N in (3, 8, 33):
            c = coefficient_table(parse_family(fam), N).c
            assert np.array_equal(c, c[::-1])


def test_table_size_validation():
    with pytest.raises(TableValidationError):
        CoefficientTable(3, [0.1, 0.2])


def test_coefficient_table_rejects_n_zero():
    with pytest.raises(ValueError):
        coefficient_table(est_measure(), 0)


# --- the induced subset-size law ---------------------------------------------

def test_dn_law_est_is_uniform_on_sizes():
    # C(N,k) * 1/((N+1) C(N,k)) = 1/(N+1)
    law = dn_law(coefficient_table(est_measure(), 6))
    assert np.allclose(law.p, 1 / 7, atol=1e-15)


def test_dn_law_uniform_is_binomial_half():
    law = dn_law(coefficient_table(uniform_measure(), 4))
    assert np.allclose(law.p, np.array([1, 4, 6, 4, 1]) / 16, atol=1e-15)


def test_dn_law_expectation_linear_function():
    # E(D_N/N) = 1/2 by symmetry for every family
    for fam in ("est", "uniform", "p-sym:0.2"):
        law = dn_law(coefficient_table(parse_family(fam), 9))
        assert law.expectation(lambda t: t) == pytest.approx(0.5, abs=1e-12)


def test_dn_law_rejects_invalid_table():
    with pytest.raises(TableValidationError):
        dn_law(CoefficientTable(2, [0.5, 0.5, 0.5]))


# --- validation report ---------------------------------------------------------

def test_validation_passes_for_named_families():
    for fam in ("est", "uniform", "p-sym:0.3"):
        measure = parse_family(fam)
        prev = None
        for N in range(1, 65):
            table = coefficient_table(measure, N)
            report = validate_coefficients(table, predecessor=prev)
            assert report.all_passed, (fam, N, report.details)
            prev = table


def test_validation_flags_broken_symmetry():
    report = validate_coefficients(CoefficientTable(2, [0.4, 0.1, 0.3]))
    assert not report.symmetric
    assert not report.all_passed


def test_validation_flags_negative_and_mass():
    report = validate_coefficients(CoefficientTable(1, [-0.1, 0.2]))
    assert not report.nonnegative
    assert not report.unit_mass


def test_validation_flags_pascal_violation():
    good2 = coefficient_table(est_measure(), 2)
    bad1 = CoefficientTable(1, [0.6, 0.4])
    report = validate_coefficients(good2, predecessor=bad1)
    assert report.pascal is False


def test_validation_pascal_wrong_size_predecessor():
    t3 = coefficient_table(est_measure(), 3)
    t1 = coefficient_table(est_measure(), 1)
    assert validate_coefficients(t3, predecessor=t1).pascal is False


# --- property tests -----------------------------------------------------------

@st.composite
def measures(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return est_measure()
    if kind == 1:
        return uniform_measure()
    return p_symmetric_measure(draw(st.floats(0.01, 0.99)))


@given(measures(), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_tables_always_valid(measure, N):
    table = coefficient_table(measure, N)
    prev = coefficient_table(measure, N - 1) if N > 1 else None
    assert validate_coefficients(table, predecessor=prev).all_passed


def test_binomials_exact():
    assert np.array_equal(binomials(5), [1, 5, 10, 10, 5, 1])
