"""Acceptance gate: twelve numbered criteria, each printing one PASS/FAIL
line.  Thresholds marked "frozen" come from tests/fixtures/calibration.json,
recorded after a single calibration run of the shared sweep.

Run with -s (or read the captured output) to see the per-criterion lines.
"""
import json
import math
import pathlib
import time

import numpy as np
import pytest

from intricacy import (CoefficientTable, coefficient_table, convergence_sweep,
                       deficit_report, entropy_profile_exact, est_measure,
                       expected_subset_entropy, entropy_envelope, ic_limit,
                       ic_n, intricacy_defn, intricacy_from_profile,
                       maximizer_search, p_symmetric_measure, parse_family,
                       permute_coordinates, profile_convergence,
                       relabel_symbols, sample_sparse_system,
                       threshold_census, uniform_measure,
                       validate_coefficients)
from intricacy.coefficients import MEASURE_TOL
from intricacy.construction import ConstructionSpec
from conftest import random_dense_law

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CALIBRATION = json.loads((FIXTURES / "calibration.json").read_text())
FAMILIES = [("est", est_measure()), ("uniform", uniform_measure()),
            ("p-sym:0.3", p_symmetric_measure(0.3))]


def report(num: int, ok: bool, text: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    return ok


@pytest.fixture(scope="session")
def corpus():
    """50 random dense laws with d in {2,3}, N in {2..7}."""
    gen = np.random.default_rng(715)
    combos = [(d, N) for d in (2, 3) for N in range(2, 8)]
    laws = []
    for i in range(50):
        d, N = combos[i % len(combos)]
        laws.append(random_dense_law(gen, d, N))
    return laws


@pytest.fixture(scope="session")
def shared_sweep():
    """The calibrated sweep: 3 families, d=2, x=1/2, N in {8,12,16},
    50 seeds, exhaustive profiles; timed for the runtime criterion."""
    cfg = CALIBRATION["sweep"]
    t0 = time.time()
    records, profiles = convergence_sweep(
        FAMILIES, d=cfg["d"], x=cfg["x"], N_list=cfg["N_list"],
        seeds=range(cfg["seeds"]), keep_profiles=True)
    elapsed = time.time() - t0
    return records, profiles, elapsed


def _sweep_means(records, family):
    by_N = {}
    for r in records:
        if r.family == family:
            by_N.setdefault(r.N, []).append(r.I_N)
    return {N: float(np.mean(v)) for N, v in sorted(by_N.items())}


def test_criterion_1_definition_equivalence(corpus):
    t0 = time.time()
    worst = 0.0
    for law in corpus:
        profile = entropy_profile_exact(law)
        for _, measure in FAMILIES:
            table = coefficient_table(measure, law.N)
            a = intricacy_defn(law, table)
            b = intricacy_from_profile(profile, table, law.d)
            worst = max(worst, abs(a - b) / (law.N * math.log(law.d)))
    elapsed = time.time() - t0
    budget = CALIBRATION["thresholds"]["definition_equivalence_runtime_seconds"]
    ok = worst <= 1e-9 and elapsed < budget
    assert report(1, ok, f"definition vs profile route, 50 laws x 3 families: "
                  f"max normalized gap {worst:.2e} (<=1e-9), "
                  f"{elapsed:.1f}s (<{budget:.0f}s)")


def test_criterion_2_deficit_identity(corpus):
    worst = 0.0
    for law in corpus:
        profile = entropy_profile_exact(law)
        for name, measure in FAMILIES:
            rep = deficit_report(law, coefficient_table(measure, law.N),
                                 family=name, profile=profile)
            worst = max(worst, abs(rep.normalized_intricacy
                                   - (rep.icn_x - rep.deficit)))
    ok = worst <= 1e-9
    assert report(2, ok, f"normalized intricacy = ceiling - deficit: "
                  f"max violation {worst:.2e} (<=1e-9)")


def test_criterion_3_limit_closed_forms():
    xs = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for x in xs:
        x = float(x)
        worst = max(
            worst,
            abs(ic_limit(x, est_measure()) - x * (1 - x)),
            abs(ic_limit(x, uniform_measure()) - min(x, 1 - x)),
            abs(ic_limit(x, p_symmetric_measure(0.3))
                - min(x, 1 - x, 0.3, 0.7)))
    ok = worst <= 1e-12
    assert report(3, ok, f"limiting ceiling closed forms on 1001-point grid: "
                  f"max gap {worst:.2e} (<=1e-12)")


def test_criterion_4_finite_size_convergence_rate():
    xs = np.linspace(0.0, 1.0, 1001)
    ok = True
    worst_excess = -1.0
    for _, measure in FAMILIES:
        for N in range(1, 65):
            table = coefficient_table(measure, N)
            bound = 0.5 / math.sqrt(N) + 1e-12
            for x in xs:
                x = float(x)
                gap = abs(ic_n(x, table) - ic_limit(x, measure))
                worst_excess = max(worst_excess, gap - bound)
                if gap > bound:
                    ok = False
    assert report(4, ok, f"|finite ceiling - limit| <= 1/(2 sqrt N) for "
                  f"N<=64, 3 families: worst excess {worst_excess:.2e}")


def test_criterion_5_mean_intricacy_growth(shared_sweep):
    records, _, elapsed = shared_sweep
    means = _sweep_means(records, "est")
    thr = CALIBRATION["thresholds"]
    monotone = means[8] < means[12] < means[16]
    ok = monotone and means[16] >= thr["est_mean_at_N16_min"] \
        and elapsed < thr["sweep_runtime_budget_seconds"]
    assert report(5, ok, f"seed-mean neural complexity at x=1/2: "
                  f"{means[8]:.4f} < {means[12]:.4f} < {means[16]:.4f}, "
                  f"N=16 >= {thr['est_mean_at_N16_min']}, "
                  f"sweep {elapsed:.0f}s (<{thr['sweep_runtime_budget_seconds']:.0f}s)")


def test_criterion_6_profile_convergence(shared_sweep):
    _, profiles, _ = shared_sweep
    by_N = {}
    for (N, _), prof in profiles.items():
        by_N.setdefault(N, []).append(prof)
    rows = {r.N: r for r in profile_convergence(by_N, CALIBRATION["sweep"]["x"])}
    margin = CALIBRATION["thresholds"]["sup_gap_se_margin"]
    ok = (rows[16].mean_gap + margin * rows[16].stderr
          < rows[8].mean_gap - margin * rows[8].stderr)
    assert report(6, ok, f"seed-mean sup profile gap falls "
                  f"{rows[8].mean_gap:.4f} -> {rows[16].mean_gap:.4f} "
                  f"with a {margin:.0f}-standard-error margin")


def test_criterion_7_expected_entropy_envelope():
    d, N, M = 2, 12, 6
    in_envelope = True
    for k in range(N + 1):
        lo, hi = entropy_envelope(d, M, k)
        h = expected_subset_entropy(d, N, M, k)
        if not (lo - 1e-12 <= h <= hi + 1e-12):
            in_envelope = False
    # tiny scale: exhaustive mean over all 16 outcomes of two coin draws
    tiny1 = abs(expected_subset_entropy(2, 2, 1, 1) - 0.5)
    tiny2 = abs(expected_subset_entropy(2, 2, 1, 2) - 0.75)
    ok = in_envelope and tiny1 <= 1e-12 and tiny2 <= 1e-12
    assert report(7, ok, f"expected subset entropies inside envelope "
                  f"(d=2,N=12,M=6) and exhaustive tiny-scale values "
                  f"(gaps {tiny1:.1e}, {tiny2:.1e} <=1e-12)")


def test_criterion_8_threshold_census():
    cfg = CALIBRATION["census"]
    law = sample_sparse_system(ConstructionSpec(
        cfg["d"], cfg["N"], cfg["M"], cfg["construction_seed"]))
    low = threshold_census(law, x=0.5, y=0.25, epsilon=cfg["epsilon"],
                           samples=cfg["samples"], seed=cfg["census_seed"])
    high = threshold_census(law, x=0.5, y=0.75, epsilon=cfg["epsilon"],
                            samples=cfg["samples"], seed=cfg["census_seed"])
    cut = CALIBRATION["thresholds"]["census_fraction_min"]
    ok = (low.fraction_near_uniform >= cut
          and high.fraction_determining >= cut)
    assert report(8, ok, f"census on d=2,N=14,M=7: near-uniform share "
                  f"{low.fraction_near_uniform:.3f} at y=0.25 and "
                  f"determining share {high.fraction_determining:.3f} "
                  f"at y=0.75 (both >= {cut})")


def test_criterion_9_simultaneity(shared_sweep):
    records, _, _ = shared_sweep
    limits = CALIBRATION["thresholds"]["limits"]
    ok = True
    parts = []
    for fam in ("uniform", "p-sym:0.3"):
        means = _sweep_means(records, fam)
        lim = limits[fam]
        monotone = means[8] < means[12] < means[16]
        approaching = (abs(means[16] - lim) < abs(means[12] - lim)
                       < abs(means[8] - lim))
        ok = ok and monotone and approaching
        parts.append(f"{fam}: {means[8]:.3f}<{means[12]:.3f}<{means[16]:.3f}"
                     f" -> {lim}")
    assert report(9, ok, "same laws, other families rise toward their "
                  "own limits (" + "; ".join(parts) + ")")


def test_criterion_10_invariance():
    gen = np.random.default_rng(92)
    worst = 0.0
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        N = 3 + i % 4
        law = random_dense_law(gen, d, N)
        table = coefficient_table(est_measure(), N)
        base = intricacy_defn(law, table)
        perm = list(gen.permutation(N))
        worst = max(worst, abs(
            intricacy_defn(permute_coordinates(law, perm), table) - base))
        maps = [list(gen.permutation(d)) for _ in range(N)]
        worst = max(worst, abs(
            intricacy_defn(relabel_symbols(law, maps), table) - base))
    ok = worst <= 1e-9
    assert report(10, ok, f"coordinate permutations and symbol relabelings "
                  f"on 20 random laws: max intricacy change {worst:.2e} "
                  f"(<=1e-9)")


def test_criterion_11_coefficient_validation():
    ok = MEASURE_TOL <= 1e-12            # the tolerance the report names
    for name, measure in FAMILIES:
        prev: CoefficientTable | None = None
        for N in range(1, 65):
            table = coefficient_table(measure, N)
            rep = validate_coefficients(table, predecessor=prev)
            if not rep.all_passed:
                ok = False
            prev = table
    assert report(11, ok, "nonnegativity, symmetry, unit mass and "
                  "adjacent-size consistency of all 3 coefficient families "
                  "for N<=64 at 1e-12")


def test_criterion_12_maximizer_sanity():
    table = coefficient_table(est_measure(), 2)
    result = maximizer_search(2, 2, table, restarts=100, iterations=200,
                              seed=0)
    target = math.log(2) / 3
    worst_cert = min(r.certificate for r in result.restarts)
    ok = result.intricacy >= target - 1e-6 and worst_cert >= -1e-9
    assert report(12, ok, f"search at d=2,N=2 reaches {result.intricacy:.8f} "
                  f">= (1/3)log2 - 1e-6; worst restart certificate "
                  f"{worst_cert:.1e} >= -1e-9")
