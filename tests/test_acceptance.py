"""Acceptance suite.

One test per criterion A1..A13; each prints a single PASS line with the
measured quantities (run with ``pytest -s`` to see them inline).  The two
expensive sweeps (q = inf and q = r = 2 over the 13-point grid) are computed
once and shared: A6/A9 read the first, A7/A8 the second.

Known red: A7.  The criterion divides the measured ratio by ln^{-3/2} n
before fitting, on the expectation that the l2 sup-norm of best-of-32 sign
polynomials grows like ln^{3/2} n.  Measured data (cross-checked by two
independent estimators, see test_operators.test_lincomb_matches_polarization_identity)
shows those norms nearly flat (~0.55..0.62) over n = 25..97, so the measured
ratio is already a clean power law (uncorrected slope ~0.43, r^2 > 0.999) and
the forced correction pushes the fitted slope to ~0.82, outside [0.3, 0.7].
The polylog factor is an artifact of the upper-bound proof, not a feature of
desk-scale instances; the criterion is kept as stated rather than weakened.
"""

import math
import time
from math import factorial, inf, log

import numpy as np
import pytest

from steinervn.defect import Budgets, d32_experiment, fit_exponent, ratio_point, sweep, SweepConfig
from steinervn.designs import (PartialSteinerSystem, bose_construct,
                               density_report, greedy_construct, is_exact_cover,
                               skolem_construct)
from steinervn.norms import brute_force_norm, estimate_norm, ksz_polydisk_bound
from steinervn.operators import (apply_polynomial, build_operators,
                                 check_commuting, contraction_normalize,
                                 gram_diagonal_check, operator_norm)
from steinervn.polynomials import SteinerPolynomial, random_signs
from steinervn.seeding import derive_seed

GRID_K3 = [7, 9, 13, 15, 19, 21, 25]
GRID_K4 = [10, 14, 18]
SWEEP_GRID = [25, 31, 37, 43, 49, 55, 61, 67, 73, 79, 85, 91, 97]
SWEEP_SEEDS = [0, 1, 2]
SWEEP_BUDGETS = Budgets(rounds=32, starts=64, iters=2000)


def triple_system(n):
    return skolem_construct(n) if n % 6 == 1 else bose_construct(n)


def tuple_for(n, k, seed=0):
    if k == 3:
        system = triple_system(n)
    else:
        system = greedy_construct(n, k, seed)
    p = SteinerPolynomial(system, random_signs(system, derive_seed(seed, "accept", n, k)))
    return p, build_operators(p)


@pytest.fixture(scope="module")
def a1_tuples():
    built = {}
    for n in GRID_K3:
        built[(n, 3)] = tuple_for(n, 3)
    for n in GRID_K4:
        built[(n, 4)] = tuple_for(n, 4)
    return built


@pytest.fixture(scope="module")
def sweep_qinf():
    t0 = time.perf_counter()
    records = sweep(SweepConfig(3, inf, inf, SWEEP_GRID, SWEEP_SEEDS, SWEEP_BUDGETS))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_q2():
    t0 = time.perf_counter()
    records = sweep(SweepConfig(3, 2.0, 2.0, SWEEP_GRID, SWEEP_SEEDS, SWEEP_BUDGETS))
    return records, time.perf_counter() - t0


def median_by_n(records, field):
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(getattr(rec, field))
    return {n: float(np.median(vs)) for n, vs in by_n.items()}


def test_a1_exact_commutation(a1_tuples):
    t0 = time.perf_counter()
    for (n, k), (_, tup) in a1_tuples.items():
        report = check_commuting(tup)
        assert report.ok, f"A1: tuple (n={n}, k={k}) fails at pair {report.pair}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"A1: commutation checks took {elapsed:.0f}s"
    print(f"\nA1 PASS - exact commutation on {len(a1_tuples)} tuples in {elapsed:.1f}s")


def test_a2_contraction_certification(a1_tuples):
    for n in GRID_K3:
        _, tup = a1_tuples[(n, 3)]
        reports = gram_diagonal_check(tup)
        assert all(r.is_diagonal_01 for r in reports), f"A2: n={n} Gram not diagonal 0/1"
    print(f"A2 PASS - Gram certification (norm exactly 1) on k=3 grid {GRID_K3}")


def test_a3_evaluation_identity(a1_tuples):
    for (n, k), (p, tup) in a1_tuples.items():
        image = apply_polynomial(tup, tup.basis.e_vector())
        g = tup.basis.g_index()
        assert image[g] == p.num_terms, f"A3: (n={n}, k={k}) g-coefficient wrong"
        assert not np.any(np.delete(image, g)), f"A3: (n={n}, k={k}) stray coefficients"
    print(f"A3 PASS - p(T)e = |S| g exactly on all {len(a1_tuples)} tuples")


def test_a4_l1_ceiling():
    worst = 0.0
    for case in range(50):
        k = 3 if case % 2 == 0 else 4
        n = 8 + (case * 5) % 18  # spread over 8..25
        system = greedy_construct(n, k, case)
        p = SteinerPolynomial(system, random_signs(system, derive_seed(4, "a4", case)))
        est = estimate_norm(p, 1.0, starts=4, max_iters=400, seed=case)
        assert est.value <= 1.0 / factorial(k) + 1e-9, \
            f"A4: case {case} (n={n}, k={k}) exceeds 1/k!"
        worst = max(worst, est.value * factorial(k))
    for k in (3, 4):
        system = PartialSteinerSystem(k, k, k - 1, (tuple(range(k)),))
        p = SteinerPolynomial(system, np.array([1]))
        oracle = brute_force_norm(p, 1.0, 16)
        assert abs(oracle.value - (1.0 / k) ** k) <= 1e-6, f"A4: single-block k={k} oracle"
    print(f"A4 PASS - l1 ceiling on 50 polynomials (worst value*k! = {worst:.3f}); "
          "single-block oracle matches (1/k)^k")


def test_a5_matching_polynomials_half():
    worst = 0.0
    for case in range(20):
        n = 10 + (case * 3) % 31  # spread over 10..40
        system = greedy_construct(n, 2, case)
        p = SteinerPolynomial(system, random_signs(system, derive_seed(5, "a5", case)))
        est = estimate_norm(p, 2.0, starts=8, max_iters=600, seed=case)
        assert est.value <= 0.5 + 1e-9, f"A5: case {case} (n={n}) exceeds 1/2"
        worst = max(worst, est.value)
    print(f"A5 PASS - 20 matching polynomials stay at or below 1/2 (worst {worst:.6f})")


def test_a6_growth_exponent_qinf(sweep_qinf):
    records, elapsed = sweep_qinf
    assert elapsed < 1800, f"A6: sweep took {elapsed:.0f}s"
    fit = fit_exponent(records, "ratio", 0.0)
    assert 0.35 <= fit.slope <= 0.65, f"A6: slope {fit.slope:.4f} outside [0.35, 0.65]"
    assert fit.r_squared >= 0.9, f"A6: r^2 {fit.r_squared:.4f} below 0.9"
    print(f"A6 PASS - q=inf slope {fit.slope:.4f} (target 0.5), r^2 {fit.r_squared:.4f}, "
          f"sweep {elapsed:.0f}s")


def test_a7_growth_exponent_q2(sweep_q2):
    records, elapsed = sweep_q2
    assert elapsed < 1800, f"A7: sweep took {elapsed:.0f}s"
    fit = fit_exponent(records, "ratio", -1.5)
    print(f"A7 measured - corrected slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}, "
          f"uncorrected slope {fit_exponent(records, 'ratio', 0.0).slope:.4f}")
    assert 0.3 <= fit.slope <= 0.7, (
        f"A7: log-corrected slope {fit.slope:.4f} outside [0.3, 0.7]; the measured "
        "l2 norms are nearly flat in n, so the ln^{3/2} correction overshoots "
        "(see module docstring)"
    )
    print(f"A7 PASS - q=2 corrected slope {fit.slope:.4f}")


def test_a8_polylog_l2_growth(sweep_q2):
    records, _ = sweep_q2
    med = median_by_n(records, "norm_est")
    growth = med[97] / med[25]
    limit = (log(97) / log(25)) ** 1.5 * 1.5
    assert growth <= limit, f"A8: growth {growth:.4f} exceeds {limit:.4f}"
    calibrated_k = max(v / (2.0 * 3.0 * log(n) ** 1.5) for n, v in med.items())
    assert math.isfinite(calibrated_k)
    print(f"A8 PASS - median l2 estimate growth {growth:.4f} <= {limit:.4f}; "
          f"calibrated K = {calibrated_k:.5f}")


def test_a9_ksz_consistency(sweep_qinf):
    records, _ = sweep_qinf
    for rec in records:
        bound = ksz_polydisk_bound(rec.n, 3, rec.num_blocks)
        assert rec.norm_est <= bound, \
            f"A9: n={rec.n} seed={rec.seed} estimate {rec.norm_est:.2f} > KSZ {bound:.2f}"
    margin = max(r.norm_est / ksz_polydisk_bound(r.n, 3, r.num_blocks) for r in records)
    print(f"A9 PASS - all {len(records)} winners below the KSZ bound "
          f"(max fraction used {margin:.3f})")


def test_a10_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(10):
        n = 3 + case % 2
        system = greedy_construct(n, 3, case)
        p = SteinerPolynomial(system, random_signs(system, derive_seed(10, "a10", case)))
        est = estimate_norm(p, inf, starts=64, seed=case)
        oracle = brute_force_norm(p, inf, 64)
        rel = abs(est.value - oracle.value) / oracle.value
        assert rel <= 0.02, f"A10: case {case} relative gap {rel:.4f}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"A10: took {elapsed:.0f}s"
    print(f"A10 PASS - 10 oracle comparisons within 2% (worst {worst:.2e}) in {elapsed:.0f}s")


def test_a11_design_correctness():
    for n in range(3, 100):
        if n % 6 == 3:
            system = bose_construct(n)
        elif n % 6 == 1 and n >= 7:
            system = skolem_construct(n)
        else:
            continue
        assert system.num_blocks == n * (n - 1) // 6, f"A11: n={n} block count"
        assert is_exact_cover(system), f"A11: n={n} not an exact cover"
    worst = 1.0
    for n in range(20, 61):
        fill = density_report(greedy_construct(n, 3, n))["fill_ratio"]
        assert fill >= 0.5, f"A11: greedy k=3 n={n} fill {fill:.3f}"
        worst = min(worst, fill)
    for n in range(14, 31):
        fill = density_report(greedy_construct(n, 4, n))["fill_ratio"]
        assert fill >= 0.5, f"A11: greedy k=4 n={n} fill {fill:.3f}"
        worst = min(worst, fill)
    print(f"A11 PASS - exact systems for all admissible n <= 99; greedy fill >= 0.5 "
          f"(worst {worst:.3f})")


def test_a12_joint_condition_experiment():
    results = [d32_experiment(n, 0, SWEEP_BUDGETS) for n in (25, 49, 73, 97)]
    quotients = [r.ratio_over_reference for r in results]
    for prev, nxt in zip(quotients, quotients[1:]):
        assert nxt >= 0.8 * prev, f"A12: quotient drops more than 20%: {quotients}"
    for r in results:
        assert r.lincomb_sup <= 1.05 or r.ivp_flagged, \
            f"A12: n={r.n} sup {r.lincomb_sup:.3f} above 1.05 but not flagged"
    flagged = sum(r.ivp_flagged for r in results)
    print(f"A12 PASS - ratio/reference {['%.1f' % q for q in quotients]} "
          f"nondecreasing within 20%; {flagged}/4 runs carry the rescaled-condition flag")


def test_a13_k4_norm_anomaly():
    system = PartialSteinerSystem(6, 4, 3, ((0, 1, 2, 3), (0, 1, 4, 5)))
    p = SteinerPolynomial(system, np.array([1, 1]))
    tup = build_operators(p)
    value = operator_norm(tup.ops[0])
    assert abs(value - math.sqrt(2)) <= 1e-9, f"A13: T_0 norm {value}"
    reports = gram_diagonal_check(tup)
    assert not reports[0].is_diagonal_01 and reports[0].offdiag_count > 0
    normalized, nu = contraction_normalize(tup)
    assert abs(nu - math.sqrt(2)) <= 1e-9
    assert abs(normalized.scale - 2 ** -0.5) <= 1e-12
    rec = ratio_point(4, 10, inf, inf, 0,
                      Budgets(rounds=2, starts=4, iters=200, search_starts=2,
                              search_iters=60))
    assert rec.normalized_flag, "A13: k=4 pipeline record not flagged as normalized"
    print(f"A13 PASS - S_p(3,4,6) gives ||T_0|| = sqrt(2) with non-diagonal Gram; "
          "k=4 pipeline normalizes and flags")
