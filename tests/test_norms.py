import math
from math import factorial, inf, log

import numpy as np
import pytest

from steinervn.designs import PartialSteinerSystem, greedy_construct, skolem_construct
from steinervn.errors import DomainError
from steinervn.norms import (analytic_bounds, brute_force_norm, estimate_norm,
                             ksz_polydisk_bound, polarization_constant, qnorm,
                             recertify)
from steinervn.polynomials import SteinerPolynomial, random_signs, value_and_partials
from steinervn.seeding import derive_seed


def single_block(k=3):
    system = PartialSteinerSystem(k, k, k - 1, (tuple(range(k)),))
    return SteinerPolynomial(system, np.array([1]))


def seeded_poly(n, k, seed):
    system = greedy_construct(n, k, seed)
    return SteinerPolynomial(system, random_signs(system, derive_seed(seed, "p")))


# ---------------------------------------------------------------------------
# estimate_norm
# ---------------------------------------------------------------------------

def test_single_block_qinf():
    est = estimate_norm(single_block(), inf, starts=8, seed=0)
    assert abs(est.value - 1.0) <= 1e-9


def test_single_block_q1():
    # AM-GM: the l1 budget splits equally, value (1/3)^3
    est = estimate_norm(single_block(), 1.0, starts=8, seed=0)
    assert abs(est.value - 1 / 27) <= 1e-7


def test_single_block_q2():
    est = estimate_norm(single_block(), 2.0, starts=8, seed=0)
    assert abs(est.value - 3 ** -1.5) <= 1e-7


def test_estimate_deterministic():
    p = seeded_poly(9, 3, 1)
    a = estimate_norm(p, 2.0, starts=6, seed=3)
    b = estimate_norm(p, 2.0, starts=6, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def test_estimate_monotone_in_starts():
    p = seeded_poly(10, 3, 2)
    values = [estimate_norm(p, inf, starts=s, seed=5).value for s in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_estimate_witness_invariants():
    for q in (1.0, 2.0, 3.0, inf):
        p = seeded_poly(8, 3, 4)
        est = estimate_norm(p, q, starts=4, seed=1)
        assert qnorm(est.witness, q) <= 1.0 + 1e-12
        assert recertify(p, est)


def test_estimate_rejects_bad_q():
    with pytest.raises(DomainError):
        estimate_norm(single_block(), 0.5, starts=1, seed=0)
    with pytest.raises(DomainError):
        estimate_norm(single_block(), 2.0, starts=0, seed=0)


def test_estimate_empty_polynomial():
    p = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros(0, dtype=np.int8))
    est = estimate_norm(p, 2.0, starts=4, seed=0)
    assert est.value == 0.0
    assert est.method == "trivial"


def test_l1_ceiling_random_polynomials():
    # any Steiner unimodular polynomial obeys the 1/k! ceiling on the l1 ball
    for seed in range(10):
        k = 3 if seed % 2 else 4
        p = seeded_poly(12, k, seed)
        est = estimate_norm(p, 1.0, starts=4, max_iters=400, seed=seed)
        assert est.value <= 1.0 / factorial(k) + 1e-9


def test_matching_polynomials_q2_half():
    # 2-homogeneous matching polynomials stay at or below 1/2 on the l2 ball
    for seed in range(6):
        system = greedy_construct(12 + seed, 2, seed)
        p = SteinerPolynomial(system, random_signs(system, seed))
        est = estimate_norm(p, 2.0, starts=8, seed=seed)
        assert est.value <= 0.5 + 1e-9


def test_sts7_estimate_matches_oracle_within_2pct():
    system = skolem_construct(7)
    p = SteinerPolynomial(system, random_signs(system, 42))
    est = estimate_norm(p, inf, starts=64, seed=0)
    oracle = brute_force_norm(p, inf, 16)
    assert abs(est.value - oracle.value) <= 0.02 * oracle.value


@pytest.mark.xfail(strict=True, reason=(
    "_sphere_ascent steps along 2*conj(p)*dp, the conjugate of the complex packing "
    "2*p*conj(dp) of the gradient of |p|^2, so each start stops a few steps after burn-in"))
def test_finite_q_witness_is_stationary():
    # First-order stationarity of |p|^2 on the unit l2 sphere: the gradient
    # 2 p conj(dp) is parallel to z, and Euler's identity sum_j z_j dp_j = k p
    # fixes the multiplier at k |p|^2.
    for n in (25, 49):
        system = skolem_construct(n)
        for pat in range(3):
            p = SteinerPolynomial(system, random_signs(system, derive_seed(pat, "grid")))
            z = estimate_norm(p, 2.0, starts=8, seed=pat).witness
            val, partials = value_and_partials(p, z)
            lagrange = 2 * p.k * abs(val) ** 2
            residual = 2 * val * np.conj(partials) - lagrange * z
            assert np.linalg.norm(residual) <= 1e-3 * lagrange


# ---------------------------------------------------------------------------
# brute_force_norm
# ---------------------------------------------------------------------------

def test_oracle_single_block_qinf():
    est = brute_force_norm(single_block(), inf, 32)
    assert abs(est.value - 1.0) <= 1e-9


def test_oracle_two_block_alignment():
    # signs (+,-) align at z = (1,1,1,1,-1): both terms contribute +1
    system = PartialSteinerSystem(5, 3, 2, ((0, 1, 2), (0, 3, 4)))
    p = SteinerPolynomial(system, np.array([1, -1]))
    est = brute_force_norm(p, inf, 16)
    assert abs(est.value - 2.0) <= 1e-9


def test_oracle_q1_stays_below_factorial_ceiling():
    for seed in range(3):
        p = seeded_poly(6, 3, seed)
        est = brute_force_norm(p, 1.0, 16)
        assert est.value <= 1.0 / 6 + 1e-9


def test_oracle_single_block_q1_amgm():
    est3 = brute_force_norm(single_block(3), 1.0, 16)
    assert abs(est3.value - (1 / 3) ** 3) <= 1e-6
    est4 = brute_force_norm(single_block(4), 1.0, 16)
    assert abs(est4.value - (1 / 4) ** 4) <= 1e-6


def test_oracle_q_monotonicity():
    # unit balls are nested, so the true sup is monotone in q
    p = seeded_poly(4, 3, 7)
    v1 = brute_force_norm(p, 1.0, 20).value
    v2 = brute_force_norm(p, 2.0, 20).value
    vinf = brute_force_norm(p, inf, 20).value
    assert v1 <= v2 + 1e-6
    assert v2 <= vinf + 1e-6


def test_oracle_rejects_large_n():
    p = seeded_poly(12, 3, 0)
    with pytest.raises(DomainError):
        brute_force_norm(p, inf, 32)
    with pytest.raises(DomainError):
        brute_force_norm(single_block(), inf, 8)


# ---------------------------------------------------------------------------
# analytic formulas
# ---------------------------------------------------------------------------

def test_ksz_value():
    assert abs(ksz_polydisk_bound(10, 3, 12) - 8 * math.sqrt(10 * log(3) * 12)) < 1e-12
    assert abs(ksz_polydisk_bound(10, 3, 12) - 91.854) < 1e-2


def test_ksz_zero_terms():
    assert ksz_polydisk_bound(5, 3, 0) == 0.0


def test_polarization_values():
    assert polarization_constant(3, 2) == 1.0
    assert polarization_constant(2, 3.0) == 2.0  # k^k / k!
    assert abs(polarization_constant(2, inf) - 3 * math.sqrt(3) / 4) <= 1e-12


def test_bounds_q2_reduces_to_ell2_form():
    for k in (2, 3, 4):
        for n in (10, 50):
            b = analytic_bounds(k, 2.0, n)
            assert abs(b.qnorm_upper - b.ell2_upper) <= 1e-12 * b.ell2_upper


def test_bounds_q1_ceiling():
    b = analytic_bounds(3, 1.0, 20)
    assert b.l1_upper == 1.0 / 6


def test_bounds_qinf_growth_exponent():
    # k=3: the polydisk bound grows like n^{3/2}
    b1 = analytic_bounds(3, inf, 100)
    b2 = analytic_bounds(3, inf, 200)
    exponent = log(b2.qnorm_upper / b1.qnorm_upper) / log(2.0)
    assert abs(exponent - 1.5) <= 1e-12


def test_bounds_domain_errors():
    with pytest.raises(DomainError):
        analytic_bounds(3, 0.5, 10)
    with pytest.raises(DomainError):
        analytic_bounds(1, 2.0, 10)
    with pytest.raises(DomainError):
        analytic_bounds(3, 2.0, 10, K=0.0)
    with pytest.raises(DomainError):
        analytic_bounds(3, 2.0, 10, M=1.0)


def test_bounds_all_finite_nonnegative():
    for k in (2, 3, 5):
        for q in (1.0, 1.5, 2.0, 4.0, inf):
            b = analytic_bounds(k, q, 30)
            for value in (b.ksz_infty, b.qnorm_upper, b.l1_upper, b.ell2_upper,
                          b.polarization):
                assert math.isfinite(value) and value >= 0
