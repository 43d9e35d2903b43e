import numpy as np
import pytest

from steinervn.designs import PartialSteinerSystem, skolem_construct
from steinervn.errors import DomainError, ValidationError
from steinervn.polynomials import (COMPENSATED_THRESHOLD, Budgets,
                                   SteinerPolynomial, best_of_signs,
                                   evaluate_compensated, evaluate_many,
                                   load_polynomial, random_signs, relabel,
                                   save_polynomial, value_and_partials)
from steinervn.norms import estimate_norm, ksz_polydisk_bound
from steinervn.seeding import derive_seed


def single_block():
    return SteinerPolynomial(PartialSteinerSystem(3, 3, 2, ((0, 1, 2),)), np.array([1]))


def two_blocks(signs=(1, -1)):
    system = PartialSteinerSystem(5, 3, 2, ((0, 1, 2), (0, 3, 4)))
    return SteinerPolynomial(system, np.array(signs))


def random_poly(n, k, seed):
    from steinervn.designs import greedy_construct

    system = greedy_construct(n, k, seed)
    return SteinerPolynomial(system, random_signs(system, seed + 1))


def fd_partials(p, z, h=1e-5):
    """Central complex differences of p along each coordinate axis."""
    out = np.empty(p.n, dtype=complex)
    for j in range(p.n):
        step = np.zeros(p.n, dtype=complex)
        step[j] = h
        out[j] = (evaluate_compensated(p, z + step) - evaluate_compensated(p, z - step)) / (2 * h)
    return out


def test_evaluate_single_monomial():
    p = single_block()
    assert evaluate_compensated(p, [1, 1, 1]) == 1
    assert evaluate_compensated(p, [2j, 1, 1]) == 2j


def test_evaluate_cancellation():
    p = two_blocks()
    assert evaluate_compensated(p, np.ones(5)) == 0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValidationError):
        evaluate_compensated(single_block(), [1, 1])


def test_evaluate_empty_system():
    p = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros(0, dtype=np.int8))
    assert evaluate_compensated(p, np.ones(4)) == 0


def test_partials_hand_value():
    val, partials = value_and_partials(single_block(), np.array([1, 2, 3], dtype=complex))
    assert val == 6
    assert np.array_equal(partials, [6, 3, 2])


def test_partials_zero_point():
    for p in (single_block(), two_blocks(), random_poly(9, 3, 4)):
        val, partials = value_and_partials(p, np.zeros(p.n, dtype=complex))
        assert val == 0
        assert np.all(partials == 0)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    for case in range(100):
        p = random_poly(5 + case % 5, 3 if case % 2 else 4, case)
        z = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
        val, partials = value_and_partials(p, z)
        ref = evaluate_compensated(p, z)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
        fd = fd_partials(p, z)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(partials - fd).max() <= 1e-6 * scale


def test_homogeneity():
    rng = np.random.default_rng(5)
    for case in range(25):
        p = random_poly(8, 3, case)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lam = (rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)) / 2
        lhs = evaluate_compensated(p, lam * z)
        rhs = lam ** p.k * evaluate_compensated(p, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_permutation_equivariance_exact():
    # Gaussian-integer points make every multiplication order exact, so the
    # identity p(z o perm) == relabel(p, perm)(z) holds with no tolerance.
    rng = np.random.default_rng(6)
    for case in range(20):
        p = random_poly(7, 3, case)
        perm = rng.permutation(7)
        z = (rng.integers(-3, 4, size=7) + 1j * rng.integers(-3, 4, size=7)).astype(complex)
        assert evaluate_compensated(p, z[perm]) == evaluate_compensated(relabel(p, perm), z)


def test_triangle_bound():
    rng = np.random.default_rng(7)
    for case in range(25):
        p = random_poly(9, 3, case)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        bound = float(np.sum(np.prod(np.abs(z)[p.system.blocks_array()], axis=1)))
        assert abs(evaluate_compensated(p, z)) <= bound + 1e-12 * max(1.0, bound)


def test_evaluate_many_matches_scalar():
    p = random_poly(8, 3, 3)
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((17, 8)) + 1j * rng.standard_normal((17, 8))
    batch = evaluate_many(p, pts)
    for i in range(17):
        assert abs(batch[i] - evaluate_compensated(p, pts[i])) <= 1e-12


def test_random_signs_deterministic():
    system = skolem_construct(13)
    assert np.array_equal(random_signs(system, 3), random_signs(system, 3))
    assert not np.array_equal(random_signs(system, 3), random_signs(system, 4))


def test_random_signs_empty():
    system = PartialSteinerSystem(4, 3, 2, ())
    assert random_signs(system, 0).size == 0


def test_random_signs_balanced():
    # 10^4 draws over the 1027 blocks of STS(79): per-position mean within 5 sigma
    system = skolem_construct(79)
    total = np.zeros(system.num_blocks, dtype=np.int64)
    for draw in range(10_000):
        total += random_signs(system, derive_seed(99, "draw", draw))
    mean = total / 10_000
    assert float(np.abs(mean).max()) <= 0.05


def test_best_of_signs_rounds_one_degenerate():
    system = skolem_construct(7)
    budgets = Budgets(search_starts=4, search_iters=100, starts=8, iters=500)
    poly, est = best_of_signs(system, np.inf, rounds=1, seed=5, budgets=budgets)
    expected_signs = random_signs(system, derive_seed(5, "round", 0))
    assert np.array_equal(poly.signs, expected_signs)
    direct = estimate_norm(poly, np.inf, starts=8, max_iters=500,
                           seed=derive_seed(5, "final", 0))
    assert est.value == direct.value


def test_best_of_signs_sts7_below_term_count():
    system = skolem_construct(7)
    poly, est = best_of_signs(system, np.inf, rounds=32, seed=0)
    assert est.value <= 7.0 + 1e-9


def test_best_of_signs_sts13_below_ksz():
    system = skolem_construct(13)
    poly, est = best_of_signs(system, np.inf, rounds=32, seed=0)
    assert est.value <= ksz_polydisk_bound(13, 3, 26)


def test_best_of_signs_rejects_zero_rounds():
    with pytest.raises(DomainError):
        best_of_signs(skolem_construct(7), np.inf, rounds=0, seed=0)


def test_polynomial_file_roundtrip(tmp_path):
    p = random_poly(9, 3, 12)
    path = tmp_path / "poly.txt"
    save_polynomial(p, path)
    last = path.read_text().splitlines()[-1]
    assert set(last.split()) <= {"+1", "-1"}
    loaded = load_polynomial(path)
    assert loaded.system == p.system
    assert np.array_equal(loaded.signs, p.signs)


def test_signs_validation():
    system = PartialSteinerSystem(3, 3, 2, ((0, 1, 2),))
    with pytest.raises(ValidationError):
        SteinerPolynomial(system, np.array([2]))
    with pytest.raises(ValidationError):
        SteinerPolynomial(system, np.array([1, -1]))


def test_evaluate_compensated_large_support():
    # STS(247) has 10127 blocks, crossing the compensated-summation threshold
    system = skolem_construct(247)
    assert system.num_blocks > COMPENSATED_THRESHOLD
    p = SteinerPolynomial(system, random_signs(system, 0))
    rng = np.random.default_rng(1)
    z = (rng.standard_normal(247) + 1j * rng.standard_normal(247)) / 16
    direct = complex(np.sum(p.signs * np.prod(z[system.blocks_array()], axis=1)))
    for val in (evaluate_compensated(p, z), value_and_partials(p, z)[0]):
        assert abs(val - direct) <= 1e-9 * max(1.0, abs(direct))
