import numpy as np
import pytest

from steinervn.designs import PartialSteinerSystem, skolem_construct
from steinervn.errors import DomainError, ValidationError
from steinervn.polynomials import (COMPENSATED_THRESHOLD, TILE_MONOMIALS, Budgets,
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


def single_point_kernel(p, z):
    """The former one-point kernel: (m, k+1) prefix and suffix products, one bincount per slot."""
    blocks = p.system.blocks_array()
    zb = z[blocks]
    m, k = zb.shape
    prefix = np.ones((m, k + 1), dtype=complex)
    suffix = np.ones((m, k + 1), dtype=complex)
    for i in range(k):
        prefix[:, i + 1] = prefix[:, i] * zb[:, i]
        suffix[:, k - 1 - i] = suffix[:, k - i] * zb[:, k - 1 - i]
    partials = np.zeros(p.n, dtype=complex)
    for pos in range(k):
        w = p.signs * (prefix[:, pos] * suffix[:, pos + 1])
        partials += np.bincount(blocks[:, pos], weights=w.real, minlength=p.n)
        partials += 1j * np.bincount(blocks[:, pos], weights=w.imag, minlength=p.n)
    return complex((p.signs * prefix[:, k]).sum()), partials


def term_scale(p, points):
    """Sum of the term moduli at each row: the scale of the rounding in a row's sum."""
    return np.prod(np.abs(points)[:, p.system.blocks_array()], axis=2).sum(axis=1)


def tiled_batches():
    """(polynomial, points) with N * m above one tile: k = 3, k = 4, and the fsum path."""
    rng = np.random.default_rng(12)
    sts25, sts247 = skolem_construct(25), skolem_construct(247)
    for p, rows in ((SteinerPolynomial(sts25, random_signs(sts25, 2)), 400),
                    (random_poly(26, 4, 5), 100),
                    (SteinerPolynomial(sts247, random_signs(sts247, 0)), 3)):
        assert rows * p.num_terms > TILE_MONOMIALS
        yield p, (rng.standard_normal((rows, p.n)) + 1j * rng.standard_normal((rows, p.n))) / 2


def test_value_and_partials_batch_matches_rows():
    for p, pts in tiled_batches():
        vals, partials = value_and_partials(p, pts)
        assert vals.shape == (len(pts),) and partials.shape == pts.shape
        scale = term_scale(p, pts)
        for i, z in enumerate(pts):
            val, part = value_and_partials(p, z)
            assert np.array_equal(part, partials[i])
            assert abs(vals[i] - val) <= 1e-15 * scale[i]


def test_evaluate_many_batch_matches_rows():
    for p, pts in tiled_batches():
        batch = evaluate_many(p, pts)
        scale = term_scale(p, pts)
        for i in range(len(pts)):
            assert abs(batch[i] - evaluate_many(p, pts[i:i + 1])[0]) <= 1e-15 * scale[i]


def test_value_and_partials_single_point_unchanged():
    rng = np.random.default_rng(13)
    for p in (single_block(), two_blocks(), random_poly(9, 3, 4), random_poly(10, 4, 2)):
        z = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
        val, partials = value_and_partials(p, z)
        assert isinstance(val, complex) and partials.shape == (p.n,)
        ref_val, ref_partials = single_point_kernel(p, z)
        scale = term_scale(p, z[None, :])[0]
        assert abs(val - ref_val) <= 1e-15 * scale
        assert np.abs(partials - ref_partials).max() <= 1e-15 * scale


def test_kernel_shapes_empty_and_invalid():
    empty = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros(0, dtype=np.int8))
    val, partials = value_and_partials(empty, np.ones(4))
    assert val == 0 and isinstance(val, complex) and np.array_equal(partials, np.zeros(4))
    vals, partials = value_and_partials(empty, np.ones((5, 4)))
    assert np.array_equal(vals, np.zeros(5)) and np.array_equal(partials, np.zeros((5, 4)))
    assert np.array_equal(evaluate_many(empty, np.ones((5, 4))), np.zeros(5))
    vals, partials = value_and_partials(two_blocks(), np.zeros((0, 5)))
    assert vals.shape == (0,) and partials.shape == (0, 5)
    assert evaluate_many(two_blocks(), np.zeros((0, 5))).shape == (0,)
    for bad in (np.ones(4), np.ones((2, 4)), np.ones((2, 3, 5))):
        with pytest.raises(ValidationError):
            value_and_partials(two_blocks(), bad)
    with pytest.raises(ValidationError):
        evaluate_many(two_blocks(), np.ones(5))


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
