import math
import tracemalloc

import numpy as np
import pytest

from steinervn import norms
from steinervn.designs import PartialSteinerSystem, greedy_construct, skolem_construct
from steinervn.errors import DomainError, ValidationError
from steinervn.operators import build_operators
from steinervn.polynomials import (SEARCH_TOL, TILE_MONOMIALS, Budgets, SteinerPolynomial,
                                   best_of_signs, block_terms, evaluate_compensated,
                                   evaluate_many, load_polynomial, random_signs, relabel,
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
    val, partials = value_and_partials(single_block(), np.array([[1, 2, 3]], dtype=complex))
    assert np.array_equal(val, [6])
    assert np.array_equal(partials, [[6, 3, 2]])


def test_partials_zero_point():
    for p in (single_block(), two_blocks(), random_poly(9, 3, 4)):
        val, partials = value_and_partials(p, np.zeros((1, p.n), dtype=complex))
        assert np.all(val == 0)
        assert np.all(partials == 0)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    for case in range(100):
        p = random_poly(5 + case % 5, 3 if case % 2 else 4, case)
        z = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
        (val,), (partials,) = value_and_partials(p, z[None])
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
    """(polynomial, points) with N * m above one tile: k = 3, k = 4, and a 10127-term support."""
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
        for i in range(len(pts)):
            (val,), (part,) = value_and_partials(p, pts[i:i + 1])
            assert np.array_equal(part, partials[i])
            assert abs(vals[i] - val) <= 1e-15 * scale[i]


def test_evaluate_many_batch_matches_rows():
    for p, pts in tiled_batches():
        batch = evaluate_many(p, pts)
        scale = term_scale(p, pts)
        for i in range(len(pts)):
            assert abs(batch[i] - evaluate_many(p, pts[i:i + 1])[0]) <= 1e-15 * scale[i]


def test_evaluate_many_row_bits_do_not_depend_on_the_batch():
    # a tile holds 163 rows of STS(25), so a 164-row batch would end in a lone row
    sts25 = skolem_construct(25)
    p = SteinerPolynomial(sts25, random_signs(sts25, 2))
    pts = np.exp(1j * np.random.default_rng(14).uniform(0.0, 2.0 * np.pi, (164, 25)))
    batch = evaluate_many(p, pts)
    for lo in (1, 100, 162):
        assert np.array_equal(evaluate_many(p, pts[lo:]), batch[lo:])


def test_evaluate_many_one_row_call_gives_the_bits_of_the_row_in_a_batch():
    # BLAS sums a (1, m) matvec in another order, so a lone row is summed as a row of two
    sts25 = skolem_construct(25)
    p = SteinerPolynomial(sts25, random_signs(sts25, 3))
    pts = np.exp(1j * np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, (40, 25)))
    batch = evaluate_many(p, pts)
    for i in range(len(pts)):
        assert evaluate_many(p, pts[i:i + 1])[0] == batch[i], i


@pytest.mark.parametrize("k", [3, 4])
def test_one_block_kernels_give_a_one_row_call_the_bits_of_the_row_in_a_batch(k):
    # numpy rounds a product of one element otherwise than inside a longer array,
    # so on one block a one-row call computes its monomial as a row of two
    p = SteinerPolynomial(PartialSteinerSystem(k, k, k - 1, (tuple(range(k)),)), np.array([-1]))
    pts = np.exp(1j * np.random.default_rng(18).uniform(0.0, 2.0 * np.pi, (200, k)))
    values, terms = evaluate_many(p, pts), block_terms(p, pts)
    vals, partials = value_and_partials(p, pts)
    for i in range(len(pts)):
        assert evaluate_many(p, pts[i:i + 1])[0] == values[i], i
        assert np.array_equal(block_terms(p, pts[i:i + 1])[0], terms[i]), i
        (val,), (part,) = value_and_partials(p, pts[i:i + 1])
        assert val == vals[i] and np.array_equal(part, partials[i]), i


def test_kernel_plan_built_on_first_use_and_cached():
    sts7 = skolem_construct(7)
    p = SteinerPolynomial(sts7, random_signs(sts7, 1))
    assert p._plan is None
    value_and_partials(p, np.ones((5, 7)))
    plan = p.kernel_plan()
    assert p._plan is plan and plan.bins(5).shape == (3, 5, 2 * p.num_terms)
    value_and_partials(p, np.ones((3, 7)))
    assert p.kernel_plan() is plan and np.shares_memory(plan.bins(3), plan.bins(5))


def test_value_and_partials_single_point_unchanged():
    # a one-row batch against the former one-point kernel
    rng = np.random.default_rng(13)
    for p in (single_block(), two_blocks(), random_poly(9, 3, 4), random_poly(10, 4, 2)):
        z = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
        (val,), (partials,) = value_and_partials(p, z[None])
        ref_val, ref_partials = single_point_kernel(p, z)
        scale = term_scale(p, z[None, :])[0]
        assert abs(val - ref_val) <= 1e-15 * scale
        assert np.abs(partials - ref_partials).max() <= 1e-15 * scale


def test_kernel_shapes_empty_and_invalid():
    empty = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros(0, dtype=np.int8))
    vals, partials = value_and_partials(empty, np.ones((5, 4)))
    assert np.array_equal(vals, np.zeros(5)) and np.array_equal(partials, np.zeros((5, 4)))
    assert np.array_equal(evaluate_many(empty, np.ones((5, 4))), np.zeros(5))
    vals, partials = value_and_partials(two_blocks(), np.zeros((0, 5)))
    assert vals.shape == (0,) and partials.shape == (0, 5)
    assert evaluate_many(two_blocks(), np.zeros((0, 5))).shape == (0,)
    for bad in (np.ones(5), np.ones(4), np.ones((2, 4)), np.ones((2, 3, 5))):
        with pytest.raises(ValidationError):
            value_and_partials(two_blocks(), bad)
    with pytest.raises(ValidationError):
        evaluate_many(two_blocks(), np.ones(5))


def sign_family(system, rows, seed=0):
    return SteinerPolynomial(system, np.stack([random_signs(system, seed + r) for r in range(rows)]))


def family_batches():
    """(family, points, sign row of each point): long and lone runs, a run cut by a
    tile boundary, a sign row with one point, k = 2 and 4, and one-row tiles."""
    rng = np.random.default_rng(15)
    sts25, sts247 = skolem_construct(25), skolem_construct(247)

    def points(rows, n):
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (rows, n)))

    yield sign_family(sts25, 3), points(400, 25), np.arange(400) % 3  # every run lone
    yield sign_family(sts25, 2), points(164, 25), np.repeat([0, 1], [162, 2])  # cut at 163
    yield sign_family(sts25, 3), points(40, 25), np.repeat([0, 1, 2], [20, 1, 19])
    yield sign_family(greedy_construct(14, 4, 1), 4), points(90, 14), np.sort(rng.integers(0, 4, 90))
    yield sign_family(greedy_construct(12, 2, 0), 2), points(30, 12), rng.integers(0, 2, 30)
    yield sign_family(sts247, 2), points(4, 247), np.array([0, 1, 1, 0])  # m > TILE / 2


def test_family_kernels_give_each_point_the_bits_of_its_sign_row_alone():
    for fam, pts, rows in family_batches():
        values = evaluate_many(fam, pts, rows)
        vals, partials = value_and_partials(fam, pts, rows)
        for r in range(len(fam.signs)):
            idx = np.flatnonzero(rows == r)
            alone = SteinerPolynomial(fam.system, fam.signs[r])
            assert np.array_equal(values[idx], evaluate_many(alone, pts[idx])), r
            alone_vals, alone_partials = value_and_partials(alone, pts[idx])
            assert np.array_equal(vals[idx], alone_vals)
            assert np.array_equal(partials[idx], alone_partials)


def test_family_compensated_evaluation_is_row_by_row():
    fam = sign_family(skolem_construct(13), 4)
    pts = np.exp(1j * np.random.default_rng(16).uniform(0.0, 2.0 * np.pi, (4, 13)))
    values = evaluate_compensated(fam, pts)
    assert values.shape == (4,)
    for r in range(4):
        assert values[r] == evaluate_compensated(SteinerPolynomial(fam.system, fam.signs[r]), pts[r])
    for bad in (pts[0], pts[:3]):
        with pytest.raises(ValidationError):
            evaluate_compensated(fam, bad)


def test_family_kernels_reject_bad_sign_rows():
    fam, pts = sign_family(skolem_construct(7), 3), np.ones((4, 7))
    for bad in (None, [0, 1, 2], [[0, 1, 2, 0]], [0, 1, 3, 0], [0, -1, 1, 0], [0.0, 1.0, 2.0, 0.0]):
        for kernel in (evaluate_many, value_and_partials):
            with pytest.raises(ValidationError):
                kernel(fam, pts, bad)


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


def round_loop(system, q, seed, budgets):
    """best_of_signs as one search estimate per round: the loop the families replaced."""
    best_round, best_poly, best_value = None, None, math.inf
    for r in range(budgets.rounds):
        poly = SteinerPolynomial(system, random_signs(system, derive_seed(seed, "round", r)))
        est = estimate_norm(poly, q, starts=budgets.search_starts,
                            max_iters=budgets.search_iters, tol=SEARCH_TOL,
                            seed=derive_seed(seed, "search", r))
        if est.value < best_value:
            best_round, best_poly, best_value = r, poly, est.value
    return best_poly, estimate_norm(best_poly, q, starts=budgets.starts, max_iters=budgets.iters,
                                    tol=budgets.tol, seed=derive_seed(seed, "final", best_round))


@pytest.mark.parametrize("n, q", [(25, np.inf), (49, 2.0)])
@pytest.mark.parametrize("seed", range(4))
def test_best_of_signs_matches_the_round_loop(n, q, seed):
    system, budgets = skolem_construct(n), Budgets()
    poly, est = best_of_signs(system, q, budgets.rounds, seed, budgets)
    ref_poly, ref = round_loop(system, q, seed, budgets)
    assert np.array_equal(poly.signs, ref_poly.signs)
    assert (est.value.hex(), est.iterations) == (ref.value.hex(), ref.iterations)
    assert est.witness.tobytes() == ref.witness.tobytes()


def test_best_of_signs_scores_in_families_of_the_final_batch_size(monkeypatch):
    calls = []
    estimate = norms.estimate_norm

    def record(p, q, **kw):
        calls.append((p.signs.shape, kw["starts"]))
        return estimate(p, q, **kw)

    monkeypatch.setattr(norms, "estimate_norm", record)
    system = skolem_construct(13)
    best_of_signs(system, np.inf, 32, 0)
    assert calls == [((16, 26), 4), ((16, 26), 4), ((26,), 64)]
    calls.clear()
    best_of_signs(system, np.inf, 5, 0, Budgets(starts=8, search_starts=3, iters=50))
    assert calls == [((2, 26), 3), ((2, 26), 3), ((1, 26), 3), ((26,), 8)]


def test_search_tier_memory_peak_is_at_most_the_final_tiers(monkeypatch):
    # q = 2 at n = 97, default budgets: two 64-row families, then the 64-start final
    peaks = []
    estimate = norms.estimate_norm

    def traced(p, q, **kw):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        est = estimate(p, q, **kw)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return est

    monkeypatch.setattr(norms, "estimate_norm", traced)
    system = skolem_construct(97)
    tracemalloc.start()
    try:
        best_of_signs(system, 2.0, Budgets.rounds, 0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3 and max(peaks[:2]) <= peaks[2], peaks


def test_families_are_checked_and_refused_where_one_polynomial_is_needed(tmp_path):
    system = skolem_construct(7)
    fam = SteinerPolynomial(system, np.stack([random_signs(system, s) for s in range(3)]))
    assert fam.is_family and fam.num_terms == 7
    for bad in (np.ones((0, 7)), np.ones((2, 6)), np.ones((1, 2, 7)), np.full((2, 7), 2)):
        with pytest.raises(ValidationError):
            SteinerPolynomial(system, bad)
    for refuse in (build_operators, lambda p: save_polynomial(p, tmp_path / "poly.txt"),
                   lambda p: relabel(p, range(7))):
        with pytest.raises(ValidationError, match="family of 3 sign rows"):
            refuse(fam)
    assert not (tmp_path / "poly.txt").exists()


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
    # STS(247) has 10127 blocks
    system = skolem_construct(247)
    p = SteinerPolynomial(system, random_signs(system, 0))
    rng = np.random.default_rng(1)
    z = (rng.standard_normal(247) + 1j * rng.standard_normal(247)) / 16
    direct = complex(np.sum(p.signs * np.prod(z[system.blocks_array()], axis=1)))
    for val in (evaluate_compensated(p, z), value_and_partials(p, z[None])[0][0]):
        assert abs(val - direct) <= 1e-9 * max(1.0, abs(direct))
