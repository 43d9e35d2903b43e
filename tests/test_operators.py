import math
from dataclasses import replace
from functools import reduce
from itertools import permutations
from math import comb, inf

import numpy as np
import pytest
from scipy import sparse

from steinervn import operators
from steinervn.designs import (PartialSteinerSystem, greedy_construct,
                               skolem_construct)
from steinervn.errors import DomainError, ValidationError
from steinervn.norms import estimate_norm
from steinervn.operators import (OperatorTuple, apply_polynomial, build_basis,
                                 build_operators, check_commuting,
                                 contraction_normalize, gram_diagonal_check,
                                 linear_combination_sup, load_tuple,
                                 operator_norm, polynomial_operator_norm,
                                 save_tuple)
from steinervn.polynomials import SteinerPolynomial, random_signs
from steinervn.seeding import rng_for


def single_block_tuple(sign=1):
    system = PartialSteinerSystem(3, 3, 2, ((0, 1, 2),))
    p = SteinerPolynomial(system, np.array([sign]))
    return p, build_operators(p)


def sts_tuple(n, seed=42):
    from steinervn.designs import bose_construct

    system = bose_construct(n) if n % 6 == 3 else skolem_construct(n)
    p = SteinerPolynomial(system, random_signs(system, seed))
    return p, build_operators(p)


def greedy_tuple(n, k, seed=42):
    system = greedy_construct(n, k, seed)
    p = SteinerPolynomial(system, random_signs(system, seed))
    return p, build_operators(p)


def k4_anomaly_tuple():
    system = PartialSteinerSystem(6, 4, 3, ((0, 1, 2, 3), (0, 1, 4, 5)))
    p = SteinerPolynomial(system, np.array([1, 1]))
    return p, build_operators(p)


def empty_tuple(n=3):
    system = PartialSteinerSystem(n, 3, 2, ())
    p = SteinerPolynomial(system, np.zeros(0, dtype=np.int8))
    return p, build_operators(p)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_dimensions():
    assert build_basis(7, 3).dim == 16  # 2n+2
    assert build_basis(5, 4).dim == 27  # 1+5+15+5+1
    assert build_basis(3, 3).dim == 8


def test_basis_dimension_formula():
    for n, k in [(4, 3), (6, 4), (5, 5), (9, 3)]:
        basis = build_basis(n, k)
        assert basis.dim == sum(comb(n + m - 1, m) for m in range(k - 1)) + n + 1


def test_basis_order():
    basis = build_basis(3, 3)
    assert basis.vectors[0] == ("e", ())
    assert basis.vectors[1:4] == [("e", (0,)), ("e", (1,)), ("e", (2,))]
    assert basis.vectors[-1] == ("g",)


def test_basis_offsets_bound_the_grades():
    basis = build_basis(5, 4)
    assert basis.offsets == (0, 1, 6, 21, 26, 27)  # e, 5 e(j), 15 e(j, j'), 5 f, g
    for grade in range(basis.k + 1):
        for v in basis.vectors[basis.offsets[grade]:basis.offsets[grade + 1]]:
            assert (len(v[1]) if v[0] == "e" else {"f": basis.k - 1, "g": basis.k}[v[0]]) == grade


def test_basis_rejects_small_k():
    with pytest.raises(DomainError):
        build_basis(5, 2)


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------

def test_single_block_actions():
    p, t = single_block_tuple()
    basis = t.basis
    # T_0 e = e(0)
    e_col = t.ops[0][:, [basis.index[("e", ())]]].toarray().ravel()
    expected = np.zeros(t.dim)
    expected[basis.index[("e", (0,))]] = 1
    assert np.array_equal(e_col, expected)
    # T_0 e(1) = f_2 (the only block through {0,1} is {0,1,2})
    col = t.ops[0][:, [basis.index[("e", (1,))]]].toarray().ravel()
    nz = np.nonzero(col)[0]
    assert nz.tolist() == [basis.index[("f", 2)]]
    assert col[nz[0]] == 1
    # T_0 g = 0
    g_col = t.ops[0][:, [basis.g_index()]]
    assert g_col.nnz == 0


def test_entries_are_unimodular():
    _, t = sts_tuple(9)
    for op in t.ops:
        assert isinstance(op, sparse.csc_array) and op.dtype == np.int64
        assert set(np.unique(op.data)) <= {-1, 1}


def test_misaligned_system_rejected():
    bad = PartialSteinerSystem(4, 3, 2, ((0, 1, 2), (0, 1, 3)))
    p = SteinerPolynomial(bad, np.array([1, 1]))
    with pytest.raises(ValidationError, match="share"):
        build_operators(p)


@pytest.mark.parametrize("blocks, message", [
    (((0, 1, 2), (3, 1, 0)), r"block 1 is not strictly increasing"),
    (((0, 1, 2), (0, 1, 2)), r"^blocks 0 and 1 share the \(k-1\)-set \(\d, \d\)$"),
])
def test_unsorted_or_duplicate_blocks_rejected(blocks, message):
    p = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, blocks), np.array([1, 1]))
    with pytest.raises(ValidationError, match=message):
        build_operators(p)


def test_commuting_sts7_all_pairs():
    _, t = sts_tuple(7)
    assert check_commuting(t).ok


def test_commuting_single_block():
    _, t = single_block_tuple()
    assert check_commuting(t).ok


def test_commuting_detects_mutation():
    _, t = sts_tuple(7)
    broken = t.ops[0].tolil()
    rows, cols = broken.nonzero()
    broken[rows[0], cols[0]] = -broken[rows[0], cols[0]]
    mutated = OperatorTuple(t.basis, [broken.tocsc()]
                            + t.ops[1:], t.polynomial)
    report = check_commuting(mutated)
    assert not report.ok
    assert report.pair is not None and report.pair[0] == 0
    assert report.entry is not None


def test_commuting_raises_when_entries_reach_overflow_guard():
    # T_0 has one nonzero per row, so 2^31-sized entries bound each product
    # entry by exactly 2^62, the guard
    _, t = sts_tuple(7)
    big = t.ops[0] * (1 << 31)
    assert big.dtype == np.int64
    huge = OperatorTuple(t.basis, [big, big] + t.ops[2:], t.polynomial)
    with pytest.raises(OverflowError):
        check_commuting(huge)


def test_monomial_order_independence():
    # commutation makes every application order of a block's operators equal
    rng = np.random.default_rng(3)
    p, t = sts_tuple(7)
    for block, sign in zip(p.system.blocks, p.signs):
        mats = []
        for _ in range(10):
            order = rng.permutation(3)
            m = sparse.identity(t.dim, dtype=np.int64, format="csc")
            for j in (block[o] for o in order):
                m = t.ops[j] @ m
            mats.append(m)
        for m in mats[1:]:
            assert (m - mats[0]).nnz == 0


# ---------------------------------------------------------------------------
# Gram certification and norms
# ---------------------------------------------------------------------------

def test_gram_diagonal_k3():
    _, t = sts_tuple(9)
    for report in gram_diagonal_check(t):
        assert report.is_diagonal_01
        assert report.offdiag_count == 0
        assert report.max_column_norm == 1


def test_gram_offdiagonal_k4():
    _, t = k4_anomaly_tuple()
    reports = gram_diagonal_check(t)
    assert not reports[0].is_diagonal_01
    assert reports[0].offdiag_count > 0


def test_gram_empty_system():
    _, t = empty_tuple()
    for report in gram_diagonal_check(t):
        assert report.is_diagonal_01


def test_operator_norm_k3_is_one():
    _, t = sts_tuple(7)
    for op in t.ops:
        assert abs(operator_norm(op) - 1.0) <= 1e-9


def test_operator_norm_k4_sqrt2():
    _, t = k4_anomaly_tuple()
    assert abs(operator_norm(t.ops[0]) - math.sqrt(2)) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("n", range(10, 43, 4))
def test_k4_operator_norm_squared_is_the_largest_pair_degree(n, seed):
    # the f_i row of T_l holds one +-1 per block through {l, i}; every other row one entry
    p, t = greedy_tuple(n, 4, seed)
    pair_degree = np.zeros((n, n), dtype=np.int64)
    for block in p.system.blocks:
        for l, i in permutations(block, 2):
            pair_degree[l, i] += 1
    for l, op in enumerate(t.ops):
        row_sq = op.multiply(op).sum(axis=1)
        assert row_sq.dtype == np.int64
        assert row_sq.max() == max(1, pair_degree[l].max())
        assert operator_norm(op) == math.sqrt(row_sq.max())


def test_operator_norm_zero():
    z = sparse.csc_array((4, 4), dtype=np.int64)
    assert operator_norm(z) == 0.0


def test_operator_norm_sanity_envelope():
    _, t = sts_tuple(13)
    for op in t.ops[:4]:
        a = np.abs(op).toarray()
        col_floor = math.sqrt((a * a).sum(axis=0).max())
        upper = math.sqrt(a.sum(axis=1).max() * a.sum(axis=0).max())
        v = operator_norm(op)
        assert col_floor - 1e-9 <= v <= upper + 1e-9


def test_operator_norm_matches_dense_lapack():
    for p, t in (sts_tuple(7), sts_tuple(9), greedy_tuple(10, 4), greedy_tuple(9, 5)):
        for op in t.ops:
            reference = np.linalg.norm(op.toarray().astype(float), 2)
            assert abs(operator_norm(op) - reference) <= 1e-12 * max(reference, 1.0)


def test_operator_norm_rejects_two_nonzeros_in_a_column():
    _, t = sts_tuple(7)
    edited = t.ops[0].tolil()
    col = t.basis.index[("e", ())]
    edited[t.basis.index[("e", (1,))], col] = 1  # T_0 e already has e(0)
    with pytest.raises(ValidationError, match="column"):
        operator_norm(edited.tocsc())


def test_contraction_normalize():
    _, t = k4_anomaly_tuple()
    normalized, nu = contraction_normalize(t)
    assert abs(nu - math.sqrt(2)) <= 1e-9
    assert abs(normalized.scale - 1 / math.sqrt(2)) <= 1e-12
    _, t3 = sts_tuple(7)
    same, nu3 = contraction_normalize(t3)
    assert same.scale == 1.0 and abs(nu3 - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# polynomial evaluation at the tuple
# ---------------------------------------------------------------------------

def test_apply_polynomial_e_to_blocks_times_g():
    for n in (7, 13):
        p, t = sts_tuple(n)
        image = apply_polynomial(t, t.basis.e_vector())
        g = t.basis.g_index()
        assert image.dtype == np.int64
        assert image[g] == p.num_terms
        assert not np.any(np.delete(image, g))


def test_apply_polynomial_kills_g():
    _, t = sts_tuple(7)
    v = np.zeros(t.dim, dtype=np.int64)
    v[t.basis.g_index()] = 1
    assert not np.any(apply_polynomial(t, v))


def dense_polynomial(p, t, scale):
    """scale^k sum_B s_B T_{b_1} ... T_{b_k} as a dense float matrix."""
    dense = [scale * op.toarray().astype(float) for op in t.ops]
    return sum(float(sign) * reduce(np.matmul, [dense[j] for j in block])
               for block, sign in zip(p.system.blocks, p.signs))


def test_apply_polynomial_scale():
    p, t = single_block_tuple()
    scaled = t.with_scale(0.5)
    image = apply_polynomial(scaled, t.basis.e_vector().astype(float))
    assert abs(image[t.basis.g_index()] - 0.5 ** 3) <= 1e-15
    # integer, float and complex vectors against the dense product, at scale 0.7
    rng = np.random.default_rng(5)
    for p, t in (sts_tuple(7), greedy_tuple(10, 4)):
        reference = dense_polynomial(p, t, 0.7)
        scaled = t.with_scale(0.7)
        for v in (rng.integers(-9, 10, t.dim), rng.standard_normal(t.dim),
                  rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)):
            image = apply_polynomial(scaled, v)
            assert image.dtype == np.result_type(v, np.float64)
            expected = reference @ v
            assert np.allclose(image, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            if np.issubdtype(v.dtype, np.integer):  # unscaled, the integer image is exact
                assert np.array_equal(apply_polynomial(t, v),
                                      np.rint(dense_polynomial(p, t, 1.0) @ v).astype(np.int64))


@pytest.mark.parametrize("walk_entries", [1 << 16, 1])
def test_apply_polynomial_walks_general_matrices(monkeypatch, walk_entries):
    # operators no build produces, as load_tuple can give: T_0 has two nonzeros in
    # column 3 and T_1 none, and the T_l do not commute, so the order is checked too;
    # walk_entries = 1 walks one block per chunk
    monkeypatch.setattr(operators, "_WALK_ENTRIES", walk_entries)
    system = PartialSteinerSystem(5, 3, 2, ((0, 1, 2), (0, 3, 4)))
    p = SteinerPolynomial(system, np.array([1, -1]))
    basis = build_basis(5, 3)
    rng = np.random.default_rng(3)
    shape = (5, basis.dim, basis.dim)
    dense = rng.integers(-2, 3, shape) * (rng.random(shape) < 0.4)
    dense[0, :, 3] = 0
    dense[0, [2, 7], 3] = (1, -2)
    dense[1, :, 3] = 0
    assert not np.array_equal(dense[0] @ dense[1], dense[1] @ dense[0])
    t = OperatorTuple(basis, [sparse.csc_array(d) for d in dense], p)
    assert np.diff(t.ops[0].indptr)[3] == 2 and np.diff(t.ops[1].indptr)[3] == 0
    exact = sum(sign * dense[a] @ dense[b] @ dense[c]
                for (a, b, c), sign in zip(system.blocks, (1, -1)))
    reference = dense_polynomial(p, t, 1.0)
    empty = SteinerPolynomial(PartialSteinerSystem(5, 3, 2, ()), np.zeros(0, dtype=np.int8))
    for v in (rng.integers(-9, 10, basis.dim), rng.standard_normal(basis.dim),
              rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)):
        image = apply_polynomial(t, v)
        assert image.dtype == v.dtype
        if v.dtype == np.int64:
            assert np.array_equal(image, exact @ v)
        else:
            expected = reference @ v
            assert np.allclose(image, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        zero = apply_polynomial(replace(t, polynomial=empty), v)
        assert zero.dtype == v.dtype and not np.any(zero)


def test_polynomial_operator_norm_values():
    _, t7 = sts_tuple(7)
    assert abs(polynomial_operator_norm(t7) - 7.0) <= 1e-6
    _, t1 = single_block_tuple()
    assert polynomial_operator_norm(t1) >= 1.0 - 1e-12


def test_polynomial_operator_norm_floor_under_scaling():
    _, t = sts_tuple(7)
    scaled = t.with_scale(7 ** -0.5)
    value = polynomial_operator_norm(scaled)
    assert abs(value - 7 ** -0.5) <= 1e-6  # 7 * 7^{-3/2}


def test_polynomial_operator_norm_matches_dense_product():
    for (p, t), scale in ((sts_tuple(7), 0.7), (greedy_tuple(10, 4), 1.3)):
        reference = np.linalg.norm(dense_polynomial(p, t, scale), 2)
        value = polynomial_operator_norm(t.with_scale(scale))
        assert abs(value - reference) <= 1e-12 * reference


def test_scaling_cubes_the_norm():
    _, t = sts_tuple(7)
    v1 = polynomial_operator_norm(t.with_scale(0.5))
    v2 = polynomial_operator_norm(t.with_scale(0.25))
    assert abs(v2 / v1 - 0.125) <= 1e-9


# ---------------------------------------------------------------------------
# linear combination sup
# ---------------------------------------------------------------------------

def test_lincomb_degenerate_single_shift():
    # n=1, empty block set: T_0 norm 1, so the sup is exactly 1
    system = PartialSteinerSystem(1, 3, 2, ())
    p = SteinerPolynomial(system, np.zeros(0, dtype=np.int8))
    t = build_operators(p)
    sup = linear_combination_sup(t, 2.0, starts=2, iters=10, seed=0)
    assert abs(sup - 1.0) <= 1e-9


def test_lincomb_zero_middle_block():
    # no blocks: the n x n middle block is zero and the outer blocks give ||alpha||_2
    _, t = empty_tuple(4)
    for q in (2.0, 3.0):
        with np.errstate(divide="raise", invalid="raise"):
            sup = linear_combination_sup(t, q, starts=2, iters=10, seed=0)
        assert abs(sup - 1.0) <= 1e-9


def test_lincomb_unscaled_at_least_one():
    _, t = sts_tuple(7)
    sup = linear_combination_sup(t, 2.0, starts=4, iters=30, seed=0)
    assert sup >= 1.0 - 1e-9


def test_lincomb_scale_invariance():
    _, t = sts_tuple(7)
    sup = linear_combination_sup(t, 2.0, starts=4, iters=30, seed=0)
    rescaled = t.with_scale(t.scale / sup)
    again = linear_combination_sup(rescaled, 2.0, starts=4, iters=30, seed=0)
    assert abs(again - 1.0) <= 1e-6


def test_lincomb_matches_polarization_identity():
    # independent cross-check: sup_alpha ||sum alpha_j T_j|| = max(1, 6 ||p||_2)
    # for triple-system tuples, since the middle channel realizes the full
    # symmetric trilinear form of p and lambda(3,2) = 1
    p, t = sts_tuple(7)
    sup = linear_combination_sup(t, 2.0, starts=8, iters=60, seed=1)
    norm2 = estimate_norm(p, 2.0, starts=64, seed=2).value
    assert abs(sup - max(1.0, 6.0 * norm2)) <= 0.02 * sup


def dense_lincomb(t, q, starts, iters, seed):
    """The alternation of linear_combination_sup on full dim x dim matrices."""
    qp = q / (q - 1.0)
    dense = [op.toarray().astype(complex) for op in t.ops]
    best = 0.0
    for s_idx in range(starts):
        rng = rng_for(seed, "lincomb", s_idx)
        alpha = rng.standard_normal(t.n) + 1j * rng.standard_normal(t.n)
        alpha = alpha / np.sum(np.abs(alpha) ** qp) ** (1.0 / qp)
        sigma_prev = -1.0
        for _ in range(iters):
            u, s, vh = np.linalg.svd(sum(a * d for a, d in zip(alpha, dense)))
            sigma = s[0]
            best = max(best, sigma)
            svec = np.array([np.vdot(u[:, 0], d @ vh[0].conj()) for d in dense])
            w = np.conj(svec) * np.abs(svec) ** (q - 2.0)
            alpha = w / np.sum(np.abs(w) ** qp) ** (1.0 / qp)
            if abs(sigma - sigma_prev) <= 1e-11 * max(sigma, 1.0):
                break
            sigma_prev = sigma
    return best * t.scale


def test_lincomb_matches_dense_alternation():
    for n in (7, 9):
        _, t = sts_tuple(n)
        t = t.with_scale(0.8)
        for q in (2.0, 3.0):
            value = linear_combination_sup(t, q, starts=4, iters=30, seed=5)
            reference = dense_lincomb(t, q, starts=4, iters=30, seed=5)
            assert abs(value - reference) <= 1e-9 * reference


def test_lincomb_power_steps_match_dense_alternation_on_packings():
    # (n, 4) packings have several blocks that are neither rows nor columns,
    # so the top pair comes from power steps and the blocks compete for the top
    for n in (8, 10, 12):
        _, t = greedy_tuple(n, 4)
        t = t.with_scale(0.8)
        for q in (2.0, 3.0):
            value = linear_combination_sup(t, q, starts=4, iters=30, seed=5)
            reference = dense_lincomb(t, q, starts=4, iters=30, seed=5)
            assert abs(value - reference) <= 1e-7 * reference


def test_lincomb_rejects_endpoints():
    _, t = sts_tuple(7)
    for q in (1.0, inf):
        with pytest.raises(DomainError):
            linear_combination_sup(t, q)


def test_lincomb_deterministic():
    _, t = sts_tuple(7)
    a = linear_combination_sup(t, 2.0, starts=3, iters=20, seed=9)
    b = linear_combination_sup(t, 2.0, starts=3, iters=20, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tuple_roundtrip(tmp_path):
    p, t = sts_tuple(7)
    t = t.with_scale(7 ** -0.5)
    save_tuple(t, tmp_path / "op")
    loaded = load_tuple(tmp_path / "op")
    assert loaded.dim == t.dim and loaded.scale == t.scale
    for a, b in zip(loaded.ops, t.ops):
        assert (a - b).nnz == 0
    assert np.array_equal(loaded.polynomial.signs, p.signs)


def test_entries_column_sorted(tmp_path):
    _, t = sts_tuple(7)
    save_tuple(t, tmp_path)
    lines = (tmp_path / "operators.txt").read_text().splitlines()[1:]
    entries = [tuple(int(x) for x in ln.split()) for ln in lines]
    for l in range(t.n):
        keys = [(c, r) for op_l, r, c, _ in entries if op_l == l]
        assert keys == sorted(keys)
