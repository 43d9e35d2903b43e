import math
from dataclasses import replace
from functools import reduce
from itertools import combinations_with_replacement, permutations
from math import comb, inf

import numpy as np
import pytest
from steinervn import operators
from steinervn.designs import (PartialSteinerSystem, greedy_construct,
                               skolem_construct)
from steinervn.errors import DomainError, ValidationError
from steinervn.norms import estimate_norm
from steinervn.operators import (ColumnMap, OperatorTuple, apply_polynomial,
                                 build_basis, build_operators, check_commuting,
                                 contraction_normalize, gram_diagonal_check,
                                 linear_combination_sup, load_tuple,
                                 multiset_ranks, operator_norm,
                                 polynomial_operator_norm, save_tuple)
from steinervn.polynomials import SteinerPolynomial, random_signs, value_and_partials
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


def to_dense(op):
    """The int64 dim x dim matrix of a column map."""
    dim = len(op.rows)
    mat = np.zeros((dim, dim), dtype=np.int64)
    cols = np.flatnonzero(op.rows >= 0)
    mat[op.rows[cols], cols] = op.vals[cols]
    return mat


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
    e_col = to_dense(t.ops[0])[:, basis.index[("e", ())]]
    expected = np.zeros(t.dim)
    expected[basis.index[("e", (0,))]] = 1
    assert np.array_equal(e_col, expected)
    # T_0 e(1) = f_2 (the only block through {0,1} is {0,1,2})
    col = to_dense(t.ops[0])[:, basis.index[("e", (1,))]]
    nz = np.nonzero(col)[0]
    assert nz.tolist() == [basis.index[("f", 2)]]
    assert col[nz[0]] == 1
    # T_0 g = 0
    assert t.ops[0].rows[basis.g_index()] == -1 and t.ops[0].vals[basis.g_index()] == 0


def test_entries_are_unimodular():
    _, t = sts_tuple(9)
    for op in t.ops:
        assert isinstance(op, ColumnMap)
        assert op.rows.dtype == np.int64 and op.vals.dtype == np.int64
        assert set(np.unique(op.vals[op.rows >= 0])) <= {-1, 1}
        assert not np.any(op.vals[op.rows < 0])


@pytest.mark.parametrize("n, k", [(1, 3), (5, 3), (5, 4), (7, 5), (4, 6), (9, 4)])
def test_multiset_ranks_index_the_basis(n, k):
    basis = build_basis(n, k)
    for m in range(1, k - 1):
        level = [v[1] for v in basis.vectors[basis.offsets[m]:basis.offsets[m + 1]]]
        assert level == list(combinations_with_replacement(range(n), m))
        ranks = multiset_ranks(np.array(level, dtype=np.int64).reshape(-1, m), n)
        assert (basis.offsets[m] + ranks).tolist() == [basis.index[("e", J)] for J in level]


def loop_maps(p):
    """Column maps of p's tuple by one dict lookup per entry, as build_operators
    wrote them before its array form."""
    n, k = p.n, p.k
    basis = build_basis(n, k)
    rows = np.full((n, basis.dim), -1, dtype=np.int64)
    vals = np.zeros((n, basis.dim), dtype=np.int64)
    for l in range(n):
        for m in range(k - 2):
            for idx in combinations_with_replacement(range(n), m):
                col = basis.index[("e", idx)]
                rows[l, col], vals[l, col] = basis.index[("e", tuple(sorted(idx + (l,))))], 1
        rows[l, basis.index[("f", l)]], vals[l, basis.index[("f", l)]] = basis.g_index(), 1
    for block, sign in zip(p.system.blocks, p.signs.tolist()):
        for l, i in permutations(block, 2):
            col = basis.index[("e", tuple(x for x in block if x != l and x != i))]
            rows[l, col], vals[l, col] = basis.index[("f", i)], sign
    return rows, vals


@pytest.mark.parametrize("make", [
    lambda: sts_tuple(7), lambda: sts_tuple(13), lambda: sts_tuple(25),
    lambda: greedy_tuple(26, 4, 0), lambda: greedy_tuple(34, 4, 1), lambda: greedy_tuple(42, 4, 2),
    lambda: greedy_tuple(42, 4, 0), lambda: greedy_tuple(12, 5), lambda: greedy_tuple(10, 6),
    lambda: single_block_tuple(-1), lambda: empty_tuple(1), k4_anomaly_tuple])
def test_build_matches_the_per_entry_loop(make):
    p, t = make()
    rows, vals = loop_maps(p)
    assert np.array_equal(np.stack([op.rows for op in t.ops]), rows)
    assert np.array_equal(np.stack([op.vals for op in t.ops]), vals)


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
    # one value of T_0 flipped in grade 0 (T_0 e), 1 (an e(j)) or 2 (f_0), or T_0 e moved
    # from e(0) to e(1), so that the two products land in different rows; the report
    # names the first failing pair and the commutator's first entry by (row, col)
    _, t = sts_tuple(7)
    mutations = []
    for grade in range(3):
        vals = t.ops[0].vals.copy()
        col = [c for c in range(*t.basis.offsets[grade:grade + 2]) if t.ops[0].rows[c] >= 0][0]
        vals[col] = -vals[col]
        mutations.append(ColumnMap(t.ops[0].rows, vals))
    rows = t.ops[0].rows.copy()
    rows[t.basis.index[("e", ())]] = t.basis.index[("e", (1,))]
    mutations.append(ColumnMap(rows, t.ops[0].vals))
    for op in mutations:
        mutated = OperatorTuple(t.basis, [op] + t.ops[1:], t.polynomial)
        report = check_commuting(mutated)
        assert not report.ok
        dense = [to_dense(op) for op in mutated.ops]
        failing = [(l, m) for l in range(t.n) for m in range(l + 1, t.n)
                   if np.any(dense[l] @ dense[m] - dense[m] @ dense[l])]
        assert report.pair == failing[0]
        l, m = report.pair
        delta = dense[l] @ dense[m] - dense[m] @ dense[l]
        row, c = min(zip(*np.nonzero(delta)))
        assert report.entry == (row, c, delta[row, c])


def test_commuting_raises_when_entries_reach_overflow_guard():
    # each entry of a product of column maps is one product of two entries, so
    # 2^31-sized entries bound it by exactly 2^62, the guard; one less passes
    _, t = sts_tuple(7)
    big = ColumnMap(t.ops[0].rows, t.ops[0].vals * (1 << 31))
    assert big.vals.dtype == np.int64
    huge = OperatorTuple(t.basis, [big, big] + t.ops[2:], t.polynomial)
    with pytest.raises(OverflowError):
        check_commuting(huge)
    with pytest.raises(OverflowError):
        gram_diagonal_check(huge)
    below = ColumnMap(t.ops[0].rows, t.ops[0].vals * ((1 << 31) - 1))
    assert check_commuting(OperatorTuple(t.basis, [big, below] + t.ops[2:], t.polynomial)).ok


def test_monomial_order_independence():
    # commutation makes every application order of a block's operators equal
    rng = np.random.default_rng(3)
    p, t = sts_tuple(7)
    for block, sign in zip(p.system.blocks, p.signs):
        mats = []
        for _ in range(10):
            order = rng.permutation(3)
            m = np.eye(t.dim, dtype=np.int64)
            for j in (block[o] for o in order):
                m = to_dense(t.ops[j]) @ m
            mats.append(m)
        for m in mats[1:]:
            assert np.array_equal(m, mats[0])


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
        row_sq = (to_dense(op) ** 2).sum(axis=1)
        assert row_sq.dtype == np.int64
        assert row_sq.max() == max(1, pair_degree[l].max())
        assert operator_norm(op) == math.sqrt(row_sq.max())


def test_operator_norm_zero():
    z = ColumnMap(np.full(4, -1, dtype=np.int64), np.zeros(4, dtype=np.int64))
    assert operator_norm(z) == 0.0


def test_operator_norm_sanity_envelope():
    _, t = sts_tuple(13)
    for op in t.ops[:4]:
        a = np.abs(to_dense(op))
        col_floor = math.sqrt((a * a).sum(axis=0).max())
        upper = math.sqrt(a.sum(axis=1).max() * a.sum(axis=0).max())
        v = operator_norm(op)
        assert col_floor - 1e-9 <= v <= upper + 1e-9


def test_operator_norm_matches_dense_lapack():
    for p, t in (sts_tuple(7), sts_tuple(9), greedy_tuple(10, 4), greedy_tuple(9, 5)):
        for op in t.ops:
            reference = np.linalg.norm(to_dense(op).astype(float), 2)
            assert abs(operator_norm(op) - reference) <= 1e-12 * max(reference, 1.0)


def test_load_tuple_rejects_two_nonzeros_in_a_column(tmp_path):
    _, t = sts_tuple(7)
    save_tuple(t, tmp_path)
    path = tmp_path / "operators.txt"
    col, row = t.basis.index[("e", ())], t.basis.index[("e", (1,))]
    with open(path, "a") as fh:
        fh.write(f"0 {row} {col} 1\n")  # T_0 e already has e(0)
    where = len(path.read_text().splitlines())
    with pytest.raises(ValidationError, match=rf"operators.txt: line {where}: operator 0 "
                                              rf"has a second nonzero in column {col};"):
        load_tuple(tmp_path)
    with open(path, "a") as fh:  # the second nonzero cancelled: a column map again
        fh.write(f"0 {row} {col} -1\n")
    loaded = load_tuple(tmp_path)
    assert all(np.array_equal(a.rows, b.rows) and np.array_equal(a.vals, b.vals)
               for a, b in zip(loaded.ops, t.ops))


def moved_entry_tuple(tmp_path, col, row):
    """STS(7) tuple read back from an operators.txt in which T_0's entry in column
    ``col`` moved to ``row``."""
    _, t = sts_tuple(7)
    save_tuple(t, tmp_path)
    col, row = t.basis.index[col], t.basis.index[row]
    old_row, value = int(t.ops[0].rows[col]), int(t.ops[0].vals[col])
    with open(tmp_path / "operators.txt", "a") as fh:
        fh.write(f"0 {old_row} {col} {-value}\n0 {row} {col} {value}\n")
    return load_tuple(tmp_path)


def test_polynomial_operator_norm_rejects_an_image_off_the_sink(tmp_path):
    # T_0 f_0 = f_1 instead of g: the blocks through 0 end p(T)e on f_1
    t = moved_entry_tuple(tmp_path, ("f", 0), ("f", 1))
    with pytest.raises(ValidationError, match="p\\(T\\)e has components off the sink g"):
        polynomial_operator_norm(t)


def test_lincomb_rejects_an_entry_that_does_not_raise_the_grade(tmp_path):
    # T_0 e = f_0 instead of e(0): grade 0 to grade 2
    t = moved_entry_tuple(tmp_path, ("e", ()), ("f", 0))
    with pytest.raises(ValidationError, match="does not raise the grade by one"):
        linear_combination_sup(t, 2.0, starts=1, iters=2)


def test_load_tuple_sums_repeated_entries(tmp_path):
    _, t = sts_tuple(7)
    save_tuple(t, tmp_path)
    e, e0, f0 = (t.basis.index[v] for v in (("e", ()), ("e", (0,)), ("f", 0)))
    with open(tmp_path / "operators.txt", "a") as fh:
        fh.write(f"0 {e0} {e} 2\n")  # T_0 e = e(0) becomes 3 e(0)
        fh.write(f"0 {t.basis.g_index()} {f0} -1\n")  # T_0 f_0 = g cancels
    loaded = load_tuple(tmp_path)
    assert (loaded.ops[0].rows[e], loaded.ops[0].vals[e]) == (e0, 3)
    assert (loaded.ops[0].rows[f0], loaded.ops[0].vals[f0]) == (-1, 0)
    assert operator_norm(loaded.ops[0]) == math.sqrt(9)


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
    dense = [scale * to_dense(op).astype(float) for op in t.ops]
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
    # operators no build produces, as load_tuple can give: random column maps that
    # need not raise the grade, with empty columns, and the T_l do not commute, so the
    # order is checked too; walk_entries = 1 walks one block per chunk
    monkeypatch.setattr(operators, "_WALK_ENTRIES", walk_entries)
    system = PartialSteinerSystem(5, 3, 2, ((0, 1, 2), (0, 3, 4)))
    p = SteinerPolynomial(system, np.array([1, -1]))
    basis = build_basis(5, 3)
    rng = np.random.default_rng(3)
    shape = (5, basis.dim)
    rows = np.where(rng.random(shape) < 0.8, rng.integers(0, basis.dim, shape), -1)
    rows[1, 3] = -1
    vals = np.where(rows >= 0, rng.choice([-2, -1, 1, 2], shape), 0)
    t = OperatorTuple(basis, [ColumnMap(r, v) for r, v in zip(rows, vals)], p)
    dense = np.stack([to_dense(op) for op in t.ops])
    assert not np.array_equal(dense[0] @ dense[1], dense[1] @ dense[0])
    assert not np.any(dense[1][:, 3])
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


def middle_block(t, alpha):
    """The dense n x n block A(alpha) of sum_j alpha_j T_j from grade 1 (columns e(l))
    to grade 2 (rows f_i), read off the column maps of a k = 3 tuple."""
    e1 = [t.basis.index[("e", (l,))] for l in range(t.n)]
    f = {t.basis.index[("f", i)]: i for i in range(t.n)}
    a = np.zeros((t.n, t.n), dtype=complex)
    for coeff, op in zip(alpha, t.ops):
        for l, col in enumerate(e1):
            if op.rows[col] in f:
                a[f[op.rows[col]], l] += coeff * op.vals[col]
    return a


def trilinear(p, x, y, z):
    """(L(x, y, z), sum of the moduli of its products): L is p's symmetric trilinear
    form from its blocks, with L(z, z, z) = p(z)."""
    total, size = 0.0, 0.0
    for block, sign in zip(p.system.blocks, p.signs.tolist()):
        for i, j, l in permutations(block):
            total += sign * x[i] * y[j] * z[l] / 6.0
            size += abs(x[i] * y[j] * z[l]) / 6.0
    return total, size


@pytest.mark.parametrize("n", [7, 9, 13])
def test_middle_block_is_six_times_the_trilinear_form(n):
    # u^H A(alpha) v = 6 L(alpha, v, conj(u)) to rounding, and A(w) w = 2 grad p(w), so
    # ||A(w) w|| = 2 ||grad p(w)|| at the witness w of a q = 2 estimate
    p, t = sts_tuple(n, seed=n)
    rng = rng_for(n, "polarization")
    for _ in range(3):
        alpha, u, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
        lhs = np.vdot(u, middle_block(t, alpha) @ v)
        form, size = trilinear(p, alpha, v, np.conj(u))
        assert abs(lhs - 6.0 * form) <= 1e-13 * 6.0 * size
    w = estimate_norm(p, 2.0, starts=4, max_iters=200, seed=n).witness
    (_,), (grad,) = value_and_partials(p, w[None])
    image = middle_block(t, w) @ w
    assert np.allclose(image, 2.0 * grad, rtol=0.0, atol=1e-13 * np.abs(grad).max())
    assert abs(np.linalg.norm(image) - 2.0 * np.linalg.norm(grad)) <= (
        1e-12 * 2.0 * np.linalg.norm(grad))


def dense_lincomb(t, q, starts, iters, seed):
    """The alternation of linear_combination_sup on full dim x dim matrices."""
    qp = q / (q - 1.0)
    dense = [to_dense(op).astype(complex) for op in t.ops]
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
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.vals, b.vals)
    assert np.array_equal(loaded.polynomial.signs, p.signs)


def test_entries_column_sorted(tmp_path):
    _, t = sts_tuple(7)
    save_tuple(t, tmp_path)
    lines = (tmp_path / "operators.txt").read_text().splitlines()[1:]
    entries = [tuple(int(x) for x in ln.split()) for ln in lines]
    for l in range(t.n):
        keys = [(c, r) for op_l, r, c, _ in entries if op_l == l]
        assert keys == sorted(keys)
