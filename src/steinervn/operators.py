"""Commuting operator tuples realizing a Steiner polynomial on a graded basis.

The Hilbert space has an orthonormal basis organized as a shift tower:
a source vector e = e(), intermediate vectors e(j_1,...,j_m) indexed by
nondecreasing multisets of size m <= k-2, one vector f_i per variable, and a
sink g.  The operator T_l shifts e-levels up by appending l, maps the top
e-level into the f-layer along the blocks (written in one pass over the
blocks, whose packing property designs.verify checks once; unsorted,
duplicate or overlapping blocks raise ValidationError), maps f_l to g, and
kills g.  All matrices are exact integer sparse matrices; structural checks
(commutation, Gram products, the evaluation identity) are carried out in
integer arithmetic with no rounding.

For triple systems (k = 3) each T_l has exactly one nonzero per column and
no two columns share a row, which certifies the operator norm 1 through the
Gram matrix.  For k >= 4 two blocks may share a (k-2)-set, producing Gram
off-diagonals and operator norms above 1; callers that need contractions
must normalize (see contraction_normalize).

The grade of a basis vector is m for e-levels of size m, k-1 for the f-layer
and k for g; HilbertBasis.offsets holds where each grade starts.  Every T_l
raises the grade by exactly one and has at most one nonzero per column, so
||T_l|| is its largest row norm and p(T) = |S| g e^T in closed form.
||sum_j alpha_j T_j|| is the largest norm of its per-grade blocks, each
iterated by warm-started power steps whose value ||M* u|| at a unit u is a
lower bound.  A tuple owns the polynomial it realizes: the p(T) routines read
t.polynomial, and load_tuple checks polynomial.txt against the header.
"""

import math
import os
from dataclasses import dataclass, replace
from itertools import accumulate, combinations_with_replacement, permutations
from math import comb, inf

import numpy as np
from scipy import sparse

from .designs import line_ints, numbered_lines, verify
from .errors import DomainError, ValidationError
from .polynomials import (Budgets, SteinerPolynomial, load_polynomial,
                          save_polynomial)
from .seeding import rng_for

# Entry-magnitude budget before a product could overflow int64; checked_matmul
# raises OverflowError for any product whose bound reaches it.
_OVERFLOW_GUARD = 1 << 62

# Cap on the power steps linear_combination_sup spends on one block per
# alternation step; warm-started blocks settle in far fewer.
_POWER_STEPS = 1000


@dataclass
class HilbertBasis:
    """Canonical enumeration: e, e-levels by (size, lex), f_0..f_{n-1}, g.

    Grade g runs over indices offsets[g] to offsets[g+1] - 1: grade m < k-1 is
    the e-level of size m, grade k-1 the f-layer, grade k the sink g, and
    offsets[k+1] is dim.
    """

    n: int
    k: int
    vectors: list
    index: dict
    offsets: tuple

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def e_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.index[("e", ())]] = 1
        return v

    def g_index(self) -> int:
        return self.index[("g",)]


def build_basis(n: int, k: int) -> HilbertBasis:
    """Basis for the degree-k construction over n variables.

    Dimension is sum_{m=0}^{k-2} C(n+m-1, m) + n + 1, which is 2n+2 for k=3.
    Degenerate n < k is allowed (useful only with an empty block set).
    """
    if k < 3:
        raise DomainError(f"operator construction is defined for k >= 3, got k={k}")
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    vectors = [("e", idx) for m in range(k - 1)
               for idx in combinations_with_replacement(range(n), m)]
    vectors += [("f", i) for i in range(n)] + [("g",)]
    offsets = tuple(accumulate([comb(n + m - 1, m) for m in range(k - 1)] + [n, 1], initial=0))
    assert len(vectors) == offsets[-1]
    return HilbertBasis(n, k, vectors, {v: i for i, v in enumerate(vectors)}, offsets)


def _from_triples(dim, flat) -> sparse.csc_array:
    """int64 dim x dim matrix from a flat list row, col, value, row, ...; duplicates add."""
    rows, cols, vals = np.array(flat, dtype=np.int64).reshape(-1, 3).T
    mat = sparse.csc_array((vals, (rows, cols)), shape=(dim, dim))
    mat.sum_duplicates()
    return mat


@dataclass
class OperatorTuple:
    """n int64 sparse operators sharing one basis, plus a lazily applied scale.

    polynomial is the one the tuple realizes, read by every p(T) routine.  The
    scale multiplies each operator at evaluation time only: structure checks
    always run on the raw integer matrices.
    """

    basis: HilbertBasis
    ops: list
    polynomial: SteinerPolynomial
    scale: float = 1.0

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def dim(self) -> int:
        return self.basis.dim

    def with_scale(self, scale: float) -> "OperatorTuple":
        return replace(self, scale=float(scale))


def build_operators(p: SteinerPolynomial) -> OperatorTuple:
    """Operator tuple whose joint action encodes the polynomial's blocks.

    For each l:  T_l e(J) = e(sorted(J + l)) while |J| < k-2;  T_l f_i =
    delta_{li} g;  T_l g = 0.  The top e-level is written in one pass over the
    blocks: for a block B with sign s and each ordered pair l != i in B,
    T_l e(B - {l, i}) = s f_i.  Entries are all +-1.  The blocks are checked
    once, by designs.verify: an unsorted, duplicate or out-of-range block, or
    two blocks sharing a (k-1)-set, raises ValidationError, so every top
    e(J) of every T_l has at most one image.
    """
    system = p.system
    if system.t != system.k - 1:
        raise ValidationError(f"need t = k-1, got t={system.t}, k={system.k}")
    ok, clash = verify(system)
    if not ok:
        raise ValidationError(f"blocks {clash.first_block} and {clash.second_block} "
                              f"share the (k-1)-set {clash.t_subset}")
    basis = build_basis(system.n, system.k)
    n, k = system.n, system.k

    flat = [[] for _ in range(n)]  # per l: row, col, value, row, ...
    for l in range(n):
        for m in range(k - 2):
            for idx in combinations_with_replacement(range(n), m):
                flat[l] += (basis.index[("e", tuple(sorted(idx + (l,))))],
                            basis.index[("e", idx)], 1)
        flat[l] += (basis.g_index(), basis.index[("f", l)], 1)
    for block, sign in zip(system.blocks, p.signs.tolist()):
        for l, i in permutations(block, 2):
            rest = tuple(x for x in block if x != l and x != i)
            flat[l] += (basis.index[("f", i)], basis.index[("e", rest)], sign)
    return OperatorTuple(basis, [_from_triples(basis.dim, entries) for entries in flat], p)


# ---------------------------------------------------------------------------
# Exact integer products
# ---------------------------------------------------------------------------

def _product_bound(a: sparse.sparray, b: sparse.sparray) -> int:
    if a.nnz == 0 or b.nnz == 0:
        return 0
    max_a = int(np.abs(a.data).max())
    max_b = int(np.abs(b.data).max())
    terms = int(np.diff(a.tocsr().indptr).max())
    return max_a * max_b * terms


def checked_matmul(a, b):
    """Exact sparse integer product; verifies int64 cannot overflow."""
    if _product_bound(a, b) >= _OVERFLOW_GUARD:
        raise OverflowError(
            "integer sparse product could exceed 64-bit range; "
            "entries are larger than this construction ever produces"
        )
    return a @ b


@dataclass
class CommutationReport:
    ok: bool
    pair: tuple | None = None
    entry: tuple | None = None  # (row, col, difference) of first failure


def check_commuting(t: OperatorTuple) -> CommutationReport:
    """Exact check of T_l T_m = T_m T_l for all l < m."""
    for l in range(t.n):
        for m in range(l + 1, t.n):
            delta = checked_matmul(t.ops[l], t.ops[m]) - checked_matmul(t.ops[m], t.ops[l])
            if delta.nnz:
                coo = delta.tocoo()
                order = np.lexsort((coo.col, coo.row))
                j = order[0]
                return CommutationReport(
                    False, (l, m), (int(coo.row[j]), int(coo.col[j]), int(coo.data[j]))
                )
    return CommutationReport(True)


@dataclass
class GramReport:
    is_diagonal_01: bool
    max_column_norm: int  # squared Euclidean column norm, exact integer
    offdiag_count: int


def gram_diagonal_check(t: OperatorTuple) -> list:
    """Exact Gram matrix T_l* T_l per operator.

    A diagonal Gram with entries in {0, 1} (and at least one 1) certifies
    operator norm exactly 1.
    """
    reports = []
    for op in t.ops:
        gram = checked_matmul(op.T, op).tocoo()
        off = int(np.count_nonzero(gram.row != gram.col))
        diag = gram.data[gram.row == gram.col]
        is01 = off == 0 and (diag.size == 0 or bool(np.all((diag == 0) | (diag == 1))))
        max_col = int(diag.max()) if diag.size else 0
        reports.append(GramReport(is01, max_col, off))
    return reports


# ---------------------------------------------------------------------------
# Exact grade-structure norms
# ---------------------------------------------------------------------------

def operator_norm(a: sparse.csc_array) -> float:
    """Spectral norm of an operator with at most one nonzero per column.

    Every T_l maps each basis vector to a multiple of a single basis vector,
    so A A^T is diagonal and ||A|| is exactly the largest Euclidean row norm.
    The column property is checked in integers; a matrix that breaks it (only
    a hand-edited operator file can) raises ValidationError.
    """
    mat = a.tocsc(copy=True)
    mat.eliminate_zeros()
    per_col = np.diff(mat.indptr)
    if per_col.max(initial=0) > 1:
        col = int(np.argmax(per_col))
        raise ValidationError(
            f"column {col} has {per_col[col]} nonzeros; the tuple's operators "
            "have at most one per column"
        )
    row_sq = np.bincount(mat.indices, weights=mat.data.astype(np.float64) ** 2,
                         minlength=a.shape[0])
    return math.sqrt(row_sq.max(initial=0.0))


def apply_polynomial(t: OperatorTuple, vector) -> np.ndarray:
    """p(T) v = scale^k sum_B sign(B) T_{b_1} ... T_{b_k} v for the tuple's own p.

    Works in the vector's dtype promoted with int64: an integer vector gives
    the exact integer image when scale == 1, and a complex vector stays
    complex.  The result is multiplied by scale^k only when scale != 1.
    """
    vector = np.asarray(vector)
    if vector.shape != (t.dim,):
        raise ValidationError(f"vector has shape {vector.shape}, expected ({t.dim},)")
    vector = vector.astype(np.result_type(vector, np.int64), copy=False)
    acc = np.zeros_like(vector)
    for block, sign in zip(t.polynomial.system.blocks, t.polynomial.signs.tolist()):
        w = vector
        for j in block:
            w = t.ops[j] @ w
        acc += sign * w
    if t.scale != 1.0:
        acc = acc * t.scale ** t.k
    return acc


def sink_image(t: OperatorTuple) -> tuple:
    """(c, graded) for p(T)e of the unscaled tuple, in exact integers.

    c is the coefficient of p(T)e on the sink g, and graded says whether
    p(T)e vanishes off g.
    """
    image = apply_polynomial(t.with_scale(1.0), t.basis.e_vector())
    g = t.basis.g_index()
    return int(image[g]), not np.any(np.delete(image, g))


def polynomial_operator_norm(t: OperatorTuple) -> float:
    """Spectral norm of p(T_1,...,T_n) for the tuple's own p, including scale^k.

    Grades run from 0 (the source e) to k (the sink g) and every T_l raises
    the grade by one, so the degree-k polynomial kills every basis vector but
    e and p(T) = c g e^T with c = (p(T)e)_g, which is |S| (criterion A3).
    The norm is |c| scale^k, with c taken from the exact integer image of e.
    """
    coefficient, graded = sink_image(t)
    if not graded:
        raise ValidationError("p(T)e has components off the sink g; the tuple is not graded")
    return abs(coefficient) * t.scale ** t.k


def contraction_normalize(t: OperatorTuple):
    """Rescale so every operator has norm at most 1.

    Returns (tuple, max_norm).  k = 3 tuples over verified systems have norm
    exactly 1 and come back unchanged; genuine k >= 4 anomalies sit at
    sqrt(2) or higher and are rescaled.
    """
    nu = max(operator_norm(op) for op in t.ops)
    if nu <= 1.0:
        return t, nu
    return t.with_scale(t.scale / nu), nu


def linear_combination_sup(t: OperatorTuple, q, starts: int = Budgets.lincomb_starts,
                           iters: int = Budgets.lincomb_iters, seed: int = 0) -> float:
    """Estimated sup of ||sum_j alpha_j T_j|| over ||alpha||_{q'} = 1.

    M(alpha) = sum_j alpha_j T_j raises the grade by one, so M* M is block
    diagonal and ||M(alpha)|| is the largest norm among the dense blocks that
    map grade m to grade m+1 (for k = 3: max(||alpha||_2, ||A(alpha)||) with
    A(alpha) the n x n middle block).  Alternating maximization: for fixed
    alpha every block gets a unit pair (u, v), and the block with the largest
    sigma = ||M_m* u|| wins; for fixed (u, v) the optimal alpha aligns with
    s_j = <u, T_j v> by Hoelder equality.  Every block takes power steps
    u <- M v / ||M v||, v <- M* u / ||M* u||, warm-started from its v of the
    previous alternation step (first from the conjugate of its largest row),
    until sigma stops rising in floating point or _POWER_STEPS steps are
    spent; a block with one row or one column (for k = 3 the two outer
    blocks, of norm ||alpha||_2) settles in two or three.  The reported value
    is the largest sigma seen; each is ||M(alpha)* u|| for an explicit unit u,
    so it is a lower bound of ||M(alpha)|| and of the sup (up to rounding)
    without any LAPACK call.  Deterministic per seed; the tuple's scale
    multiplies the result.
    """
    if not (1 < q < inf):
        raise DomainError(f"need 1 < q < inf, got q={q}")
    qp = q / (q - 1.0)
    bounds = np.array(t.basis.offsets)
    coos = [op.tocoo() for op in t.ops]
    rows = np.concatenate([c.row for c in coos])
    cols = np.concatenate([c.col for c in coos])
    data = np.concatenate([c.data for c in coos]).astype(np.float64)
    opidx = np.concatenate([np.full(c.nnz, j) for j, c in enumerate(coos)])
    col_grade = np.searchsorted(bounds, cols, side="right") - 1
    if np.any(np.searchsorted(bounds, rows, side="right") - 1 != col_grade + 1):
        raise ValidationError("an operator entry does not raise the grade by one")
    blocks = []  # per grade m: (shape, flat index, local rows, local cols, data, operator index)
    for m in range(t.k):
        sel = col_grade == m
        shape = (bounds[m + 2] - bounds[m + 1], bounds[m + 1] - bounds[m])
        r, c = rows[sel] - bounds[m + 1], cols[sel] - bounds[m]
        blocks.append((shape, r * shape[1] + c, r, c, data[sel], opidx[sel]))

    def top_pair(mat, v):
        """(sigma, u, v) with unit u, v and sigma = ||mat* u||, from warm start v or None."""
        if v is None:  # start from the conjugate of the largest row
            v = np.conj(mat[np.argmax(np.linalg.norm(mat, axis=1))])
        adjoint = mat.conj().T
        sigma = -1.0
        for _ in range(_POWER_STEPS):
            u = mat @ v
            scale = np.linalg.norm(u)
            if scale == 0.0:  # a zero block, or a warm start in the kernel
                return 0.0, np.eye(mat.shape[0], 1).ravel(), np.eye(mat.shape[1], 1).ravel()
            u = u / scale
            v = adjoint @ u
            previous, sigma = sigma, float(np.linalg.norm(v))
            v = v / sigma
            if sigma <= previous:  # sigma rises monotonically until rounding stalls it
                break
        return sigma, u, v

    def top_triple(alpha, warm):
        best_triple = None
        for m, (shape, flat, r, c, d, j) in enumerate(blocks):
            w = d * alpha[j]
            size = shape[0] * shape[1]
            mat = (np.bincount(flat, w.real, size)
                   + 1j * np.bincount(flat, w.imag, size)).reshape(shape)
            sigma, u, warm[m] = top_pair(mat, warm[m])
            if best_triple is None or sigma > best_triple[0]:
                best_triple = (sigma, u, warm[m], (r, c, d, j))
        return best_triple

    def hoelder_align(s):
        mods = np.abs(s)
        w = np.conj(s) * np.maximum(mods, 1e-300) ** (q - 2.0)
        w[mods == 0.0] = 0.0
        denom = float(np.sum(np.abs(w) ** qp)) ** (1.0 / qp)
        return w / denom

    best = 0.0
    for s_idx in range(starts):
        rng = rng_for(seed, "lincomb", s_idx)
        alpha = rng.standard_normal(t.n) + 1j * rng.standard_normal(t.n)
        denom = float(np.sum(np.abs(alpha) ** qp)) ** (1.0 / qp)
        alpha = alpha / denom
        sigma_prev = -1.0
        warm = [None] * len(blocks)
        for _ in range(iters):
            sigma, u, v, (r, c, d, j) = top_triple(alpha, warm)
            best = max(best, float(sigma))
            terms = np.conj(u[r]) * d * v[c]
            svec = (np.bincount(j, weights=terms.real, minlength=t.n)
                    + 1j * np.bincount(j, weights=terms.imag, minlength=t.n))
            alpha = hoelder_align(svec)
            if abs(sigma - sigma_prev) <= 1e-11 * max(sigma, 1.0):
                break
            sigma_prev = sigma
    return best * t.scale


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_tuple(t: OperatorTuple, directory):
    """Write operators.txt and polynomial.txt under ``directory``.

    Header line: ``dim n k scale_num scale_den_exponent`` with
    scale = scale_num * n^(-scale_den_exponent).  Entry lines: l row col value,
    each operator's entries sorted by column then row.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "operators.txt"), "w", encoding="ascii") as fh:
        fh.write(f"{t.dim} {t.n} {t.k} {t.scale!r} 0.0\n")
        for l, op in enumerate(t.ops):
            coo = op.tocoo()
            for col, row, value in sorted(zip(coo.col.tolist(), coo.row.tolist(),
                                              coo.data.tolist())):
                fh.write(f"{l} {row} {col} {value}\n")
    save_polynomial(t.polynomial, os.path.join(directory, "polynomial.txt"))


def load_tuple(directory) -> OperatorTuple:
    poly = load_polynomial(os.path.join(directory, "polynomial.txt"))
    path = os.path.join(directory, "operators.txt")
    lines = numbered_lines(path)
    if not lines:
        raise ValidationError(f"{path}: empty operator file")
    try:
        head = lines[0][1]
        dim, n, k = int(head[0]), int(head[1]), int(head[2])
        scale = float(head[3]) * n ** (-float(head[4]))
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"{path}: line {lines[0][0]}: bad header") from exc
    if (poly.n, poly.k) != (n, k):
        raise ValidationError(f"{path}: header has n={n}, k={k} but polynomial.txt has "
                              f"n={poly.n}, k={poly.k}")
    basis = build_basis(n, k)
    if basis.dim != dim:
        raise ValidationError(f"{path}: header dim {dim} != basis dim {basis.dim}")
    flat = [[] for _ in range(n)]
    for num, tokens in lines[1:]:
        l, row, col, value = line_ints(path, num, tokens, 4, "four integers 'l row col value'")
        if not 0 <= l < n:
            raise ValidationError(f"{path}: line {num}: operator index {l} outside [0, {n})")
        if not (0 <= row < dim and 0 <= col < dim):
            raise ValidationError(f"{path}: line {num}: entry ({row}, {col}) outside "
                                  f"[0, {dim}) x [0, {dim})")
        flat[l] += (row, col, value)
    return OperatorTuple(basis, [_from_triples(dim, entries) for entries in flat],
                         poly, scale)
