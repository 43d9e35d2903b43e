"""Steiner unimodular polynomials: evaluation, partial derivatives, block sums, sign sampling.

A Steiner unimodular polynomial is a k-homogeneous polynomial
p(z) = sum_J c_J * z_J whose support J runs over the blocks of a partial
Steiner system with t = k-1 and whose coefficients c_J are +-1.  Every
monomial is a product of k distinct variables, so these polynomials are
tetrahedral by construction.  The search for flat sign patterns, which
needs the norm estimator, is norms.best_of_signs; this module imports
nothing from norms.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import (PartialSteinerSystem, line_ints, numbered_lines, parse_system,
                      save_system)
from .errors import ValidationError
from .seeding import rng_for

# Most monomials one kernel pass holds: batched rows are processed in tiles
# of this many monomials (a k-th of it in value_and_partials, which keeps k
# times the temporaries) so the (rows, m) temporaries stay in cache.
TILE_MONOMIALS = 1 << 14


@dataclass
class SteinerPolynomial:
    """Support blocks (canonical lexicographic order) plus one sign per block.

    Signs of shape (R, m) make a family: R polynomials on one support, sign
    row r being polynomial r.  The kernels take one sign row per point row,
    and estimate_norm, recertify and evaluate_compensated work row by row;
    building operators, saving and relabelling need one polynomial.
    """

    system: PartialSteinerSystem
    signs: np.ndarray

    _plan: "_KernelPlan" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)
        m = self.system.num_blocks
        if self.signs.shape != (m,) and not (self.signs.ndim == 2 and len(self.signs)
                                             and self.signs.shape[1] == m):
            raise ValidationError(
                f"sign array has shape {self.signs.shape}, expected ({m},) or (R, {m}), R >= 1")
        if self.signs.size and not np.all(np.abs(self.signs) == 1):
            raise ValidationError("signs must all be +1 or -1")

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def k(self) -> int:
        return self.system.k

    @property
    def num_terms(self) -> int:
        return self.system.num_blocks

    @property
    def is_family(self) -> bool:
        return self.signs.ndim == 2

    def require_single(self, action: str):
        """Raise ValidationError when this is a family, which ``action`` cannot take."""
        if self.is_family:
            raise ValidationError(f"{action} needs one polynomial, got a family of "
                                  f"{len(self.signs)} sign rows")

    def kernel_plan(self) -> "_KernelPlan":
        """The index and sign arrays the batched kernels reuse; built on first use, cached."""
        if self._plan is None:
            self._plan = _KernelPlan(self.system.blocks_array(), self.signs, self.n)
        return self._plan


class _KernelPlan:
    """Per-polynomial arrays of evaluate_many and value_and_partials.

    ``cols[i]`` is block column i as a contiguous index array and ``signs`` a
    view of the polynomial's int8 (R, m) sign rows (R = 1 for one polynomial).
    ``bins(rows)[pos]`` scatters the contributions of block position pos in
    a tile of ``rows`` points onto the float64 view of the (rows, n)
    partials: weight (r, 2 i + part), the real (part 0) or imaginary (part 1)
    half of monomial i's term, goes to bin 2 (r n + blocks[i, pos]) + part.
    The bins are built for the largest tile seen and sliced for smaller
    ones; neither they nor the columns depend on the signs, nor do the
    gather tables of ``incidence()``, over which point_sums and pair_sums
    add block weights for the torus Hessian.
    """

    def __init__(self, blocks: np.ndarray, signs: np.ndarray, n: int):
        self.cols = [np.ascontiguousarray(blocks[:, i]) for i in range(blocks.shape[1])]
        self.signs = np.atleast_2d(signs)
        self._n = n
        self._bins = np.empty((blocks.shape[1], 0, 2 * len(blocks)), dtype=np.int64)
        self._incidence = None

    def incidence(self) -> tuple:
        """(points, pairs) gather tables over the m blocks and one zero column after
        them: points (r, n) lists the blocks through each point and pairs (s, n, n)
        those through each ordered pair j != l, each in ascending block order and
        padded with m; pairs[:, j, j] is all m."""
        if self._incidence is None:
            blocks = np.stack(self.cols, axis=1)  # (m, k)
            m, k = blocks.shape
            first, second = np.nonzero(~np.eye(k, dtype=bool))  # positions of each j != l
            cells = self._n * blocks[:, first] + blocks[:, second]
            self._incidence = (_gather_table(blocks, self._n, m),
                               _gather_table(cells, self._n ** 2, m).reshape(-1, self._n, self._n))
        return self._incidence

    def point_sums(self, weights: np.ndarray) -> np.ndarray:
        """M^T w for each row w of the (N, m) block weights, M the block-point
        incidence: (N, n) sums over the blocks through each point."""
        return self._sums(weights, self.incidence()[0])[0]

    def pair_sums(self, weights: np.ndarray) -> np.ndarray:
        """M^T diag(w) M for each row w of the (N, m) block weights: (N, n, n) sums
        over the blocks through each pair j != l, and through j on the diagonal."""
        points, pairs = self.incidence()
        sums, diag = self._sums(weights, pairs, points)
        sums[:, np.arange(self._n), np.arange(self._n)] = diag
        return sums

    @staticmethod
    def _sums(weights, *tables) -> list:
        """Per gather table, the sums of the (N, m) block weights over its block lists,
        shape (N,) + table.shape[1:], from one padded copy of the weights.  Each
        gathered array is summed over its leading slot axis, which numpy adds in
        order, so each sum runs in ascending block order, one block after another
        from the first; a one-slot table is its gather."""
        padded = np.zeros((weights.shape[1] + 1, len(weights)), dtype=weights.dtype)
        padded[:-1] = weights.T  # row m is the zero that the padding index reads
        gathers = (np.take(padded, table, axis=0) for table in tables)
        return [np.moveaxis(g[0] if len(g) == 1 else g.sum(axis=0), -1, 0) for g in gathers]

    def bins(self, rows: int) -> np.ndarray:
        if rows > self._bins.shape[1]:
            parts = 2 * np.stack(self.cols)[:, :, None] + np.arange(2)  # (k, m, 2)
            rowbase = 2 * self._n * np.arange(rows)[:, None]
            self._bins = rowbase + parts.reshape(len(self.cols), 1, -1)  # (k, rows, 2m)
        return self._bins[:, :rows]

    def tile_signs(self, sign_rows, rows: slice) -> np.ndarray:
        """The signs of a tile's points: (1, m) for one sign row, else (rows, m)."""
        if len(self.signs) == 1:
            return self.signs
        return np.take(self.signs, sign_rows[rows], axis=0)


def _gather_table(keys: np.ndarray, size: int, pad: int) -> np.ndarray:
    """(slots, size) table whose column x lists the rows i of ``keys`` (m, c) that
    hold x, ascending, padded with ``pad``."""
    order = np.argsort(keys.ravel(), kind="stable")  # row-major, so rows ascend per key
    counts = np.bincount(keys.ravel(), minlength=size)
    starts = np.cumsum(counts) - counts
    table = np.full((counts.max(initial=0), size), pad, dtype=np.int64)
    key = keys.ravel()[order]
    table[np.arange(len(order)) - starts[key], key] = order // keys.shape[1]
    return table


def _as_points(p: SteinerPolynomial, z, ndim: int) -> np.ndarray:
    """z as one complex point of p (ndim 1) or as an (N, n) batch of them (ndim 2)."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != ndim or z.shape[-1] != p.n:
        expected = f"({p.n},)" if ndim == 1 else f"(N, {p.n})"
        raise ValidationError(f"points array has shape {z.shape}, expected {expected}")
    return z


def _sign_rows(p: SteinerPolynomial, sign_rows, num: int) -> np.ndarray:
    """The sign row of each of ``num`` point rows as an index array; None, for one
    polynomial, gives all zeros."""
    count = len(p.signs) if p.is_family else 1
    if sign_rows is None:
        if count > 1:
            raise ValidationError(f"a family of {count} sign rows needs one sign row per point")
        return np.zeros(num, dtype=np.intp)
    sign_rows = np.asarray(sign_rows)
    if sign_rows.shape != (num,) or sign_rows.dtype.kind not in "iu":
        raise ValidationError(f"sign_rows has shape {sign_rows.shape} and dtype "
                              f"{sign_rows.dtype}, expected ({num},) integers")
    if num and (sign_rows.min() < 0 or sign_rows.max() >= count):
        raise ValidationError(f"sign_rows outside [0, {count})")
    return sign_rows


def row_tiles(num_rows: int, width: int):
    """Row slices of about TILE_MONOMIALS / width rows each (at least one row)."""
    step = max(1, TILE_MONOMIALS // width)
    return [slice(lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step)]


def _sign_runs(plan: _KernelPlan, sign_rows, rows: slice):
    """(run, sign row) for each run of equal sign rows in a tile; a run is a
    slice of the tile's rows, and a plan of one sign row has one per tile."""
    tile = sign_rows[rows]
    breaks = (np.flatnonzero(tile[1:] != tile[:-1]) + 1).tolist() if len(plan.signs) > 1 else []
    return [(slice(lo, hi), tile[lo]) for lo, hi in zip([0] + breaks, breaks + [len(tile)])]


def _monomials(points: np.ndarray, cols) -> np.ndarray:
    """Products of the block coordinates, (N, n) points -> (N, m) monomials;
    ``cols`` holds the k block columns.  numpy rounds a product of one element
    otherwise than the same element of a longer array, so a single monomial is
    computed as a row of two."""
    if points.shape[0] * len(cols[0]) == 1:
        return _monomials(points[[0, 0]], cols)[:1]
    acc = np.take(points, cols[0], axis=1)  # C order: the matvec's rounding follows layout
    for col in cols[1:]:
        acc *= np.take(points, col, axis=1)
    return acc


def evaluate_compensated(p: SteinerPolynomial, z) -> complex:
    """Sum of the signed block terms of p at the point z (block_terms), taken with fsum.

    Used to certify optimizer witnesses independently of the ascent path.
    A family takes an (R, n) array, one point per sign row, and gives an
    (R,) array, row r being the value of sign row r at point r.
    """
    points = _as_points(p, z, p.signs.ndim).reshape(-1, p.n)
    if p.is_family and len(points) != len(p.signs):
        raise ValidationError(f"points array has shape {points.shape}, expected "
                              f"({len(p.signs)}, {p.n}): one point per sign row")
    terms = block_terms(p, points, np.arange(len(points)))
    values = [complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist())) for t in terms]
    return np.array(values) if p.is_family else values[0]


def evaluate_many(p: SteinerPolynomial, points: np.ndarray, sign_rows=None) -> np.ndarray:
    """Vectorized evaluation on an (N, n) array of points, in row tiles; every row gets
    the bits of the same row inside any other batch, a one-row call included.

    Each run of one sign row in a tile (the whole tile for one polynomial)
    sums its monomials by one matvec with that row's signs.  BLAS sums a
    lone row in another order than a row of a matrix, so a run of one row is
    summed as a row of two.  For a family, ``sign_rows`` gives the sign row
    of each point, so every point gets the bits of the call on its sign
    row's points alone; sorted sign rows make long runs.
    """
    points = _as_points(p, points, 2)
    sign_rows = _sign_rows(p, sign_rows, len(points))
    out = np.zeros(points.shape[0], dtype=np.complex128)
    if p.num_terms == 0:
        return out
    plan = p.kernel_plan()
    for rows in row_tiles(points.shape[0], p.num_terms):
        terms, tile = _monomials(points[rows], plan.cols), out[rows]
        for run, r in _sign_runs(plan, sign_rows, rows):
            if run.stop - run.start == 1:
                tile[run] = (terms[[run.start] * 2] @ plan.signs[r])[:1]
            else:
                tile[run] = terms[run] @ plan.signs[r]
        del terms  # before the next tile's monomials are made
    return out


def block_terms(p: SteinerPolynomial, points: np.ndarray, sign_rows=None) -> np.ndarray:
    """The signed block terms c_J z_J at each row of an (N, n) batch, (N, m); p is
    their sum.  For a family, ``sign_rows`` gives the sign row of each point."""
    points = _as_points(p, points, 2)
    sign_rows = _sign_rows(p, sign_rows, len(points))
    plan = p.kernel_plan()
    return plan.tile_signs(sign_rows, slice(None)) * _monomials(points, plan.cols)


def value_and_partials(p: SteinerPolynomial, z, sign_rows=None) -> tuple:
    """((N,) values p(z), (N, n) complex partials dp/dz_j) at each row of an (N, n) batch.

    dp/dz_j = sum over blocks J containing j of c_J * prod_{i in J, i != j} z_i.
    Each row is bit-identical to the call on that row alone.  For a family,
    ``sign_rows`` gives the sign row of each point.  It keeps about 3k (rows, m)
    temporaries where evaluate_many keeps two, so its row tiles hold
    TILE_MONOMIALS / k monomials, and the temporaries and the plan's bins
    stay cache-sized.
    """
    points = _as_points(p, z, 2)
    num, n = points.shape
    sign_rows = _sign_rows(p, sign_rows, num)
    values = np.zeros(num, dtype=np.complex128)
    partials = np.zeros((num, n), dtype=np.complex128)
    if p.num_terms:
        plan = p.kernel_plan()
        m, k = p.num_terms, p.k
        flat = partials.view(np.float64)  # (num, 2n): re, im of each partial in turn
        for rows in row_tiles(num, k * m):
            signs = plan.tile_signs(sign_rows, rows)
            cols = [np.take(points[rows], col, axis=1) for col in plan.cols]  # (r, m)
            # fold the signs into column 0, which is exact (rounding is symmetric), so
            # every product through it is signed and only others[0] needs them again
            cols[0] *= signs
            # products of columns 0..i (prefix[i]), i..k-1 (suffix[i]), all but pos (others[pos])
            prefix, suffix = [cols[0]], [None] * (k - 1) + [cols[k - 1]]
            for i in range(1, k):
                prefix.append(prefix[-1] * cols[i])
            for i in range(k - 2, 0, -1):
                suffix[i] = suffix[i + 1] * cols[i]
            others = ([suffix[1] * signs] + [prefix[i - 1] * suffix[i + 1] for i in range(1, k - 1)]
                      + [prefix[k - 2]])
            # one bincount per position on the interleaved (re, im) halves of the terms
            # and partials: each bin adds the terms of one partial's half in block order
            out = flat[rows].reshape(-1)  # a view
            bins = plan.bins(len(cols[0]))
            for pos in range(k):
                w = others[pos].view(np.float64).reshape(-1)
                out += np.bincount(bins[pos].reshape(-1), weights=w, minlength=out.size)
            values[rows] = prefix[k - 1].sum(axis=1)
            del cols, prefix, suffix, others  # before the next tile's are made
    return values, partials


def random_signs(system: PartialSteinerSystem, seed: int) -> np.ndarray:
    """Independent fair +-1 signs, one per block, deterministic per (system, seed)."""
    rng = rng_for(seed, "signs", system.n, system.k, system.num_blocks)
    return 2 * rng.integers(0, 2, size=system.num_blocks, dtype=np.int8) - 1


def relabel(p: SteinerPolynomial, perm) -> SteinerPolynomial:
    """Polynomial with variables renamed by the permutation perm (old -> new).

    Blocks are re-sorted into canonical order with their signs carried along.
    """
    p.require_single("relabel")
    perm = list(perm)
    pairs = []
    for b, s in zip(p.system.blocks, p.signs):
        pairs.append((tuple(sorted(perm[x] for x in b)), int(s)))
    pairs.sort()
    system = PartialSteinerSystem(p.n, p.k, p.system.t, tuple(b for b, _ in pairs))
    return SteinerPolynomial(system, np.array([s for _, s in pairs], dtype=np.int8))


def save_polynomial(p: SteinerPolynomial, path):
    """System file format plus a final line of +1/-1 signs."""
    p.require_single("save_polynomial")
    save_system(p.system, path)
    with open(path, "a", encoding="ascii") as fh:
        fh.write(" ".join("+1" if s > 0 else "-1" for s in p.signs) + "\n")


def load_polynomial(path) -> SteinerPolynomial:
    lines = numbered_lines(path)
    if len(lines) < 2:
        raise ValidationError(f"{path}: polynomial file needs a header and a sign line")
    system = parse_system(path, lines[:-1])
    num, tokens = lines[-1]
    expected = f"{system.num_blocks} signs, each +1 or -1"
    signs = line_ints(path, num, tokens, system.num_blocks, expected)
    if any(s not in (1, -1) for s in signs):
        raise ValidationError(f"{path}: line {num}: expected {expected}")
    return SteinerPolynomial(system, np.array(signs, dtype=np.int8))
