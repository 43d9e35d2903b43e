"""Steiner unimodular polynomials: evaluation, partial derivatives, sign sampling.

A Steiner unimodular polynomial is a k-homogeneous polynomial
p(z) = sum_J c_J * z_J whose support J runs over the blocks of a partial
Steiner system with t = k-1 and whose coefficients c_J are +-1.  Every
monomial is a product of k distinct variables, so these polynomials are
tetrahedral by construction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import (PartialSteinerSystem, line_ints, numbered_lines, parse_system,
                      save_system)
from .errors import DomainError, ValidationError
from .seeding import derive_seed, rng_for

# Most monomials one kernel pass holds: batched rows are processed in tiles
# of this many monomials (a k-th of it in value_and_partials, which keeps k
# times the temporaries) so the (rows, m) temporaries stay in cache.
TILE_MONOMIALS = 1 << 14


@dataclass
class SteinerPolynomial:
    """Support blocks (canonical lexicographic order) plus one sign per block."""

    system: PartialSteinerSystem
    signs: np.ndarray

    _plan: "_KernelPlan" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)
        if self.signs.shape != (self.system.num_blocks,):
            raise ValidationError(
                f"sign vector has shape {self.signs.shape}, expected ({self.system.num_blocks},)"
            )
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

    def kernel_plan(self) -> "_KernelPlan":
        """The index and sign arrays the batched kernels reuse; built on first use, cached."""
        if self._plan is None:
            self._plan = _KernelPlan(self.system.blocks_array(), self.signs, self.n)
        return self._plan


class _KernelPlan:
    """Per-polynomial arrays of evaluate_many and value_and_partials.

    ``cols[i]`` is block column i as a contiguous index array and ``signs``
    the signs as complex numbers.  ``bins(rows)[pos]`` scatters the
    contributions of block position pos in a tile of ``rows`` points onto
    the float64 view of the (rows, n) partials: weight (r, 2 i + part), the
    real (part 0) or imaginary (part 1) half of monomial i's term, goes to
    bin 2 (r n + blocks[i, pos]) + part.  The bins are built for the largest
    tile seen and sliced for smaller ones.
    """

    def __init__(self, blocks: np.ndarray, signs: np.ndarray, n: int):
        self.cols = [np.ascontiguousarray(blocks[:, i]) for i in range(blocks.shape[1])]
        self.signs = signs.astype(np.complex128)
        self._n = n
        self._bins = np.empty((blocks.shape[1], 0, 2 * len(blocks)), dtype=np.int64)

    def bins(self, rows: int) -> np.ndarray:
        if rows > self._bins.shape[1]:
            parts = 2 * np.stack(self.cols)[:, :, None] + np.arange(2)  # (k, m, 2)
            rowbase = 2 * self._n * np.arange(rows)[:, None]
            self._bins = rowbase + parts.reshape(len(self.cols), 1, -1)  # (k, rows, 2m)
        return self._bins[:, :rows]


def _as_points(p: SteinerPolynomial, z, ndim: int) -> np.ndarray:
    """z as one complex point of p (ndim 1) or as an (N, n) batch of them (ndim 2)."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != ndim or z.shape[-1] != p.n:
        expected = f"({p.n},)" if ndim == 1 else f"(N, {p.n})"
        raise ValidationError(f"points array has shape {z.shape}, expected {expected}")
    return z


def _row_tiles(num_rows: int, width: int):
    """Row slices of about TILE_MONOMIALS / width rows each (at least one row).

    A last tile of one row joins the tile before it: BLAS sums a lone row in
    another order, and every row of a batch must get the same bits whatever
    the batch's size.
    """
    step = max(1, TILE_MONOMIALS // width)
    bounds = list(range(0, num_rows, step)) + [num_rows]
    if step > 1 and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _monomials(points: np.ndarray, cols) -> np.ndarray:
    """Products of the block coordinates, (N, n) points -> (N, m) monomials;
    ``cols`` holds the k block columns."""
    acc = np.take(points, cols[0], axis=1)  # C order: the matvec's rounding follows layout
    for col in cols[1:]:
        acc *= np.take(points, col, axis=1)
    return acc


def evaluate_compensated(p: SteinerPolynomial, z) -> complex:
    """Signed sum of the monomials of p at the point z, summed with fsum.

    Used to certify optimizer witnesses independently of the ascent path.
    """
    t = p.signs * _monomials(_as_points(p, z, 1)[None, :], p.system.blocks_array().T)[0]
    return complex(math.fsum(t.real), math.fsum(t.imag))


def evaluate_many(p: SteinerPolynomial, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, n) array of points, in row tiles; a row matches
    its one-row call to rounding (BLAS may sum a lone row in another order)."""
    points = _as_points(p, points, 2)
    out = np.zeros(points.shape[0], dtype=np.complex128)
    if p.num_terms == 0:
        return out
    plan = p.kernel_plan()
    for rows in _row_tiles(points.shape[0], p.num_terms):
        out[rows] = _monomials(points[rows], plan.cols) @ plan.signs
    return out


def value_and_partials(p: SteinerPolynomial, z) -> tuple:
    """(p(z), complex partials dp/dz_j) at one point or at each row of a batch.

    dp/dz_j = sum over blocks J containing j of c_J * prod_{i in J, i != j} z_i.
    A point of shape (n,) gives (complex, (n,) array); an (N, n) array gives
    ((N,) values, (N, n) partials), each row bit-identical to the call on
    that row alone.  It keeps about 3k (rows, m) temporaries where
    evaluate_many keeps two, so its row tiles hold TILE_MONOMIALS / k
    monomials, and the temporaries and the plan's bins stay cache-sized.
    """
    single = np.ndim(z) == 1
    points = _as_points(p, z, 1 if single else 2).reshape(-1, p.n)
    num, n = points.shape
    values = np.zeros(num, dtype=np.complex128)
    partials = np.zeros((num, n), dtype=np.complex128)
    if p.num_terms:
        plan = p.kernel_plan()
        m, k = p.num_terms, p.k
        signs = plan.signs
        flat = partials.view(np.float64)  # (num, 2n): re, im of each partial in turn
        for rows in _row_tiles(num, k * m):
            cols = [np.take(points[rows], col, axis=1) for col in plan.cols]  # (r, m)
            # products of columns 0..i (prefix[i]), i..k-1 (suffix[i]), all but pos (others[pos])
            prefix, suffix = [cols[0]], [None] * (k - 1) + [cols[k - 1]]
            for i in range(1, k):
                prefix.append(prefix[-1] * cols[i])
            for i in range(k - 2, 0, -1):
                suffix[i] = suffix[i + 1] * cols[i]
            others = ([suffix[1]] + [prefix[i - 1] * suffix[i + 1] for i in range(1, k - 1)]
                      + [prefix[k - 2]])
            # one bincount per position on the interleaved (re, im) halves of the terms
            # and partials: each bin adds the terms of one partial's half in block order
            out = flat[rows].reshape(-1)  # a view
            bins = plan.bins(len(cols[0]))
            for pos in range(k):
                w = (signs * others[pos]).view(np.float64).reshape(-1)
                out += np.bincount(bins[pos].reshape(-1), weights=w, minlength=out.size)
            values[rows] = (signs * prefix[k - 1]).sum(axis=1)
    if single:
        return complex(values[0]), partials[0]
    return values, partials


def random_signs(system: PartialSteinerSystem, seed: int) -> np.ndarray:
    """Independent fair +-1 signs, one per block, deterministic per (system, seed)."""
    rng = rng_for(seed, "signs", system.n, system.k, system.num_blocks)
    if system.num_blocks == 0:
        return np.zeros(0, dtype=np.int8)
    return (2 * rng.integers(0, 2, size=system.num_blocks, dtype=np.int8) - 1).astype(np.int8)


# Relative-gain stop of the per-round search estimates; they only rank sign
# patterns, so they stop well before the final estimate does.
SEARCH_TOL = 1e-7


@dataclass(frozen=True)
class Budgets:
    """Optimizer settings for one ratio cell.

    Each candidate sign pattern is scored with the cheap search_* settings,
    which only need to rank patterns; the winner is re-estimated with
    ``starts``, ``iters`` and ``tol``.  The lincomb_* settings drive the
    joint-condition sup of the d32 experiment.
    """

    rounds: int = 32
    starts: int = 64
    iters: int = 2000
    tol: float = 1e-10
    search_starts: int = 4
    search_iters: int = 150
    lincomb_starts: int = 6
    lincomb_iters: int = 40


def best_of_signs(system: PartialSteinerSystem, q, rounds: int, seed: int,
                  budgets: Budgets | None = None):
    """Smallest estimated q-norm among ``rounds`` seeded random sign draws.

    Returns (polynomial, estimate).  Every round is scored with the search
    settings of ``budgets`` (default ``Budgets()``), and the estimate is
    recomputed for the winning pattern with its ``starts``, ``iters`` and
    ``tol``.  Round r draws its signs with seed derive_seed(seed, "round", r),
    so the candidate set is independent of evaluation order; ties go to the
    lowest round index.
    """
    from .norms import estimate_norm  # deferred: norms imports this module's types

    if rounds < 1:
        raise DomainError(f"rounds={rounds} must be >= 1")
    budgets = budgets or Budgets()
    best_round, best_poly, best_value = None, None, math.inf
    for r in range(rounds):
        poly = SteinerPolynomial(system, random_signs(system, derive_seed(seed, "round", r)))
        est = estimate_norm(poly, q, starts=budgets.search_starts, max_iters=budgets.search_iters,
                            tol=SEARCH_TOL, seed=derive_seed(seed, "search", r))
        if est.value < best_value:
            best_round, best_poly, best_value = r, poly, est.value
    final = estimate_norm(best_poly, q, starts=budgets.starts, max_iters=budgets.iters,
                          tol=budgets.tol, seed=derive_seed(seed, "final", best_round))
    return best_poly, final


def relabel(p: SteinerPolynomial, perm) -> SteinerPolynomial:
    """Polynomial with variables renamed by the permutation perm (old -> new).

    Blocks are re-sorted into canonical order with their signs carried along.
    """
    perm = list(perm)
    pairs = []
    for b, s in zip(p.system.blocks, p.signs):
        pairs.append((tuple(sorted(perm[x] for x in b)), int(s)))
    pairs.sort()
    system = PartialSteinerSystem(p.n, p.k, p.system.t, tuple(b for b, _ in pairs))
    return SteinerPolynomial(system, np.array([s for _, s in pairs], dtype=np.int8))


def save_polynomial(p: SteinerPolynomial, path):
    """System file format plus a final line of +1/-1 signs."""
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
