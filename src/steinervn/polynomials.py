"""Steiner unimodular polynomials: evaluation, partial derivatives, sign sampling.

A Steiner unimodular polynomial is a k-homogeneous polynomial
p(z) = sum_J c_J * z_J whose support J runs over the blocks of a partial
Steiner system with t = k-1 and whose coefficients c_J are +-1.  Every
monomial is a product of k distinct variables, so these polynomials are
tetrahedral by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .designs import PartialSteinerSystem
from .errors import DomainError, ValidationError
from .seeding import derive_seed, rng_for

# Switch to compensated summation above this many terms; cancellation near
# optimizer convergence is what matters, plain pairwise summation is fine
# for small supports.
COMPENSATED_THRESHOLD = 10**4

# Most monomials one kernel pass holds: batched rows are processed in tiles
# of this many monomials so the (rows, m) temporaries stay in cache.
TILE_MONOMIALS = 1 << 14


@dataclass
class SteinerPolynomial:
    """Support blocks (canonical lexicographic order) plus one sign per block."""

    system: PartialSteinerSystem
    signs: np.ndarray

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


def _as_points(p: SteinerPolynomial, z, ndim: int) -> np.ndarray:
    """z as one complex point of p (ndim 1) or as an (N, n) batch of them (ndim 2)."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != ndim or z.shape[-1] != p.n:
        expected = f"({p.n},)" if ndim == 1 else f"(N, {p.n})"
        raise ValidationError(f"points array has shape {z.shape}, expected {expected}")
    return z


def _row_tiles(num_rows: int, m: int):
    """Row slices holding at most TILE_MONOMIALS monomials each (at least one row)."""
    step = max(1, TILE_MONOMIALS // m)
    return [slice(lo, lo + step) for lo in range(0, num_rows, step)]


def _monomials(points: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Products of the block coordinates, (N, n) points -> (N, m) monomials."""
    acc = np.take(points, blocks[:, 0], axis=1)  # C order: the matvec's rounding follows layout
    for col in range(1, blocks.shape[1]):
        acc *= np.take(points, blocks[:, col], axis=1)
    return acc


def evaluate_compensated(p: SteinerPolynomial, z) -> complex:
    """Signed sum of the monomials of p at the point z, summed with fsum.

    Used to certify optimizer witnesses independently of the ascent path.
    """
    t = p.signs * _monomials(_as_points(p, z, 1)[None, :], p.system.blocks_array())[0]
    return complex(math.fsum(t.real), math.fsum(t.imag))


def evaluate_many(p: SteinerPolynomial, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, n) array of points, in row tiles; a row matches
    its one-row call to rounding (BLAS may sum a lone row in another order)."""
    points = _as_points(p, points, 2)
    out = np.zeros(points.shape[0], dtype=np.complex128)
    if p.num_terms == 0:
        return out
    blocks = p.system.blocks_array()
    signs = p.signs.astype(np.complex128)
    for rows in _row_tiles(points.shape[0], p.num_terms):
        out[rows] = _monomials(points[rows], blocks) @ signs
    return out


def value_and_partials(p: SteinerPolynomial, z) -> tuple:
    """(p(z), complex partials dp/dz_j) at one point or at each row of a batch.

    dp/dz_j = sum over blocks J containing j of c_J * prod_{i in J, i != j} z_i.
    A point of shape (n,) gives (complex, (n,) array); an (N, n) array gives
    ((N,) values, (N, n) partials), each row bit-identical to the call on
    that row alone.  Rows are processed in tiles of at most TILE_MONOMIALS
    monomials, so the per-column temporaries stay cache-sized.
    """
    single = np.ndim(z) == 1
    points = _as_points(p, z, 1 if single else 2).reshape(-1, p.n)
    num, n = points.shape
    values = np.zeros(num, dtype=np.complex128)
    partials = np.zeros((num, n), dtype=np.complex128)
    if p.num_terms:
        blocks = p.system.blocks_array()
        m, k = blocks.shape
        signs = p.signs.astype(np.complex128)
        for rows in _row_tiles(num, m):
            cols = [np.take(points[rows], blocks[:, i], axis=1) for i in range(k)]  # (r, m)
            # products of columns 0..i (prefix[i]), i..k-1 (suffix[i]), all but pos (others[pos])
            prefix, suffix = [cols[0]], [None] * (k - 1) + [cols[k - 1]]
            for i in range(1, k):
                prefix.append(prefix[-1] * cols[i])
            for i in range(k - 2, 0, -1):
                suffix[i] = suffix[i + 1] * cols[i]
            others = ([suffix[1]] + [prefix[i - 1] * suffix[i + 1] for i in range(1, k - 1)]
                      + [prefix[k - 2]])
            # row r's partials are bins r * n + j of one flat bincount (a view)
            flat = partials[rows].reshape(-1)
            offsets = n * np.arange(len(cols[0]))[:, None]
            for pos in range(k):
                w = signs * others[pos]
                idx = (offsets + blocks[:, pos]).reshape(-1)
                flat += np.bincount(idx, weights=w.real.reshape(-1), minlength=flat.size)
                flat += 1j * np.bincount(idx, weights=w.imag.reshape(-1), minlength=flat.size)
            terms = signs * prefix[k - 1]
            if m > COMPENSATED_THRESHOLD:
                values[rows] = [complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms]
            else:
                values[rows] = terms.sum(axis=1)
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
    from .designs import save_system

    save_system(p.system, path)
    with open(path, "a", encoding="ascii") as fh:
        fh.write(" ".join("+1" if s > 0 else "-1" for s in p.signs) + "\n")


def load_polynomial(path) -> SteinerPolynomial:
    from .designs import PartialSteinerSystem as PSS
    from .designs import _check_block_shapes

    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValidationError(f"{path}: polynomial file needs a header and a sign line")
    n, k, t = (int(x) for x in lines[0].split())
    blocks = [tuple(int(x) for x in ln.split()) for ln in lines[1:-1]]
    _check_block_shapes(blocks, k, n)
    try:
        signs = np.array([int(tok) for tok in lines[-1].split()], dtype=np.int8)
    except ValueError as exc:
        raise ValidationError(f"{path}: bad sign line") from exc
    if len(blocks) != signs.size:
        raise ValidationError(
            f"{path}: {len(blocks)} blocks but {signs.size} signs"
        )
    return SteinerPolynomial(PSS(n, k, t, tuple(blocks)), signs)
