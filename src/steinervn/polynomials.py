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


def _as_point(p: SteinerPolynomial, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (p.n,):
        raise ValidationError(f"point has shape {z.shape}, expected ({p.n},)")
    return z


def _monomials(points: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Products of the block coordinates, (N, n) points -> (N, m) monomials."""
    acc = points[:, blocks[:, 0]].copy()
    for col in range(1, blocks.shape[1]):
        acc *= points[:, blocks[:, col]]
    return acc


def evaluate_compensated(p: SteinerPolynomial, z) -> complex:
    """Signed sum of the monomials of p at the point z, summed with fsum.

    Used to certify optimizer witnesses independently of the ascent path.
    """
    t = p.signs * _monomials(_as_point(p, z)[None, :], p.system.blocks_array())[0]
    return complex(math.fsum(t.real), math.fsum(t.imag))


def evaluate_many(p: SteinerPolynomial, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (N, n) array of points."""
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim != 2 or points.shape[1] != p.n:
        raise ValidationError(f"points array has shape {points.shape}, expected (N, {p.n})")
    if p.num_terms == 0:
        return np.zeros(points.shape[0], dtype=np.complex128)
    return _monomials(points, p.system.blocks_array()) @ p.signs.astype(np.complex128)


def value_and_partials(p: SteinerPolynomial, z) -> tuple:
    """(p(z), vector of complex partials dp/dz_j).

    dp/dz_j = sum over blocks J containing j of c_J * prod_{i in J, i != j} z_i.
    """
    z = _as_point(p, z)
    partials = np.zeros(p.n, dtype=np.complex128)
    if p.num_terms == 0:
        return 0j, partials
    blocks = p.system.blocks_array()
    zb = z[blocks]
    m, k = zb.shape
    # prefix[i] / suffix[i]: products of columns before / from i
    prefix = np.empty((m, k + 1), dtype=np.complex128)
    suffix = np.empty((m, k + 1), dtype=np.complex128)
    prefix[:, 0] = 1.0
    suffix[:, k] = 1.0
    for i in range(k):
        prefix[:, i + 1] = prefix[:, i] * zb[:, i]
        suffix[:, k - 1 - i] = suffix[:, k - i] * zb[:, k - 1 - i]
    signs = p.signs.astype(np.complex128)
    for pos in range(k):
        w = signs * (prefix[:, pos] * suffix[:, pos + 1])
        idx = blocks[:, pos]
        partials += np.bincount(idx, weights=w.real, minlength=p.n)
        partials += 1j * np.bincount(idx, weights=w.imag, minlength=p.n)
    terms = signs * prefix[:, k]
    if m > COMPENSATED_THRESHOLD:
        val = complex(math.fsum(terms.real), math.fsum(terms.imag))
    else:
        val = complex(terms.sum())
    return val, partials


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
