"""Sup-norm estimation on l_q balls, a brute-force oracle, analytic bounds.

estimate_norm produces certified LOWER bounds: the returned value is the
modulus of the polynomial at an explicit witness point inside the unit
ball, recomputed with compensated summation independently of the optimizer.
Upper bounds are analytic only (see analytic_bounds).
"""

import logging
import math
from dataclasses import dataclass
from math import comb, factorial, inf, log

import numpy as np

from .errors import ConvergenceError, DomainError
from .polynomials import (Budgets, SteinerPolynomial, evaluate_compensated,
                          evaluate_many, value_and_partials)
from .seeding import rng_for

logger = logging.getLogger(__name__)

ARMIJO = 1e-4
BURNIN_STEPS = 30
STEP0 = 0.5
STEP_SHRINK = 0.5
ORACLE_MAX_N = 7
ORACLE_MIN_RESOLUTION = 16
ORACLE_SAMPLES = 1_000_000
# The absolute constant D of the probabilistic polydisk bound, taken at its ceiling.
KSZ_CONSTANT = 8.0


@dataclass
class NormEstimate:
    """Certified lower bound of a sup-norm with its witness point.

    value equals |p(witness)| under independent compensated re-evaluation,
    and the witness satisfies ||witness||_q <= 1 + 1e-12.
    """

    value: float
    q: float
    witness: np.ndarray
    method: str  # multistart_ascent | grid_oracle | trivial
    starts: int
    iterations: int
    seed: int


@dataclass
class BoundSet:
    """Analytic reference bounds for (k, q, n); natural logs throughout."""

    ksz_infty: float
    qnorm_upper: float
    l1_upper: float
    ell2_upper: float
    polarization: float


def qnorm(z: np.ndarray, q):
    """l_q norm of a complex vector (a float), or of each row of an (N, n) array; q in [1, inf]."""
    mods = np.abs(z)
    top = mods.max(axis=-1, initial=0.0)
    if q != inf:
        scale = np.where(top > 0.0, top, 1.0)
        # float_power takes libm's root, so a row's norm is the vector's to the bit
        top = top * np.float_power(np.sum((mods / scale[..., None]) ** q, axis=-1), 1.0 / q)
    return float(top) if np.ndim(top) == 0 else top


def _check_q(q):
    if not (q == inf or (isinstance(q, (int, float)) and q >= 1)):
        raise DomainError(f"q={q} outside [1, inf]")


# ---------------------------------------------------------------------------
# Projected gradient ascent
# ---------------------------------------------------------------------------

def _align_burnin(p, z, q):
    """Sharpen random starts, one per row of z, by Hoelder alignment before the ascent.

    Each step replaces a row z with the unit-q-norm point maximizing the
    linearization |sum_j (dp/dz_j) z_j|: conjugate phases with moduli
    proportional to |dp/dz_j|^{q'-1} (all moduli 1 when q = inf).  This is
    one alternating-maximization step on the symmetric multilinear form; it
    is a heuristic initializer only, so the best point each row has seen is
    returned and certification happens downstream.  A row whose partials
    vanish, or whose aligned point has a q-norm below the smallest normal
    float, stays where it is.  Degenerate for q = 1 (the linearized optimum
    is a single coordinate), so callers skip it there.
    """
    best_f, best_z = np.full(len(z), -1.0), z.copy()
    for step in range(BURNIN_STEPS + 1):
        val, part = value_and_partials(p, z)
        f = np.abs(val) ** 2
        better = f > best_f
        best_f[better], best_z[better] = f[better], z[better]
        if step == BURNIN_STEPS:
            break
        mods = np.abs(part)
        w = np.conj(part)
        if q == inf:
            z = np.where(mods > 0, w / np.maximum(mods, 1e-300), z)
        else:
            qp = q / (q - 1.0)
            z_new = w * np.maximum(mods, 1e-300) ** (qp - 2.0)
            z_new[mods == 0.0] = 0.0
            nrm = qnorm(z_new, q)[:, None]
            # dividing by a zero, subnormal or NaN norm gives inf or NaN: keep the row
            usable = nrm >= np.finfo(np.float64).tiny
            z = np.where(usable, z_new / np.where(usable, nrm, 1.0), z)
    return best_z


# Armijo step sizes, halving from STEP0 down to 2^-64 (about 5e-20).
_ALPHAS = STEP0 * STEP_SHRINK ** np.arange(64)
_LS_CHUNK = 8  # width of every line-search pass after a step's first
_LS_FIRST_MAX = 24  # widest first pass


def _discard(f, rows, reason):
    for s in rows.tolist():
        logger.warning("estimate_norm: start %d discarded (%s)", s, reason)
    f[rows] = np.nan


def _armijo_ascent(p, x, to_point, direction, step, max_iters, tol, name):
    """Backtracking gradient ascent of |p|^2, one start per row of x.

    ``to_point`` maps states to the points p is evaluated at,
    ``direction(z, f, val, partials)`` gives each row's ascent direction and
    its squared norm, and ``step(x, alphas, d)`` gives the (rows, width, n)
    candidate states with a mask of the usable ones (True: all).  Each row
    keeps its own line search over the steps _ALPHAS (0.5, halving, Armijo
    constant 1e-4) and takes the first step that passes, and its own stop:
    zero gradient, no passing step, a relative gain below tol, or max_iters.
    A pass evaluates the candidates of all searching rows together.  The
    first pass of a step covers the steps down to 2 past the deepest one any
    row took in the step before (8 steps on the first step, at most 24), so
    that one pass usually settles every row; rows still searching go on in
    passes of 8 steps.  The passes change only the cost, not the steps taken.
    A row whose direction, or a candidate value at or before the step it
    takes, turns non-finite is discarded with a warning and its |p|^2 set to
    NaN.  Returns (points, |p|^2, iterations per row).
    """
    z = to_point(x)
    f = np.abs(evaluate_many(p, z)) ** 2
    num, dim = x.shape
    iters = np.zeros(num, dtype=np.int64)
    live = np.arange(num)
    width = _LS_CHUNK
    for _ in range(max_iters):
        if not live.size:
            break
        iters[live] += 1
        z_live, f_live = z[live], f[live]
        val, partials = value_and_partials(p, z_live)
        d, gn2 = direction(z_live, f_live, val, partials)
        finite = np.isfinite(gn2)
        if not finite.all():
            _discard(f, live[~finite], f"non-finite gradient in {name}")
        searching = finite & (gn2 != 0.0)
        live, d, gn2, f_live = live[searching], d[searching], gn2[searching], f_live[searching]
        moving, deepest = [live[:0]], 0
        lo, hi = 0, width
        while live.size and lo < len(_ALPHAS):
            alphas = _ALPHAS[lo:hi]
            cands, usable = step(x[live], alphas, d)
            points = to_point(cands)
            fs = np.abs(evaluate_many(p, points.reshape(-1, dim))) ** 2
            fs = np.where(usable, fs.reshape(len(live), len(alphas)), -1.0)
            armijo = fs >= f_live[:, None] + ARMIJO * alphas * gn2[:, None]
            hit = armijo.argmax(axis=1)
            settled = ok = armijo.any(axis=1)
            if not np.isfinite(fs).all():
                # a row fails at a non-finite value at or before the step it takes
                bad = ~np.isfinite(fs)
                failed = bad.any(axis=1) & (bad.argmax(axis=1) <= np.where(ok, hit, len(alphas)))
                _discard(f, live[failed], "non-finite objective in line search")
                ok, settled = ok & ~failed, ok | failed
            took = ok.nonzero()[0]
            pick = took * len(alphas) + hit[took]  # flat (row, step) index of each step taken
            rows, f_new = live[took], fs.reshape(-1)[pick]
            gain = (f_new - f_live[took]) / np.maximum(f_new, 1e-300)
            x[rows], z[rows], f[rows] = (cands.reshape(-1, dim)[pick],
                                         points.reshape(-1, dim)[pick], f_new)
            moving.append(rows[gain >= tol])
            if took.size:
                deepest = max(deepest, lo + max(hit[took].tolist()))
            if settled.all():
                break
            searching = ~settled
            live, d, gn2, f_live = live[searching], d[searching], gn2[searching], f_live[searching]
            lo, hi = hi, hi + _LS_CHUNK
        width = min(deepest + 3, _LS_FIRST_MAX)
        live = np.concatenate(moving)
    return z, f, iters


def _phase_ascent(p, theta, max_iters, tol):
    """Gradient ascent of |p(e^{i theta})|^2 over the torus, one start per row."""
    def direction(z, f, val, partials):
        grad = -2.0 * np.imag(np.conj(val)[:, None] * partials * z)
        return grad, (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]  # each row's BLAS dot

    def step(theta, alphas, grad):
        return theta[:, None, :] + alphas[None, :, None] * grad[:, None, :], True

    return _armijo_ascent(p, theta, lambda t: np.exp(1j * t), direction, step,
                          max_iters, tol, "phase ascent")


def _sphere_normal(z, q):
    """Complex packing of the gradient of ||z||_q at a unit vector (or at each row).

    Entry j is z_j |z_j|^{q-2}; moduli are clamped below to keep the field
    bounded for q < 2.
    """
    mods = np.abs(z)
    safe = np.maximum(mods, 1e-12)
    u = z * safe ** (q - 2.0)
    u[mods == 0.0] = 0.0
    return u


def _qnorm_rows(points: np.ndarray, q) -> np.ndarray:
    mods = np.abs(points)
    if q == inf:
        return mods.max(axis=1)
    if q == 1:
        return mods.sum(axis=1)
    if q == 2:
        return np.sqrt((mods ** 2).sum(axis=1))
    return (mods ** q).sum(axis=1) ** (1.0 / q)


def _sphere_ascent(p, z, q, max_iters, tol):
    """Ascent of the scale-invariant |p(z)|^2 / ||z||_q^{2k}, one start per row.

    The search direction is the gradient of the quotient, which vanishes at
    constrained critical points on the q-sphere; every candidate step is
    renormalized onto the sphere.
    """
    def direction(z, f, val, partials):
        # conjugate of the packing 2 p conj(dp) of (df/dx, df/dy): a known defect (ROADMAP)
        grad_f = (2.0 * np.conj(val))[:, None] * partials
        d = grad_f - (2.0 * p.k * f)[:, None] * _sphere_normal(z, q)
        return d, np.sum(d.real ** 2 + d.imag ** 2, axis=1)

    def step(z, alphas, d):
        cands = z[:, None, :] + alphas[None, :, None] * d[:, None, :]
        norms = _qnorm_rows(cands.reshape(-1, z.shape[1]), q).reshape(cands.shape[:2])
        usable = norms > 0.0
        cands /= np.where(usable, norms, 1.0)[..., None]  # in place: no masked copies
        return cands, usable

    z = z / qnorm(z, q)[:, None]
    return _armijo_ascent(p, z, lambda z: z, direction, step, max_iters, tol, "sphere ascent")


def _certify(p, witness, q, method, starts, iterations, seed):
    nrm = qnorm(witness, q)
    if nrm > 1.0 + 1e-12:
        witness = witness / nrm
    value = abs(evaluate_compensated(p, witness))
    return NormEstimate(value, float(q) if q != inf else inf, witness,
                        method, starts, iterations, seed)


def estimate_norm(p: SteinerPolynomial, q, starts: int = Budgets.starts,
                  max_iters: int = Budgets.iters, tol: float = Budgets.tol,
                  seed: int = 0) -> NormEstimate:
    """Best witness over ``starts`` runs of projected gradient ascent.

    For q = inf the ascent runs over phase vectors z_j = e^{i theta_j} (the
    maximum modulus principle puts the optimum on the torus); for finite q
    over the complex unit q-sphere (homogeneity puts it on the sphere).
    Start s uses the derived seed (seed, "start", s), so enlarging ``starts``
    keeps all earlier starts and the result is nondecreasing.  The starts
    advance together, as the rows of one array, so each step costs one
    batched kernel call; every row keeps its own line search, stop rule and
    iteration count, and computes what it would compute alone (up to the
    last bit of a batched BLAS sum).  A start whose values turn non-finite
    is discarded with a warning; if all are, ConvergenceError is raised.
    """
    _check_q(q)
    if starts < 1:
        raise DomainError(f"starts={starts} must be >= 1")
    n = p.n
    if p.num_terms == 0:
        witness = np.zeros(n, dtype=np.complex128)
        if q == inf:
            witness[:] = 1.0
        elif n:
            witness[0] = 1.0
        return _certify(p, witness, q, "trivial", starts, 0, seed)

    rngs = [rng_for(seed, "start", s) for s in range(starts)]
    if q == inf:
        z0 = np.exp(1j * np.array([rng.uniform(0.0, 2.0 * np.pi, size=n) for rng in rngs]))
        points, f, iters = _phase_ascent(p, np.angle(_align_burnin(p, z0, q)), max_iters, tol)
    else:
        z0 = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for rng in rngs])
        if q > 1:
            z0 = _align_burnin(p, z0 / qnorm(z0, q)[:, None], q)
        points, f, iters = _sphere_ascent(p, z0, q, max_iters, tol)
    kept = ~np.isnan(f)  # discarded starts hold NaN
    if not kept.any():
        raise ConvergenceError(f"all {starts} ascent starts produced non-finite values")
    return _certify(p, points[np.nanargmax(f)], q, "multistart_ascent", starts,
                    int(iters[kept].sum()), seed)


def recertify(p: SteinerPolynomial, est: NormEstimate) -> bool:
    """Independent check of both NormEstimate invariants, the value to a relative 1e-10."""
    if qnorm(est.witness, est.q) > 1.0 + 1e-12:
        return False
    value = abs(evaluate_compensated(p, est.witness))
    return abs(value - est.value) <= 1e-10 * max(1.0, abs(est.value))


# ---------------------------------------------------------------------------
# Brute-force oracle (tests only)
# ---------------------------------------------------------------------------

def _decode_phases(ranks, resolution, dim):
    digits = np.empty((ranks.size, dim), dtype=np.int64)
    r = ranks.copy()
    for j in range(dim):
        digits[:, j] = r % resolution
        r //= resolution
    return digits * (2.0 * np.pi / resolution)


def _local_phase_refine(p, theta, spacing):
    """Shrinking local grid around the best phase vector (first phase pinned)."""
    dim = theta.size - 1
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    grids = np.meshgrid(*([offsets] * dim), indexing="ij")
    stencil = np.stack([g.ravel() for g in grids], axis=1)  # (5^dim, dim)
    center_row = int(np.argmax(np.all(stencil == 0.0, axis=1)))
    delta = spacing
    best = abs(evaluate_many(p, np.exp(1j * theta)[None, :])[0])
    for _ in range(80):
        cand = np.zeros((stencil.shape[0], theta.size))
        cand[:, 1:] = theta[1:] + delta * stencil
        vals = np.abs(evaluate_many(p, np.exp(1j * cand)))
        j = int(np.argmax(vals))
        improved = vals[j] > best
        if improved:
            best = float(vals[j])
            theta = cand[j]
        if not improved or j == center_row:
            delta *= 0.35
        if delta < 1e-10:
            break
    return theta, best


def _sample_sphere(rng, count, n, q):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / _qnorm_rows(z, q)[:, None]


def _local_sphere_refine(p, z, q, rng):
    best = abs(evaluate_many(p, z[None, :])[0])
    radius = 0.25
    for _ in range(800):
        pert = rng.standard_normal((256, z.size)) + 1j * rng.standard_normal((256, z.size))
        cand = z[None, :] + radius * pert
        cand = cand / _qnorm_rows(cand, q)[:, None]
        vals = np.abs(evaluate_many(p, cand))
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            z = cand[j]
        else:
            radius *= 0.96
        if radius < 1e-8:
            break
    return z, best


def brute_force_norm(p: SteinerPolynomial, q, resolution: int) -> NormEstimate:
    """Independent search oracle for tiny dimension.

    q = inf: exhaustive phase grid (the first phase is pinned to 0, which is
    lossless for homogeneous polynomials) followed by a shrinking local grid
    refinement.  Finite q: at least 10^6 random points on the q-sphere plus a
    shrinking random local search.  Deterministic; intended for tests, so the
    dimension is capped.
    """
    _check_q(q)
    if p.n > ORACLE_MAX_N:
        raise DomainError(f"oracle supports n <= {ORACLE_MAX_N}, got n={p.n}")
    if resolution < ORACLE_MIN_RESOLUTION:
        raise DomainError(f"resolution {resolution} < {ORACLE_MIN_RESOLUTION}")
    n = p.n
    if p.num_terms == 0:
        return estimate_norm(p, q, starts=1, seed=0)

    if q == inf:
        dim = n - 1
        total = resolution ** dim
        best_val, best_theta = -1.0, np.zeros(n)
        chunk = 1 << 15
        for lo in range(0, total, chunk):
            ranks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            thetas = np.zeros((ranks.size, n))
            thetas[:, 1:] = _decode_phases(ranks, resolution, dim)
            vals = np.abs(evaluate_many(p, np.exp(1j * thetas)))
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_theta = float(vals[j]), thetas[j]
        theta, _ = _local_phase_refine(p, best_theta, 2.0 * np.pi / resolution)
        witness = np.exp(1j * theta)
        est = _certify(p, witness, q, "grid_oracle", total, 0, 0)
        return est

    rng = rng_for(0, "oracle", n, p.k, int(resolution))
    best_val, best_z = -1.0, None
    chunk = 1 << 14
    remaining = ORACLE_SAMPLES
    while remaining > 0:
        batch = _sample_sphere(rng, min(chunk, remaining), n, q)
        vals = np.abs(evaluate_many(p, batch))
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_z = float(vals[j]), batch[j]
        remaining -= batch.shape[0]
    z, _ = _local_sphere_refine(p, best_z, q, rng)
    return _certify(p, z, q, "grid_oracle", ORACLE_SAMPLES, 0, 0)


# ---------------------------------------------------------------------------
# Analytic formulas
# ---------------------------------------------------------------------------

def ksz_polydisk_bound(n: int, k: int, m: int) -> float:
    """Probabilistic polydisk bound D * sqrt(n * ln(k) * m) for m-term random
    unimodular polynomials, with D = KSZ_CONSTANT."""
    if n < 2 or k < 2:
        raise DomainError(f"need n, k >= 2, got n={n}, k={k}")
    if m < 0:
        raise DomainError(f"term count m={m} must be >= 0")
    return KSZ_CONSTANT * math.sqrt(n * log(k) * m)


def polarization_constant(k: int, q) -> float:
    """Factor relating a polynomial's sup-norm to its symmetric multilinear form.

    Equal to 1 at q=2, k^{k/2} (k+1)^{(k+1)/2} / (2^k k!) at q=inf, and the
    generic k^k / k! otherwise.
    """
    if k < 2:
        raise DomainError(f"degree k={k} must be >= 2")
    _check_q(q)
    if q == 2:
        return 1.0
    if q == inf:
        return k ** (k / 2.0) * (k + 1) ** ((k + 1) / 2.0) / (2.0 ** k * factorial(k))
    return float(k ** k) / factorial(k)


def analytic_bounds(k: int, q, n: int) -> BoundSet:
    """All analytic reference bounds for degree-k Steiner unimodular
    polynomials in n variables at exponent q.

    qnorm_upper interpolates between the l_2 bound M k K ln^{3/2} n (taken
    with M = 2, K = 1) and the polydisk bound, using the tight coefficient
    (M k K)^{2/q} * (D lam_inf sqrt(ln k)/sqrt(k!))^{(q-2)/q} for q >= 2,
    with D = KSZ_CONSTANT, so at q = 2 it reduces exactly to ell2_upper.
    For 1 <= q < 2 it interpolates between the l_1 and l_2 bounds.
    l1_upper = 1/k! is reported separately as the sharper q = 1 ceiling.
    All logs are natural.
    """
    _check_q(q)
    if k < 2 or n < 2:
        raise DomainError(f"need k >= 2 and n >= 2, got k={k}, n={n}")
    mkk = 2.0 * k  # M k K
    fact = factorial(k)
    lam_inf = polarization_constant(k, inf)
    ell2_upper = mkk * log(n) ** 1.5
    l1_upper = 1.0 / fact
    polydisk_coeff = KSZ_CONSTANT * lam_inf * math.sqrt(log(k)) / math.sqrt(fact)
    if q == inf:
        qnorm_upper = polydisk_coeff * n ** (k / 2.0)
    elif q >= 2:
        qnorm_upper = (mkk ** (2.0 / q)
                       * polydisk_coeff ** ((q - 2.0) / q)
                       * log(n) ** (3.0 / q)
                       * n ** ((k / 2.0) * (q - 2.0) / q))
    else:
        qnorm_upper = ((k ** k / fact ** 2) ** ((2.0 - q) / q)
                       * (mkk * log(n) ** 1.5) ** ((2.0 * q - 2.0) / q))
    ksz_infty = KSZ_CONSTANT * math.sqrt(log(k) * comb(n, k - 1) * n / k)
    return BoundSet(ksz_infty, qnorm_upper, l1_upper, ell2_upper,
                    polarization_constant(k, q))
