"""Sup-norm estimation on l_q balls, the sign search, a brute-force oracle, analytic bounds.

estimate_norm produces certified LOWER bounds: the returned value is a lower
bound, in IEEE-754 arithmetic, of the modulus of the polynomial at an
explicit witness point inside the closed unit ball, recomputed with
compensated summation independently of the optimizer.  best_of_signs picks
the flattest of seeded random sign patterns with it, scoring them with a
ceiling whose cut (_Cut) keeps the choice exact; Budgets holds the settings
of both.  Upper bounds are analytic only (see analytic_bounds).
"""

import logging
import math
from dataclasses import dataclass
from math import comb, factorial, inf, log

import numpy as np

from .designs import PartialSteinerSystem
from .errors import ConvergenceError, DomainError
from .polynomials import (SteinerPolynomial, block_terms, evaluate_compensated, evaluate_many,
                          random_signs, row_tiles, value_and_partials)
from .seeding import derive_seed, rng_for

logger = logging.getLogger(__name__)

ARMIJO = 1e-4
BURNIN_STEPS = 30
STEP0 = 0.5
STEP_SHRINK = 0.5
# Relative gain below which a q = inf start leaves gradient steps for Newton steps.
NEWTON_SWITCH = 1e-4
ORACLE_MAX_N = 7
ORACLE_MIN_RESOLUTION = 16
ORACLE_SAMPLES = 1_000_000
# The absolute constant D of the probabilistic polydisk bound, taken at its ceiling.
KSZ_CONSTANT = 8.0

# Relative-gain stop of the per-round search estimates; they only rank sign
# patterns, so they stop well before the final estimate does.
SEARCH_TOL = 1e-7


@dataclass(frozen=True)
class Budgets:
    """Optimizer settings for one ratio cell.

    Each of the ``rounds`` candidate sign patterns is scored with the cheap
    search_* settings, which only need to rank patterns; the winner is
    re-estimated with ``starts``, ``iters`` and ``tol``.  The search scores
    the rounds in families of ``starts // search_starts`` patterns (at least
    one), so no search batch holds more rows than the final estimate.  The
    search_* settings are each round's most: a round that provably cannot
    be the minimum stops early (see best_of_signs).  The lincomb_* settings
    drive the joint-condition sup of the d32 experiment.
    """

    rounds: int = 32
    starts: int = 64
    iters: int = 2000
    tol: float = 1e-10
    search_starts: int = 4
    search_iters: int = 150
    lincomb_starts: int = 6
    lincomb_iters: int = 40


@dataclass
class NormEstimate:
    """Certified lower bound of a sup-norm with its witness point.

    value is a lower bound of |p(witness)| in IEEE-754 arithmetic, from an
    independent compensated re-evaluation less an a-priori bound on its
    rounding, and the witness lies in the closed unit q-ball: its computed
    q-norm is at most 1 less an a-priori bound on that norm's rounding (see
    _certified).  The estimate of a family holds value (R,), witness (R, n)
    and seed (R,), one entry per sign row, with starts and iterations summed
    over the rows.
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

# Relative room of the cut's bounds: more than any point the ascent holds lies off the
# unit q-sphere (_qnorm_error plus 710 u / q, n up to 10^5) or the bounds round by.
_CUT_ROOM = 2.0 ** -30


class _Cut:
    """Branch-and-bound cut of the sign rows of one estimate_norm call.

    A sign row's value, as _certify returns it, is taken at its best start's
    final point w, whose computed |p|^2 is at least F, the largest |p|^2 its
    starts have computed so far (a start's |p|^2 only rises).  With
    u = 2^-53, e = _qnorm_error(q, n), rho = _CUT_ROOM, a = 12 m (m + 7k) u,
    the value lies in [lo sqrt(F) - a, hi sqrt(F) + a], the upper end once F
    is final, where lo = (1 - 6e - 3 rho)^k and hi = (1 + 6e + 3 rho)^k.
    The points the ascent holds have coordinates of modulus at most 1 + rho,
    so their block terms have sum |t_J| <= 2m, and a is twice the sum of:
    three kernel roundings, gamma_m sum |t_J| for the sum and 3ku sum |t_J|
    for the products each (a burn-in value to |p|, the ascent's first value,
    |p(w)|: 6m (m + 3k) u); the move of a burn-in point onto the torus, 4u a
    coordinate (8kmu); the scaled witness's rounding, gamma_k sum |t_J|
    (2kmu); and _certified's 3ku sum |t_J| slack, in its fsum and
    subtracted (12kmu).  lo and hi hold _certify's (1 - 3e - 4u) shrink over
    a computed norm within (1 + e)(1 + rho) of 1 and the renormalization of
    a burn-in point at finite q, per coordinate; the margin of rho over u
    holds the rest (|p|^2, its root, _certified's 1 - 5u, these bounds).

    A call stops every row of a sign row (at the top of a burn-in step, an
    ascent iteration or a Newton pass) once its lower end exceeds the bound:
    the ceiling, or the smaller upper end of a sign row of the call that is
    done for good (``settled``: no row left in the last stage) and was not
    stopped.  A stopped row's value, and its full-budget value, then exceed
    the bound, which is at least some sign row's value, so neither is the
    minimum.  The full-budget claim assumes that the start holding F would
    not have been discarded later, so after a call's first discard or
    non-finite burn-in value or partial it stops no more rows, and no row is
    stopped before its first gradient is checked: the burn-in checks its
    values and partials before each cut, and the Armijo ascent, which has no
    burn-in before it at q = 1, makes its first check after its first
    gradients and discards.  Every call has a cut; without a ceiling it is
    off from the start and never stops a row.
    """

    def __init__(self, p, q, ceiling, sign_row_count, starts):
        e, k, m = _qnorm_error(q, p.n), p.k, p.num_terms
        self.lo = (1.0 - 6 * e - 3 * _CUT_ROOM) ** k
        self.hi = (1.0 + 6 * e + 3 * _CUT_ROOM) ** k
        self.room = 12 * m * (m + 7 * k) * 2.0 ** -53
        self.ceiling, self.starts = inf if ceiling is None else float(ceiling), starts
        self.stopped = np.zeros(sign_row_count, dtype=bool)
        self.off = ceiling is None

    def __call__(self, live, f, settled):
        """Mask of the rows of ``live`` whose sign row goes on, given every row's best
        |p|^2 so far in f (NaN once discarded)."""
        if self.off or not np.isfinite(f).all():
            self.off = True
            return np.ones(len(live), dtype=bool)
        top = np.sqrt(f.reshape(-1, self.starts).max(axis=1))
        running = np.zeros(len(top), dtype=bool)
        running[live // self.starts] = True
        bound = self.ceiling
        if settled:
            done = ~running & ~self.stopped
            bound = min(bound, float(self.hi * top[done].min(initial=inf)) + self.room)
        self.stopped |= running & (self.lo * top - self.room > bound)
        return ~self.stopped[live // self.starts]


def _align_burnin(p, z, q, sign_rows, cut):
    """Sharpen random starts, one per row of z, by Hoelder alignment before the ascent.

    Each step replaces a row z with the unit-q-norm point maximizing the
    linearization |sum_j (dp/dz_j) z_j|: conjugate phases with moduli
    proportional to |dp/dz_j|^{q'-1} (all moduli 1 when q = inf).  This is
    one alternating-maximization step on the symmetric multilinear form; it
    is a heuristic initializer only, so the best point each row has seen is
    returned and certification happens downstream.  A row whose partials
    vanish, or whose aligned point has a q-norm below the smallest normal
    float, stays where it is.  Degenerate for q = 1 (the linearized optimum
    is a single coordinate), so callers skip it there.  ``sign_rows`` gives
    the sign row of each row of z.  Between steps the ``cut`` (see _Cut)
    drops the rows of sign rows that cannot reach its ceiling's minimum;
    they keep the best point they have seen.
    """
    best_f, best_z = np.full(len(z), -1.0), z.copy()
    held = np.arange(len(z))  # the rows of best_f and best_z that z holds
    for step in range(BURNIN_STEPS + 1):
        val, part = value_and_partials(p, z, sign_rows)
        f = np.abs(val) ** 2
        better = f > best_f[held]
        best_f[held[better]], best_z[held[better]] = f[better], z[better]
        if step == BURNIN_STEPS:
            break
        # a non-finite value or partial foretells a discard
        cut.off |= not (np.isfinite(f).all() and np.isfinite(part).all())
        if not cut.off:
            keep = cut(held, best_f, settled=False)
            if not keep.all():
                held, z, part, sign_rows = held[keep], z[keep], part[keep], sign_rows[keep]
                if not held.size:
                    break
        mods = np.abs(part)
        w = np.conj(part)
        if q == inf:  # a row whose partials vanish or are NaN stays put, without a warning
            z = np.divide(w, np.maximum(mods, 1e-300), out=z.copy(), where=mods > 0)
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


def _discard(p, f, rows, reason, sign_rows):
    for s in rows.tolist():
        if not p.is_family:
            logger.warning("estimate_norm: start %d discarded (%s)", s, reason)
        else:  # a family's rows hold its sign rows' starts in order
            r = int(sign_rows[s])
            logger.warning("estimate_norm: start %d of sign row %d discarded (%s)",
                           s - int(np.searchsorted(sign_rows, r)), r, reason)
    f[rows] = np.nan


def _armijo_ascent(p, x, to_point, direction, step, max_iters, tol, name, sign_rows, cut,
                   settles=True):
    """Backtracking gradient ascent of |p|^2, one start per row of x.

    ``to_point`` maps states to the points p is evaluated at,
    ``direction(z, f, val, partials)`` gives each row's ascent direction and
    its squared norm, and ``step(x, alphas, d)`` gives, for candidate rows of
    states x and directions d (fresh arrays it may overwrite) and one step
    size each, the candidate states with a mask of the usable ones (True:
    all).  ``sign_rows`` gives each row's sign row (0 for one polynomial),
    sorted.  Each row keeps its own line search over the steps _ALPHAS (0.5,
    halving, Armijo constant 1e-4), which its first event settles: a step
    that passes is taken, a non-finite candidate value discards the row.
    Each row has its own stop: zero gradient, no passing step, a relative
    gain below tol, or max_iters.  A pass evaluates the candidates of all
    searching rows together, each row's in a contiguous run.  The first pass
    of a row's step covers the steps down to 2 past the deepest one any row
    of its sign row took in the step before (8 steps on the first step, at
    most 24), so that one pass usually settles every row, and a deep row of
    one sign row does not widen the passes of another; rows still searching
    go on in passes of 8 steps, which change only the cost, not the events.
    A discarded row, or one whose direction turns non-finite, gets a warning
    and |p|^2 NaN.  The ``cut`` (see _Cut) drops the rows of sign rows it
    stopped before, then rows after the first iteration's gradients and
    discards and at the top of each later iteration; ``settles`` says no
    stage follows, so rows that stop are done for good.
    Returns (points, |p|^2, iterations per row); x ends at the final states.
    """
    z = to_point(x)
    f = np.abs(evaluate_many(p, z, sign_rows)) ** 2
    num = len(x)
    width = np.full(int(sign_rows.max(initial=0)) + 1, _LS_CHUNK)  # first-pass width per sign row
    iters = np.zeros(num, dtype=np.int64)
    live = np.arange(num)
    if not cut.off:  # the sign rows a burn-in stopped stay stopped
        live = live[~cut.stopped[live // cut.starts]]
    for it in range(max_iters):
        if it and not cut.off:
            live = live[cut(live, f, settles)]
        if not live.size:
            break
        iters[live] += 1
        z_live, f_live = z[live], f[live]
        val, partials = value_and_partials(p, z_live, sign_rows[live])
        d, gn2 = direction(z_live, f_live, val, partials)
        finite = np.isfinite(gn2)
        if not finite.all():
            _discard(p, f, live[~finite], f"non-finite gradient in {name}", sign_rows)
        searching = finite & (gn2 != 0.0)
        if not (it or cut.off):  # no row is cut before its first gradient is checked
            searching &= cut(live, f, settles)
        live, d, gn2, f_live = live[searching], d[searching], gn2[searching], f_live[searching]
        if not live.size:
            continue
        moving, deepest = [live[:0]], np.zeros(len(width), dtype=np.intp)
        lo, hi = 0, width[sign_rows[live]]
        while True:
            counts = hi - lo  # each row's run of step indices lo..hi-1 (never empty)
            owner = np.repeat(np.arange(live.size), counts)
            first = np.cumsum(counts) - counts
            flat = np.arange(len(owner))
            step_idx = flat - (first - lo)[owner]
            alphas, src = _ALPHAS[step_idx], live[owner]
            cands, usable = step(x[src], alphas, d[owner])
            points = to_point(cands)
            fs = np.abs(evaluate_many(p, points, sign_rows[src])) ** 2
            fs = np.where(usable, fs, -1.0)
            # a row settles at its first non-finite value (discarded) or passing step (taken)
            bad = ~np.isfinite(fs)
            event = bad | (fs >= f_live[owner] + ARMIJO * alphas * gn2[owner])
            pick = np.minimum.reduceat(np.where(event, flat, len(fs)), first)
            settled = pick < len(fs)
            failed = np.append(bad, False)[pick]  # an unsettled row's pick reads the False
            if failed.any():
                _discard(p, f, live[failed], "non-finite objective in line search", sign_rows)
            took = (settled & ~failed).nonzero()[0]
            pick = pick[took]
            rows, f_new = live[took], fs[pick]
            gain = (f_new - f_live[took]) / np.maximum(f_new, 1e-300)
            x[rows], z[rows], f[rows] = cands[pick], points[pick], f_new
            del cands, points  # the pass's largest arrays: freed before the next is made
            moving.append(rows[gain >= tol])
            np.maximum.at(deepest, sign_rows[rows], step_idx[pick])
            if settled.all():
                break
            searching = ~settled & (hi < len(_ALPHAS))
            live, d, gn2, f_live = live[searching], d[searching], gn2[searching], f_live[searching]
            if not live.size:
                break
            lo = hi[searching]
            hi = np.minimum(lo + _LS_CHUNK, len(_ALPHAS))
        width = np.minimum(deepest + 3, _LS_FIRST_MAX)
        live = np.sort(np.concatenate(moving))  # sorted sign rows make long kernel runs
    return z, f, iters


def _phase_ascent(p, theta, max_iters, tol, sign_rows, cut):
    """Ascent of |p(e^{i theta})|^2 over the torus, one start per row of theta.

    Each row takes gradient steps (_armijo_ascent) until its relative gain
    falls below NEWTON_SWITCH, then damped Newton steps (_newton_finish)
    until it falls below tol; both stages count against max_iters.
    """
    def direction(z, f, val, partials):
        grad = -2.0 * np.imag(np.conj(val)[:, None] * partials * z)
        return grad, (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]  # each row's BLAS dot

    def step(theta, alphas, grad):
        grad *= alphas[:, None]
        grad += theta
        del theta  # the gathered states: freed before the points are made
        return grad, True

    newton = tol < NEWTON_SWITCH
    z, f, iters = _armijo_ascent(p, theta, _torus_points, direction, step, max_iters,
                                 max(tol, NEWTON_SWITCH), "phase ascent", sign_rows, cut,
                                 settles=not newton)
    if newton:
        _newton_finish(p, theta, z, f, iters, max_iters, tol, sign_rows, cut)
    return z, f, iters


def _torus_derivatives(p, z, sign_rows=None):
    """Gradient (N, n) and Hessian (N, n, n) of f(theta) = |p(e^{i theta})|^2 at the
    rows of z = e^{i theta}.

    p is multilinear, so with t_B the signed block terms and M the
    block-point incidence, g = z * dp/dz = M^T t and d^2 p / d theta_j
    d theta_l = -(sum of t_B over the blocks through j and l).  With
    w_B = Re(conj(p) t_B): grad f = -2 Im(conj(p) g) and Hess f =
    2 Re(g g^H) - 2 M^T diag(w) M, both sums over blocks taken by the
    kernel plan's point_sums and pair_sums.  Turning every phase by one
    angle leaves f unchanged, so Hess f 1 = 0 and grad f . 1 = 0.
    """
    plan = p.kernel_plan()
    terms = block_terms(p, z, sign_rows)
    val = terms.sum(axis=1)
    g = plan.point_sums(terms)
    grad = -2.0 * np.imag(np.conj(val)[:, None] * g)
    w = val.real[:, None] * terms.real + val.imag[:, None] * terms.imag
    del terms
    hess = g.real[:, :, None] * g.real[:, None, :]
    hess += g.imag[:, :, None] * g.imag[:, None, :]
    hess -= plan.pair_sums(w)
    hess *= 2.0
    return grad, hess


def _solve_rows(a, b):
    """x with a[i] x[i] = b[i] for each row i; an exactly singular a[i] gives x[i] = 0."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(b)
        return np.concatenate([_solve_rows(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _newton_steps(grad, hess, mu):
    """Each row's damped Newton step d: (mu I - H) d = grad with d_0 = 0, since H 1 = 0
    leaves theta_0 free; hess is overwritten.  A row with a non-finite gradient or
    Hessian gets NaN."""
    a = hess[:, 1:, 1:]
    a *= -1.0
    diag = np.arange(a.shape[1])
    a[:, diag, diag] += mu[:, None]
    ok = np.isfinite(grad).all(axis=1) & np.isfinite(a).all(axis=(1, 2))
    d = np.zeros_like(grad)
    d[ok, 1:] = _solve_rows(a[ok], grad[ok, 1:])
    d[~ok] = np.nan
    return d


def _newton_finish(p, theta, z, f, iters, max_iters, tol, sign_rows, cut):
    """Damped Newton (Levenberg-Marquardt) ascent of |p(e^{i theta})|^2 from each row's
    state, updating theta, z = e^{i theta}, f = |p(z)|^2 and iters in place.

    Every row with budget left and a finite f takes steps d from
    _newton_steps with its own damping mu, which starts at f.  A row takes
    the step when f(theta + d) >= max(f, f + ARMIJO grad f . d), and then
    mu <- mu / 4; otherwise it stays and mu <- 4 mu.  A row stops at a zero
    gradient, at a step taken with a relative gain below tol, or when its
    iterations (one per step tried, added to its earlier ones) reach
    max_iters.  A row whose step or candidate value turns non-finite is
    discarded with a warning.  The Hessians are built and solved in the
    kernels' row tiles, of about TILE_MONOMIALS entries per (rows, n, n) array.
    The ``cut`` (see _Cut) drops rows at the top of each pass.
    """
    n = p.n
    mu = f.copy()
    live = np.flatnonzero(~np.isnan(f) & (iters < max_iters))
    while True:
        live = live if cut.off else live[cut(live, f, settled=True)]
        if not live.size:
            break
        iters[live] += 1
        grad, d = np.empty((len(live), n)), np.empty((len(live), n))
        for tile in row_tiles(len(live), n * n):
            rows = live[tile]
            grad[tile], hess = _torus_derivatives(p, z[rows], sign_rows[rows])
            d[tile] = _newton_steps(grad[tile], hess, mu[rows])
            del hess  # the tile's largest array: freed before the next is made
        slope = (grad[:, None, :] @ d[:, :, None])[:, 0, 0]  # each row's BLAS dot
        finite = np.isfinite(slope)
        if not finite.all():
            _discard(p, f, live[~finite], "non-finite gradient in phase ascent", sign_rows)
        searching = finite & (grad != 0.0).any(axis=1)
        live, d, slope = live[searching], d[searching], slope[searching]
        cands = theta[live] + d
        points = _torus_points(cands)
        f_live = f[live]
        fs = np.abs(evaluate_many(p, points, sign_rows[live])) ** 2
        bad = ~np.isfinite(fs)
        if bad.any():
            _discard(p, f, live[bad], "non-finite objective in Newton step", sign_rows)
        took = fs >= np.maximum(f_live, f_live + ARMIJO * slope)
        mu[live] *= np.where(took, 0.25, 4.0)
        gain = (fs - f_live) / np.maximum(fs, 1e-300)
        rows = live[took]
        theta[rows], z[rows], f[rows] = cands[took], points[took], fs[took]
        live = live[~bad & ~(took & (gain < tol)) & (iters[live] < max_iters)]


def _torus_points(theta):
    """e^{i theta}, with the exponential taken in place: one complex array per pass."""
    z = 1j * theta
    return np.exp(z, out=z)


def _qnorm_rows(points: np.ndarray, q) -> np.ndarray:
    mods = np.abs(points)
    mods **= q  # in place: the moduli of a line-search pass are its largest temporary
    return mods.sum(axis=1) ** (1.0 / q)


def _sphere_ascent(p, z, q, max_iters, tol, sign_rows, cut):
    """Ascent of the scale-invariant |p(z)|^2 / ||z||_q^{2k}, one start per row.

    The search direction is the gradient of the quotient, which vanishes at
    constrained critical points on the q-sphere; every candidate step is
    renormalized onto the sphere.
    """
    def direction(z, f, val, partials):
        # conjugate of the packing 2 p conj(dp) of (df/dx, df/dy): a known defect (ROADMAP)
        grad_f = (2.0 * np.conj(val))[:, None] * partials
        # the gradient z_j |z_j|^{q-2} of ||z||_q at unit rows, moduli clamped below for q < 2
        mods = np.abs(z)
        normal = z * np.maximum(mods, 1e-12) ** (q - 2.0)
        normal[mods == 0.0] = 0.0
        d = grad_f - (2.0 * p.k * f)[:, None] * normal
        return d, np.sum(d.real ** 2 + d.imag ** 2, axis=1)

    def step(z, alphas, d):
        d *= alphas[:, None]
        d += z
        del z  # the gathered states: freed before the norms are taken
        norms = _qnorm_rows(d, q)
        usable = norms > 0.0
        d /= np.where(usable, norms, 1.0)[:, None]  # in place: no masked copies
        return d, usable

    z = z / qnorm(z, q)[:, None]
    return _armijo_ascent(p, z, lambda z: z, direction, step, max_iters, tol, "sphere ascent",
                          sign_rows, cut)


def _qnorm_error(q, n):
    """A-priori bound on the relative rounding of qnorm on n coordinates, u = 2^-53.

    A modulus rounds by at most 4u (libm's hypot: 2u), the whole at q = inf.
    At finite q add u each for the division by the largest modulus and the
    last product, 2u for the root and 2u / q for each power (libm's pow),
    u ln(n) / q for the rounded 1/q, and (n - 1) u / q for the sum of the
    powers, each at most 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1): the bound keeps (4 + 1/q) u for second order.
    """
    u = 2.0 ** -53
    return 4 * u if q == inf else (12 + (n + 2 + log(max(n, 1))) / q) * u


def _certified(p, witness, q):
    """(inside, values) at witness rows (R, n), one per sign row for a family.

    A row is inside the closed unit q-ball when its computed q-norm is at
    most 1 - _qnorm_error(q, n).  Its value is a lower bound of |p| there
    in IEEE-754 arithmetic: the fsum S of the signed terms t_J is within
    3 k u sum |t_J| + k m 2^-1073 of p, since each of a term's k - 1 complex
    products rounds by at most sqrt(2) gamma_2 < 2.83u (Higham, 3.6), fsum
    rounds correctly, and an underflow adds at most 2^-1074; the margin to
    3u covers the rounding of the computed sum |t_J| for m below 10^14.
    |S|, by Python's abs, is lowered by 5u for its own rounding and the
    subtraction's.
    """
    u = 2.0 ** -53
    inside = qnorm(witness, q) <= 1.0 - _qnorm_error(q, p.n)
    sums = np.atleast_1d(evaluate_compensated(p, witness if p.is_family else witness[0]))
    terms = block_terms(p, witness, np.arange(len(witness)))
    slack = 3 * p.k * u * np.abs(terms).sum(axis=1) + p.k * p.num_terms * 2.0 ** -1073
    values = [max(0.0, abs(complex(s)) * (1.0 - 5 * u) - e) for s, e in zip(sums, slack.tolist())]
    return inside, np.array(values)


def _certify(p, witness, q, method, starts, iterations, seed):
    """NormEstimate of p at its witness rows (R, n): one for one polynomial, one per sign
    row of a family, whose seeds are (R,).  Each row is scaled by (1 - 3e - 4u) over its
    computed q-norm, e = _qnorm_error(q, n); with the 2u of the division and product,
    its computed norm is then at most (1 - 3e - 4u)(1 + 2u)(1 + e) / (1 - e) <= 1 - e."""
    shrink = 1.0 - 3.0 * _qnorm_error(q, p.n) - 4 * 2.0 ** -53
    nrm = qnorm(witness, q)
    witness = witness * (shrink / np.where(nrm > 0.0, nrm, 1.0))[:, None]
    inside, values = _certified(p, witness, q)
    if not inside.all():
        raise ConvergenceError("a scaled witness lies outside the unit q-ball")
    q = float(q) if q != inf else inf
    if p.is_family:
        return NormEstimate(values, q, witness, method, starts, iterations, tuple(seed))
    return NormEstimate(float(values[0]), q, witness[0], method, starts, iterations, seed)


def estimate_norm(p: SteinerPolynomial, q, starts: int = Budgets.starts,
                  max_iters: int = Budgets.iters, tol: float = Budgets.tol,
                  seed=0, ceiling=None) -> NormEstimate:
    """Best witness over ``starts`` runs of projected gradient ascent.

    For q = inf the ascent runs over phase vectors z_j = e^{i theta_j} (the
    maximum modulus principle puts the optimum on the torus), with gradient
    steps until a start's relative gain falls below NEWTON_SWITCH and damped
    Newton steps on the closed-form torus Hessian after that; for finite q
    over the complex unit q-sphere (homogeneity puts it on the sphere).
    Start s uses the derived seed (seed, "start", s).  The starts advance
    together, as the rows of one array, so each step costs one batched
    kernel call; every row keeps its own line search or damping, stop rule
    and iteration count, and computes to the bit what it would compute
    alone.  So with ``ceiling=None`` enlarging ``starts`` keeps all earlier
    starts and the result is nondecreasing.  A start whose values turn
    non-finite is discarded with a warning; if all are, ConvergenceError is
    raised.

    A family p (signs of shape (R, m)) takes one seed per sign row, and its
    R * starts rows run as one batch: with ``ceiling=None``, row r computes
    exactly what ``estimate_norm(SteinerPolynomial(p.system, p.signs[r]),
    q, starts, max_iters, tol, seed[r])`` computes, and the NormEstimate
    holds one value and witness per row (see NormEstimate).

    One polynomial runs as a family of one sign row, and every call has a
    cut (_Cut), off without a ``ceiling``.  A ceiling, the smallest value
    of sign rows scored before, is for a caller that wants only the sign
    row of smallest full-budget value: the cut stops the starts of a sign
    row once rounding bounds show that its value will exceed the ceiling or
    a finished sign row's value.  Every sign row it does not stop computes
    exactly what it computes with ``ceiling=None``; a stopped one is
    certified at its best point so far, a certified lower bound above that
    bound rather than its full-budget value.  Iterations count the steps
    taken.
    """
    _check_q(q)
    if starts < 1:
        raise DomainError(f"starts={starts} must be >= 1")
    if p.is_family:
        if np.ndim(seed) != 1 or len(seed) != len(p.signs):
            raise DomainError(f"a family of {len(p.signs)} sign rows needs as many seeds, "
                              f"got {seed!r}")
        seed = [int(s) for s in seed]
    seeds = seed if p.is_family else [seed]
    n, num = p.n, len(seeds)
    total = starts * num
    if p.num_terms == 0:
        witness = np.zeros((num, n), dtype=np.complex128)
        witness[:, :n if q == inf else 1] = 1.0  # a point of the torus, or e_0
        return _certify(p, witness, q, "trivial", total, 0, seed)

    rngs = [rng_for(s, "start", i) for s in seeds for i in range(starts)]
    sign_rows = np.repeat(np.arange(num), starts)  # all 0 for one polynomial
    cut = _Cut(p, q, ceiling, num, starts)
    if q == inf:
        z0 = np.exp(1j * np.array([rng.uniform(0.0, 2.0 * np.pi, size=n) for rng in rngs]))
        theta = np.angle(_align_burnin(p, z0, q, sign_rows, cut))
        points, f, iters = _phase_ascent(p, theta, max_iters, tol, sign_rows, cut)
    else:
        z0 = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for rng in rngs])
        if q > 1:
            z0 = _align_burnin(p, z0 / qnorm(z0, q)[:, None], q, sign_rows, cut)
        points, f, iters = _sphere_ascent(p, z0, q, max_iters, tol, sign_rows, cut)
    f = f.reshape(num, starts)
    kept = ~np.isnan(f)  # discarded starts hold NaN
    if not kept.any(axis=1).all():
        where = f" of sign row {int(np.argmin(kept.any(axis=1)))}" if p.is_family else ""
        raise ConvergenceError(f"all {starts} ascent starts{where} produced non-finite values")
    best = np.arange(num) * starts + np.nanargmax(f, axis=1)
    return _certify(p, points[best], q, "multistart_ascent", total,
                    int(iters[kept.reshape(-1)].sum()), seed)


def best_of_signs(system: PartialSteinerSystem, q, rounds: int, seed: int,
                  budgets: Budgets | None = None):
    """Smallest estimated q-norm among ``rounds`` seeded random sign draws.

    Returns (polynomial, estimate).  Every round is scored with the search
    settings of ``budgets`` (default ``Budgets()``), and the estimate is
    recomputed for the winning pattern with its ``starts``, ``iters`` and
    ``tol``.  Round r draws its signs with seed derive_seed(seed, "round", r)
    and is scored with seed derive_seed(seed, "search", r), so the candidate
    set and every score are independent of evaluation order; ties go to the
    lowest round index.  The rounds are scored as families of
    ``budgets.starts // budgets.search_starts`` sign rows (at least one), one
    estimate_norm call each: two calls of 16 rounds at the defaults.

    Each call takes the smallest score so far as its ``ceiling`` (inf for
    the first), so it stops a round once rounding bounds show that its
    score will exceed that one or a finished round's of the same call.  The
    winner, its score and the final estimate are those of scoring every
    round in full; a stopped round's score is a certified lower bound above
    the winner's, not its full-budget score.
    """
    if rounds < 1:
        raise DomainError(f"rounds={rounds} must be >= 1")
    budgets = budgets or Budgets()
    per_family = max(1, budgets.starts // budgets.search_starts)
    signs, scores = [], []
    for lo in range(0, rounds, per_family):
        batch = range(lo, min(lo + per_family, rounds))
        signs += [random_signs(system, derive_seed(seed, "round", r)) for r in batch]
        est = estimate_norm(SteinerPolynomial(system, np.stack(signs[lo:])), q,
                            starts=budgets.search_starts, max_iters=budgets.search_iters,
                            tol=SEARCH_TOL, seed=[derive_seed(seed, "search", r) for r in batch],
                            ceiling=min(scores, default=inf))
        scores += est.value.tolist()
    best = int(np.argmin(scores))  # the first minimum: ties go to the lowest round
    poly = SteinerPolynomial(system, signs[best])
    final = estimate_norm(poly, q, starts=budgets.starts, max_iters=budgets.iters,
                          tol=budgets.tol, seed=derive_seed(seed, "final", best))
    return poly, final


def recertify(p: SteinerPolynomial, est: NormEstimate) -> bool:
    """Independent check of both NormEstimate invariants: every witness row is inside the
    closed unit q-ball, and the value is the certified lower bound recomputed at it, to a
    relative 1e-10 (see _certified).

    A family's estimate passes only if every sign row's does.
    """
    inside, values = _certified(p, np.atleast_2d(est.witness), est.q)
    return bool(inside.all() and np.all(np.abs(values - est.value)
                                        <= 1e-10 * np.maximum(1.0, np.abs(est.value))))


# ---------------------------------------------------------------------------
# Brute-force oracle (tests only)
# ---------------------------------------------------------------------------

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
            digits = np.unravel_index(ranks, (resolution,) * dim)[::-1]  # phase 1 varies fastest
            thetas[:, 1:] = np.stack(digits, axis=1) * (2.0 * np.pi / resolution)
            vals = np.abs(evaluate_many(p, np.exp(1j * thetas)))
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_theta = float(vals[j]), thetas[j]
        theta, _ = _local_phase_refine(p, best_theta, 2.0 * np.pi / resolution)
        return _certify(p, np.exp(1j * theta)[None], q, "grid_oracle", total, 0, 0)

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
    return _certify(p, z[None], q, "grid_oracle", ORACLE_SAMPLES, 0, 0)


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
