import hashlib
import logging
import math
from math import factorial, inf, log

import numpy as np
import pytest

from steinervn import norms
from steinervn.designs import PartialSteinerSystem, greedy_construct, skolem_construct
from steinervn.errors import ConvergenceError, DomainError
from steinervn.norms import (SEARCH_TOL, NormEstimate, analytic_bounds, brute_force_norm,
                             estimate_norm, ksz_polydisk_bound, polarization_constant,
                             qnorm, recertify)
from steinervn.polynomials import SteinerPolynomial, random_signs, value_and_partials
from steinervn.seeding import derive_seed


def single_block(k=3):
    system = PartialSteinerSystem(k, k, k - 1, (tuple(range(k)),))
    return SteinerPolynomial(system, np.array([1]))


def seeded_poly(n, k, seed):
    system = greedy_construct(n, k, seed)
    return SteinerPolynomial(system, random_signs(system, derive_seed(seed, "p")))


# ---------------------------------------------------------------------------
# estimate_norm
# ---------------------------------------------------------------------------

def test_single_block_qinf():
    est = estimate_norm(single_block(), inf, starts=8, seed=0)
    assert abs(est.value - 1.0) <= 1e-9


def test_single_block_q1():
    # AM-GM: the l1 budget splits equally, value (1/3)^3
    est = estimate_norm(single_block(), 1.0, starts=8, seed=0)
    assert abs(est.value - 1 / 27) <= 1e-7


def test_single_block_q2():
    est = estimate_norm(single_block(), 2.0, starts=8, seed=0)
    assert abs(est.value - 3 ** -1.5) <= 1e-7


def test_estimate_deterministic():
    p = seeded_poly(9, 3, 1)
    a = estimate_norm(p, 2.0, starts=6, seed=3)
    b = estimate_norm(p, 2.0, starts=6, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def test_estimate_monotone_in_starts():
    p = seeded_poly(10, 3, 2)
    values = [estimate_norm(p, inf, starts=s, seed=5).value for s in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_estimate_witness_invariants():
    for q in (1.0, 2.0, 3.0, inf):
        p = seeded_poly(8, 3, 4)
        est = estimate_norm(p, q, starts=4, seed=1)
        assert qnorm(est.witness, q) <= 1.0
        assert recertify(p, est)


def test_estimate_rejects_bad_q():
    with pytest.raises(DomainError):
        estimate_norm(single_block(), 0.5, starts=1, seed=0)
    with pytest.raises(DomainError):
        estimate_norm(single_block(), 2.0, starts=0, seed=0)


def test_estimate_empty_polynomial():
    p = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros(0, dtype=np.int8))
    est = estimate_norm(p, 2.0, starts=4, seed=0)
    assert est.value == 0.0
    assert est.method == "trivial"


def test_l1_ceiling_random_polynomials():
    # any Steiner unimodular polynomial obeys the 1/k! ceiling on the l1 ball
    for seed in range(10):
        k = 3 if seed % 2 else 4
        p = seeded_poly(12, k, seed)
        est = estimate_norm(p, 1.0, starts=4, max_iters=400, seed=seed)
        assert est.value <= 1.0 / factorial(k) + 1e-9


def test_matching_polynomials_q2_half():
    # 2-homogeneous matching polynomials stay at or below 1/2 on the l2 ball
    for seed in range(6):
        system = greedy_construct(12 + seed, 2, seed)
        p = SteinerPolynomial(system, random_signs(system, seed))
        est = estimate_norm(p, 2.0, starts=8, seed=seed)
        assert est.value <= 0.5 + 1e-9


# estimate_norm(seeded_poly(n, k, s), q, starts=5, max_iters=300, seed=7) as
# computed by the one-start-at-a-time ascent that the batched one replaced, and
# at q = inf with the Newton stage that finishes each start:
# ((n, k, s), q, value, iterations, witness to 10 decimals).
PINNED_ESTIMATES = [
    ((9, 3, 1), 1.0, 0.009562571953574123, 623,
     [0.0643030642+0.0036339219j, -0.0244463320-0.0320536219j, -0.1609636748+0.0049101028j,
      -0.0265653723-0.0609014719j, 0.2319863328-0.0260112607j, 0.1166735432+0.0103438342j,
      0.0287875227+0.0250339745j, -0.1879176976-0.1089310121j, 0.0184077767-0.0590702825j]),
    ((9, 3, 1), 1.5, 0.1058364294931255, 316,
     [0.2544141606+0.0000041444j, -0.2535407157+0.0000000723j, -0.2555623597-0.0000040044j,
      -0.0000083204+0.0002902447j, 0.3747834041-0.0000000013j, 0.2547065405-0.0000001975j,
      0.2540925836+0.0000002270j, -0.2549567594+0.0000081062j, 0.0000083015+0.0002902902j]),
    ((9, 3, 1), 2.0, 0.3752524513070947, 5,
     [0.0695294316-0.2993073711j, -0.1583623243+0.3410552519j, 0.2939728162-0.0894406982j,
      -0.2656043849+0.1642284458j, -0.0695291209+0.2993067885j, 0.2161815854+0.3076734164j,
      0.2656049664-0.1642286524j, 0.2161816206+0.3076735302j, 0.2750271845+0.1479065991j]),
    ((9, 3, 1), 3.0, 1.116762436487943, 5,
     [-0.4492447028-0.0982213808j, 0.4707533363+0.2138268451j, -0.1395616550-0.4381675654j,
      0.2477110866+0.3885985645j, 0.4492448252+0.0982208689j, 0.4205560786-0.3007710463j,
      -0.2477106653-0.3885988314j, 0.4205561017-0.3007710061j, 0.2126820116-0.4088226813j]),
    ((9, 3, 1), inf, 9.931597068077563, 10,
     [0.9891073090-0.1471962341j, 0.1570114385-0.9875967842j, 0.6220295031+0.7829938041j,
      -0.5952872140+0.8035129949j, 0.6220297838+0.7829935811j, -0.7767781849-0.6297742861j,
      -0.9935062121-0.1137778824j, -0.1570114399+0.9875967840j, 0.9935062527+0.1137775277j]),
    ((10, 4, 2), 1.0, 0.0010894997210690962, 1201,
     [0.0129694624-0.0601338801j, -0.0211338347+0.0016796853j, -0.1105899637-0.0869447866j,
      -0.0206264848-0.0318727712j, 0.1871591047+0.0549352660j, 0.0669875702+0.0322403886j,
      -0.0551492387-0.1060401898j, -0.1539317471-0.0776088616j, 0.0058250056-0.1334773171j,
      -0.0336344873+0.0279438143j]),
    ((10, 4, 2), 1.5, 0.021576788964503754, 467,
     [-0.0908344468-0.2181101252j, -0.0542582814-0.0322315723j, -0.1470755183-0.0220324549j,
      0.0592056914+0.0160520525j, 0.2200934254-0.0176425641j, 0.1720608472-0.0079162622j,
      -0.3754999389-0.2528646222j, -0.3304696359-0.0449969949j, -0.0410989887-0.1838136772j,
      -0.0955221962+0.0757664639j]),
    ((10, 4, 2), 2.0, 0.16387589541388708, 6,
     [0.2863901082+0.1653170612j, 0.0458470014+0.3252551535j, -0.2701142360+0.1816974225j,
      -0.2416183639+0.1803471919j, -0.0566718015+0.2908449149j, -0.1085124164+0.3342832904j,
      0.0520742234+0.3120135620j, -0.1335172369+0.2201322927j, 0.2628870977-0.1542910795j,
      -0.3333354419-0.0646378261j]),
    ((10, 4, 2), 3.0, 0.7558955997388993, 5,
     [0.4370544192+0.1906402447j, 0.0826807286+0.4657688404j, -0.3753059876+0.2881479165j,
      -0.3224102899+0.3113637445j, -0.0681913392+0.4428689969j, -0.1233459231+0.4731576496j,
      0.0806682015+0.4620746618j, -0.2067087206+0.3680327055j, 0.3835830122-0.2465396982j,
      -0.4745558447-0.0624116243j]),
    ((10, 4, 2), inf, 16.178815032124366, 25,
     [-0.1885483753-0.9820639033j, 0.7416905593-0.6707422114j, 0.9400093840+0.3411485865j,
      0.9856952610+0.1685373921j, 0.9170028976-0.3988805408j, 0.9519988768-0.3061015168j,
      0.7647626533-0.6443121015j, 0.9980141331-0.0629903968j, -0.9000266972-0.4358347672j,
      0.4289986207+0.9033051441j]),
]


@pytest.mark.parametrize("poly, q, value, iterations, witness", PINNED_ESTIMATES)
def test_estimate_matches_pinned_single_start_ascent(poly, q, value, iterations, witness):
    est = estimate_norm(seeded_poly(*poly), q, starts=5, max_iters=300, seed=7)
    assert abs(est.value - value) <= 1e-12 * value
    assert est.iterations == iterations
    assert np.abs(est.witness - np.array(witness)).max() <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_burnin_below_q2_keeps_rows_whose_norm_underflows():
    # At q = 1.5 on this packing every start's |p| falls to 0 within the alignment
    # steps, and the q-norm of an aligned point goes subnormal or NaN; dividing by
    # it overflowed.  The pinned estimate must come out the same, without a warning.
    test_estimate_matches_pinned_single_start_ascent(*PINNED_ESTIMATES[6])


# estimate_norm at the default Budgets on STS(25) at q = inf and on STS(49) at
# q = 2, two sign patterns each, pinned to the bit: (n, q, seed, value.hex(),
# iterations, first 16 hex digits of the SHA-256 of the witness's bytes).  A
# change to the line search or the kernels that moves one accepted step moves
# these, and so does one accepted Newton step at q = inf or a change to the
# certificate rule (the scaling of the witness and the rounding bound taken off
# its value).  Computed with numpy's bundled OpenBLAS on x86-64.
PINNED_DEFAULT_ESTIMATES = [
    (25, inf, 0, "0x1.fce44b065abb0p+5", 918, "a1a704e62b5f106f"),
    (25, inf, 1, "0x1.f124fb01d6eefp+5", 1089, "c6e43cb4b02ccc6a"),
    (49, 2.0, 0, "0x1.2d228fecc0f21p-1", 347, "381ae63c07a6eea2"),
    (49, 2.0, 1, "0x1.2f6249e1ba009p-1", 189, "f4ffc1bde2b39318"),
]


@pytest.mark.parametrize("n, q, seed, value, iterations, witness", PINNED_DEFAULT_ESTIMATES)
def test_default_budget_estimate_is_pinned_to_the_bit(n, q, seed, value, iterations, witness):
    system = skolem_construct(n)
    est = estimate_norm(SteinerPolynomial(system, random_signs(system, seed)), q, seed=seed)
    assert (est.value.hex(), est.iterations) == (value, iterations)
    assert hashlib.sha256(est.witness.tobytes()).hexdigest()[:16] == witness


def phase_gradient(p, z):
    """grad_theta |p(e^{i theta})|^2 = -2 Im(conj(p) z dp/dz) at each row of z."""
    val, partials = value_and_partials(p, z)
    return -2.0 * np.imag(np.conj(val)[:, None] * partials * z)


@pytest.mark.parametrize("system", [skolem_construct(13), greedy_construct(10, 4, 2)],
                         ids=["sts13", "greedy10-4"])
def test_torus_hessian_matches_central_differences(system):
    p = SteinerPolynomial(system, random_signs(system, 5))
    theta = np.random.default_rng(21).uniform(0.0, 2.0 * np.pi, (3, p.n))
    grad, hess = norms._torus_derivatives(p, np.exp(1j * theta))
    assert np.abs(grad - phase_gradient(p, np.exp(1j * theta))).max() <= 1e-13 * np.abs(grad).max()
    h, scale = 1e-5, np.abs(hess).max()
    for j in range(p.n):
        step = np.zeros(p.n)
        step[j] = h
        up = np.abs(norms.evaluate_many(p, np.exp(1j * (theta + step)))) ** 2
        down = np.abs(norms.evaluate_many(p, np.exp(1j * (theta - step)))) ** 2
        assert np.abs(grad[:, j] - (up - down) / (2 * h)).max() <= 1e-6 * np.abs(grad).max()
        column = (phase_gradient(p, np.exp(1j * (theta + step)))
                  - phase_gradient(p, np.exp(1j * (theta - step)))) / (2 * h)
        assert np.abs(hess[:, :, j] - column).max() <= 1e-6 * scale, j
    # turning every phase by one angle leaves |p| unchanged: H 1 = 0 and grad . 1 = 0
    assert np.abs(hess.sum(axis=2)).max() <= 1e-13 * scale
    assert np.abs(grad.sum(axis=1)).max() <= 1e-13 * np.abs(grad).max()


def reference_block_sums(p, terms, w):
    """g = M^T t and M^T diag(w) M, added block by block in ascending block order."""
    g = np.zeros((len(terms), p.n), dtype=complex)
    cross = np.zeros((len(terms), p.n, p.n))
    for b, block in enumerate(p.system.blocks):
        for j in block:
            g[:, j] += terms[:, b]
            for l in block:
                cross[:, j, l] += w[:, b]
    return g, cross


@pytest.mark.parametrize("system, rows", [
    (skolem_construct(13), None), (greedy_construct(10, 4, 2), None),
    (skolem_construct(13), 3), (PartialSteinerSystem(4, 3, 2, ()), None)],
    ids=["sts13", "greedy10-4", "sts13-family", "empty"])
def test_torus_gather_tables_sum_in_block_order(system, rows):
    # the incidence() tables list each point's and each ordered pair's blocks in
    # ascending order, and the Hessian's sums over them equal, to the bit, the
    # sums a sparse incidence product forms: one block after another, in order
    signs = (random_signs(system, 5) if rows is None
             else np.stack([random_signs(system, s) for s in range(rows)]))
    p = SteinerPolynomial(system, signs)
    points, pairs = p.kernel_plan().incidence()
    m = system.num_blocks
    for j in range(p.n):
        through = [b for b, block in enumerate(system.blocks) if j in block]
        assert points[:, j].tolist() == through + [m] * (len(points) - len(through))
        for l in range(p.n):
            both = [b for b in through if l in system.blocks[b] and l != j]
            assert pairs[:, j, l].tolist() == both + [m] * (len(pairs) - len(both))
    theta = np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, (7, p.n))
    sign_rows = None if rows is None else np.arange(7) % rows
    terms = norms.block_terms(p, np.exp(1j * theta), sign_rows)
    val = terms.sum(axis=1)
    w = val.real[:, None] * terms.real + val.imag[:, None] * terms.imag
    g, cross = reference_block_sums(p, terms, w)
    plan = p.kernel_plan()
    assert np.array_equal(plan.point_sums(terms), g)
    off, diag = plan.pair_sums(w), plan.point_sums(w)
    assert np.array_equal(diag, np.diagonal(cross, axis1=1, axis2=2))
    off[:, np.arange(p.n), np.arange(p.n)] = diag
    assert np.array_equal(off, cross)
    grad, hess = norms._torus_derivatives(p, np.exp(1j * theta), sign_rows)
    assert np.array_equal(grad, -2.0 * np.imag(np.conj(val)[:, None] * g))
    expected = g.real[:, :, None] * g.real[:, None, :]
    expected += g.imag[:, :, None] * g.imag[:, None, :]
    expected -= cross
    assert np.array_equal(hess, 2.0 * expected)


def test_newton_solve_gives_an_exactly_singular_row_a_zero_step():
    # mu can underflow to 0 after many accepted steps, and a point in no block
    # leaves a zero row in mu I - H; np.linalg.solve raises for the whole stack
    a = np.stack([2.0 * np.eye(3), np.diag([1.0, 0.0, 1.0]), np.eye(3)])
    b = np.ones((3, 3))
    assert np.array_equal(norms._solve_rows(a, b), [[0.5] * 3, [0.0] * 3, [1.0] * 3])


def test_qinf_witness_is_stationary():
    # the Newton stage runs each start to a critical point of |p|^2 on the torus
    for n in (25, 49):
        system = skolem_construct(n)
        for pat in range(3):
            p = SteinerPolynomial(system, random_signs(system, derive_seed(pat, "grid")))
            est = estimate_norm(p, inf, seed=pat)
            residual = np.linalg.norm(phase_gradient(p, est.witness[None])) / est.value ** 2
            assert residual <= 1e-7, (n, pat, residual)


def poison_start(monkeypatch, p, q, seed, bad):
    """Make value_and_partials non-finite at the starting points of the starts in ``bad``.

    A row is poisoned while it is within 1e-9 of such a start (before or
    after its normalization and burn-in, which then leaves it in place), so
    only those starts can turn non-finite.
    """
    marks = []
    for s in bad:
        rng = norms.rng_for(seed, "start", s)
        if q == inf:
            marks.append(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=p.n)))
        else:
            z = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
            marks.append(z / qnorm(z, q))
    kernel = norms.value_and_partials

    def poisoned(poly, z, *sign_rows):
        vals, partials = kernel(poly, z, *sign_rows)
        for mark in marks:
            hit = np.abs(z - mark).max(axis=1) <= 1e-9
            vals[hit], partials[hit] = np.nan, np.nan
        return vals, partials

    monkeypatch.setattr(norms, "value_and_partials", poisoned)


@pytest.mark.parametrize("q, where", [(inf, "phase ascent"), (2.0, "sphere ascent")])
def test_nonfinite_start_is_discarded_alone(monkeypatch, caplog, q, where):
    p = seeded_poly(13, 3, 6)
    clean = estimate_norm(p, q, starts=3, max_iters=200, seed=4)
    poison_start(monkeypatch, p, q, seed=4, bad=[3])
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        est = estimate_norm(p, q, starts=4, max_iters=200, seed=4)
    assert [r.getMessage() for r in caplog.records] == [
        f"estimate_norm: start 3 discarded (non-finite gradient in {where})"]
    # the remaining starts are the three of the clean estimate, run unchanged
    assert abs(est.value - clean.value) <= 1e-12 * clean.value
    assert np.abs(est.witness - clean.witness).max() <= 1e-9
    assert est.iterations == clean.iterations


def poison_newton(monkeypatch, where):
    """NaN the last row's Newton step (``where="step"``) or candidate point (``"value"``)
    in the first Newton pass; the gradient stage before it runs clean."""
    steps, points = norms._newton_steps, norms._torus_points
    passes = []

    def newton_steps(grad, hess, mu):
        d = steps(grad, hess, mu)
        passes.append(len(d))
        if where == "step" and len(passes) == 1:
            d[-1] = np.nan
        return d

    def torus_points(theta):
        z = points(theta)
        if where == "value" and len(passes) == 1:
            z[-1] = np.nan
            passes.append(0)  # one candidate pass only
        return z

    monkeypatch.setattr(norms, "_newton_steps", newton_steps)
    monkeypatch.setattr(norms, "_torus_points", torus_points)
    return passes


@pytest.mark.parametrize("where, reason", [("step", "non-finite gradient in phase ascent"),
                                           ("value", "non-finite objective in Newton step")])
def test_nonfinite_newton_start_is_discarded_alone(monkeypatch, caplog, where, reason):
    # the last start is poisoned after its gradient stage: the other three run unchanged
    p = seeded_poly(13, 3, 6)
    clean = estimate_norm(p, inf, starts=3, max_iters=200, seed=4)
    passes = poison_newton(monkeypatch, where)
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        est = estimate_norm(p, inf, starts=4, max_iters=200, seed=4)
    assert passes and passes[0] == 4  # every start reached the Newton stage
    assert [r.getMessage() for r in caplog.records] == [
        f"estimate_norm: start 3 discarded ({reason})"]
    assert est.value.hex() == clean.value.hex()
    assert est.witness.tobytes() == clean.witness.tobytes()
    assert est.iterations == clean.iterations


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_every_q_inf_estimate_ends_in_the_newton_finish(monkeypatch, tol):
    # a tol at or above NEWTON_SWITCH ends the gradient stage at tol, and Newton steps follow
    finish, calls = norms._newton_finish, []

    def counted(*args):
        calls.append(len(args[1]))  # the rows of theta
        return finish(*args)

    monkeypatch.setattr(norms, "_newton_finish", counted)
    p = seeded_poly(13, 3, 6)
    fam, seeds = family(p.system, 3, seed=4)
    estimate_norm(p, inf, starts=4, max_iters=200, tol=tol, seed=4)
    estimate_norm(fam, inf, starts=4, max_iters=200, tol=tol, seed=seeds)
    estimate_norm(fam, 2.0, starts=4, max_iters=200, tol=tol, seed=seeds)
    assert calls == [4, 12]


def test_all_starts_nonfinite_raises(monkeypatch, caplog):
    p = seeded_poly(13, 3, 6)
    poison_start(monkeypatch, p, inf, seed=4, bad=range(3))
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        with pytest.raises(ConvergenceError):
            estimate_norm(p, inf, starts=3, max_iters=200, seed=4)
    assert len(caplog.records) == 3


@pytest.mark.parametrize("poisoned, discarded", [(lambda a: a < 0.5, False),
                                                  (lambda a: a == 0.5, True)],
                         ids=["after the step taken", "at the step taken"])
def test_line_search_discards_only_on_values_up_to_the_step_taken(caplog, poisoned, discarded):
    # a direction short enough that every row takes the first step, 0.5
    p = seeded_poly(13, 3, 6)
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (3, p.n))

    def direction(z, f, val, partials):
        d = -2e-3 * np.imag(np.conj(val)[:, None] * partials * z)
        return d, np.sum(d * d, axis=1) / 1e-3

    def ascent(bad):
        def step(theta, alphas, d):  # one candidate per row, each with its own step
            cands = theta + alphas[:, None] * d
            cands[bad(alphas)] = np.nan
            return cands, True

        return norms._armijo_ascent(p, theta.copy(), lambda t: np.exp(1j * t), direction, step,
                                    5, 1e-10, "test", norms._Cut(p, inf, None, 1, 3))

    clean = ascent(lambda a: a < 0.0)
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        z, f, iters = ascent(poisoned)
    if discarded:
        assert np.isnan(f).all() and len(caplog.records) == 3
    else:
        assert not caplog.records
        assert np.array_equal(z, clean[0]) and np.array_equal(f, clean[1])
        assert np.array_equal(iters, clean[2]) and (iters == 5).all()


@pytest.mark.parametrize("q", [inf, 2.0, 1.5, 3.0])
@pytest.mark.parametrize("system", [skolem_construct(13), greedy_construct(10, 4, 2)],
                         ids=["sts13", "greedy10-4"])
def test_line_search_pass_widths_change_only_the_cost(monkeypatch, system, q):
    # every row takes the first passing step of the same list, however it is cut into passes
    single = SteinerPolynomial(system, random_signs(system, 8))
    fam, seeds = family(system, 3, seed=2)

    def runs():
        return [estimate_norm(p, q, starts=4, max_iters=200, seed=seed)
                for p, seed in ((single, 5), (fam, seeds))]

    reference = runs()
    for chunk, first_max in ((1, 1), (64, 64), (3, 5)):
        monkeypatch.setattr(norms, "_LS_CHUNK", chunk)
        monkeypatch.setattr(norms, "_LS_FIRST_MAX", first_max)
        for est, ref in zip(runs(), reference):
            assert np.asarray(est.value).tobytes() == np.asarray(ref.value).tobytes(), chunk
            assert est.witness.tobytes() == ref.witness.tobytes(), chunk
            assert est.iterations == ref.iterations, chunk


# ---------------------------------------------------------------------------
# families: one estimate_norm call over R sign rows on one support
# ---------------------------------------------------------------------------

def family(system, rows, seed=0):
    """R sign rows drawn as best_of_signs draws its rounds, with one search seed each."""
    signs = np.stack([random_signs(system, derive_seed(seed, "round", r)) for r in range(rows)])
    return SteinerPolynomial(system, signs), [derive_seed(seed, "search", r) for r in range(rows)]


def assert_rows_match_single_calls(fam, seeds, est, q, **budgets):
    """Every row of a family estimate is, to the bit, the estimate of its sign row alone."""
    assert est.value.shape == (len(seeds),) and est.witness.shape == (len(seeds), fam.n)
    iterations = 0
    for r, seed in enumerate(seeds):
        alone = estimate_norm(SteinerPolynomial(fam.system, fam.signs[r]), q, seed=seed, **budgets)
        assert est.value[r].hex() == alone.value.hex(), r
        assert est.witness[r].tobytes() == alone.witness.tobytes(), r
        iterations += alone.iterations
    assert est.iterations == iterations
    assert est.starts == budgets["starts"] * len(seeds) and est.seed == tuple(seeds)


@pytest.mark.parametrize("system, q", [(skolem_construct(25), inf), (skolem_construct(49), 2.0),
                                       (greedy_construct(10, 4, 2), 3.0)],
                         ids=["sts25-inf", "sts49-2", "greedy10-4-3"])
@pytest.mark.parametrize("starts, max_iters", [(4, 150), (1, 150), (8, 600)])
def test_family_rows_are_the_single_pattern_estimates(system, q, starts, max_iters):
    # one start per row exercises the lone-row sums, eight the longer ascent
    fam, seeds = family(system, 5, seed=3)
    budgets = dict(starts=starts, max_iters=max_iters, tol=SEARCH_TOL)
    est = estimate_norm(fam, q, seed=seeds, **budgets)
    assert recertify(fam, est)
    assert_rows_match_single_calls(fam, seeds, est, q, **budgets)


@pytest.mark.parametrize("q, where", [(inf, "phase ascent"), (2.0, "sphere ascent")])
def test_family_start_poisoned_in_one_row_is_discarded_alone(monkeypatch, caplog, q, where):
    fam, seeds = family(seeded_poly(13, 3, 6).system, 3, seed=4)
    clean = estimate_norm(fam, q, starts=4, max_iters=200, seed=seeds)
    poison_start(monkeypatch, fam, q, seed=seeds[1], bad=[3])
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        est = estimate_norm(fam, q, starts=4, max_iters=200, seed=seeds)
    assert [r.getMessage() for r in caplog.records] == [
        f"estimate_norm: start 3 of sign row 1 discarded (non-finite gradient in {where})"]
    for r in (0, 2):
        assert est.value[r] == clean.value[r]
        assert np.array_equal(est.witness[r], clean.witness[r])
    # row 1 keeps the three starts its clean estimate shares with a 3-start one
    row1 = estimate_norm(SteinerPolynomial(fam.system, fam.signs[1]), q, starts=3,
                         max_iters=200, seed=seeds[1])
    assert abs(est.value[1] - row1.value) <= 1e-12 * row1.value
    assert np.abs(est.witness[1] - row1.witness).max() <= 1e-9


def spy_cuts(monkeypatch):
    """The _Cut of every estimate_norm call from now on, in call order."""
    cuts = []

    class Spy(norms._Cut):
        def __init__(self, *args):
            super().__init__(*args)
            cuts.append(self)

    monkeypatch.setattr(norms, "_Cut", Spy)
    return cuts


@pytest.mark.parametrize("system, q", [(skolem_construct(25), inf), (skolem_construct(49), 2.0),
                                       (greedy_construct(10, 4, 2), 3.0),
                                       (skolem_construct(19), 1.0)],
                         ids=["sts25-inf", "sts49-2", "greedy10-4-3", "sts19-1"])
def test_family_rows_under_a_ceiling_are_cut_only_above_a_reached_value(monkeypatch, system, q):
    fam, seeds = family(system, 6, seed=3)
    budgets = dict(starts=4, max_iters=150, tol=SEARCH_TOL)
    alone = [estimate_norm(SteinerPolynomial(system, fam.signs[r]), q, seed=seed, **budgets)
             for r, seed in enumerate(seeds)]
    ceiling = float(np.median([a.value for a in alone]))
    cuts = spy_cuts(monkeypatch)
    est = estimate_norm(fam, q, seed=seeds, ceiling=ceiling, **budgets)
    stopped = cuts[0].stopped
    assert stopped.any() and not stopped.all()
    assert recertify(fam, est)
    for r in np.flatnonzero(~stopped):
        assert est.value[r].hex() == alone[r].value.hex(), r
        assert est.witness[r].tobytes() == alone[r].witness.tobytes(), r
    # a stopped row lies above the ceiling or above a row of the call that finished
    assert (est.value[stopped] > min(ceiling, est.value[~stopped].min())).all()
    assert (est.value[stopped] > ceiling).any()
    assert est.iterations < sum(a.iterations for a in alone)


@pytest.mark.parametrize("q, ceiling", [(inf, 0.0), (2.0, 0.0), (1.0, 0.0032), (1.0, 1e-3)])
def test_a_discard_ends_the_cut_of_its_call(monkeypatch, caplog, q, ceiling):
    # q = inf and 2: the poisoned start is non-finite from the burn-in on, and a ceiling of 0
    # would cut every row at the first check; q = 1 has no burn-in and discards the start in
    # the first ascent iteration: a ceiling of 0.0032 (values 0.0040, 0.0034, 0.0027) would
    # cut sign rows 0 and 1 (the poisoned one) from the 28th check on, and one of 1e-3 every
    # sign row at the first check, which therefore follows the first gradients
    fam, seeds = family(seeded_poly(13, 3, 6).system, 3, seed=4)
    budgets = dict(starts=4, max_iters=200, seed=seeds)
    pruned = estimate_norm(fam, q, ceiling=ceiling, **budgets)
    assert pruned.iterations < estimate_norm(fam, q, **budgets).iterations
    poison_start(monkeypatch, fam, q, seed=seeds[1], bad=[3])
    with caplog.at_level(logging.WARNING, logger=norms.__name__):
        plain = estimate_norm(fam, q, **budgets)
        warned = [r.getMessage() for r in caplog.records]
        caplog.clear()
        est = estimate_norm(fam, q, ceiling=ceiling, **budgets)
    assert warned and [r.getMessage() for r in caplog.records] == warned
    assert est.value.tobytes() == plain.value.tobytes()
    assert est.witness.tobytes() == plain.witness.tobytes()
    assert est.iterations == plain.iterations


def test_recertify_rejects_a_family_estimate_with_one_moved_row():
    fam, seeds = family(greedy_construct(10, 4, 2), 4, seed=1)
    est = estimate_norm(fam, 3.0, starts=4, max_iters=150, seed=seeds)
    assert recertify(fam, est)
    for r in range(4):
        moved = est.value.copy()
        moved[r] += 1e-9
        assert not recertify(fam, NormEstimate(**{**est.__dict__, "value": moved}))
    outside = est.witness.copy()
    outside[2] *= 1.0 + 1e-9
    assert not recertify(fam, NormEstimate(**{**est.__dict__, "witness": outside}))


def test_family_needs_one_seed_per_row():
    fam, seeds = family(skolem_construct(7), 3)
    for bad in (0, seeds[:2], [seeds]):
        with pytest.raises(DomainError):
            estimate_norm(fam, inf, starts=2, seed=bad)


def test_family_of_an_empty_system_is_trivial():
    fam = SteinerPolynomial(PartialSteinerSystem(4, 3, 2, ()), np.zeros((3, 0), dtype=np.int8))
    est = estimate_norm(fam, 2.0, starts=4, seed=[1, 2, 3])
    assert est.method == "trivial" and np.array_equal(est.value, np.zeros(3))
    assert est.witness.shape == (3, 4) and est.starts == 12 and recertify(fam, est)


def test_sts7_estimate_matches_oracle_within_2pct():
    system = skolem_construct(7)
    p = SteinerPolynomial(system, random_signs(system, 42))
    est = estimate_norm(p, inf, starts=64, seed=0)
    oracle = brute_force_norm(p, inf, 16)
    assert abs(est.value - oracle.value) <= 0.02 * oracle.value


@pytest.mark.xfail(strict=True, reason=(
    "_sphere_ascent steps along 2*conj(p)*dp, the conjugate of the complex packing "
    "2*p*conj(dp) of the gradient of |p|^2, so each start stops a few steps after burn-in"))
def test_finite_q_witness_is_stationary():
    # First-order stationarity of |p|^2 on the unit l2 sphere: the gradient
    # 2 p conj(dp) is parallel to z, and Euler's identity sum_j z_j dp_j = k p
    # fixes the multiplier at k |p|^2.
    for n in (25, 49):
        system = skolem_construct(n)
        for pat in range(3):
            p = SteinerPolynomial(system, random_signs(system, derive_seed(pat, "grid")))
            z = estimate_norm(p, 2.0, starts=8, seed=pat).witness
            (val,), (partials,) = value_and_partials(p, z[None])
            lagrange = 2 * p.k * abs(val) ** 2
            residual = 2 * val * np.conj(partials) - lagrange * z
            assert np.linalg.norm(residual) <= 1e-3 * lagrange


@pytest.mark.xfail(strict=True, reason=(
    "finite-q starts stop short of the sup (ROADMAP item 6: _sphere_ascent's ascent "
    "direction); default budgets reach 0.468 and 0.472 at q = 2, 0.972 and 0.910 at q = 3"))
def test_finite_q_estimate_reaches_the_matching_sup():
    # A 4-edge matching p = sum_i s_i z_{a_i} z_{b_i} on 8 points: |z_a z_b| <=
    # (|z_a|^2 + |z_b|^2) / 2 gives sup 1/2 on the l2 ball, and with ||z||_2^2 <=
    # 8^{1/3} ||z||_3^2 sup 1 on the l3 ball; z = 8^{-1/q} (aligned) attains both.
    system = greedy_construct(8, 2, 0)
    assert system.num_blocks == 4
    for q, sup in ((2.0, 0.5), (3.0, 1.0)):
        for s in (0, 1):
            p = SteinerPolynomial(system, random_signs(system, s))
            assert estimate_norm(p, q, seed=s).value >= (1 - 1e-6) * sup


# ---------------------------------------------------------------------------
# brute_force_norm
# ---------------------------------------------------------------------------

def test_oracle_single_block_qinf():
    est = brute_force_norm(single_block(), inf, 32)
    assert abs(est.value - 1.0) <= 1e-9


def test_oracle_two_block_alignment():
    # signs (+,-) align at z = (1,1,1,1,-1): both terms contribute +1
    system = PartialSteinerSystem(5, 3, 2, ((0, 1, 2), (0, 3, 4)))
    p = SteinerPolynomial(system, np.array([1, -1]))
    est = brute_force_norm(p, inf, 16)
    assert abs(est.value - 2.0) <= 1e-9


def test_oracle_q1_stays_below_factorial_ceiling():
    for seed in range(3):
        p = seeded_poly(6, 3, seed)
        est = brute_force_norm(p, 1.0, 16)
        assert est.value <= 1.0 / 6 + 1e-9


def test_oracle_single_block_q1_amgm():
    est3 = brute_force_norm(single_block(3), 1.0, 16)
    assert abs(est3.value - (1 / 3) ** 3) <= 1e-6
    est4 = brute_force_norm(single_block(4), 1.0, 16)
    assert abs(est4.value - (1 / 4) ** 4) <= 1e-6


def test_oracle_q_monotonicity():
    # unit balls are nested, so the true sup is monotone in q
    p = seeded_poly(4, 3, 7)
    v1 = brute_force_norm(p, 1.0, 20).value
    v2 = brute_force_norm(p, 2.0, 20).value
    vinf = brute_force_norm(p, inf, 20).value
    assert v1 <= v2 + 1e-6
    assert v2 <= vinf + 1e-6


def test_oracle_rejects_large_n():
    p = seeded_poly(12, 3, 0)
    with pytest.raises(DomainError):
        brute_force_norm(p, inf, 32)
    with pytest.raises(DomainError):
        brute_force_norm(single_block(), inf, 8)


# ---------------------------------------------------------------------------
# analytic formulas
# ---------------------------------------------------------------------------

def test_ksz_value():
    assert abs(ksz_polydisk_bound(10, 3, 12) - 8 * math.sqrt(10 * log(3) * 12)) < 1e-12
    assert abs(ksz_polydisk_bound(10, 3, 12) - 91.854) < 1e-2


def test_ksz_zero_terms():
    assert ksz_polydisk_bound(5, 3, 0) == 0.0


def test_polarization_values():
    assert polarization_constant(3, 2) == 1.0
    assert polarization_constant(2, 3.0) == 2.0  # k^k / k!
    assert abs(polarization_constant(2, inf) - 3 * math.sqrt(3) / 4) <= 1e-12


def test_bounds_q2_reduces_to_ell2_form():
    for k in (2, 3, 4):
        for n in (10, 50):
            b = analytic_bounds(k, 2.0, n)
            assert abs(b.qnorm_upper - b.ell2_upper) <= 1e-12 * b.ell2_upper


def test_bounds_q1_ceiling():
    b = analytic_bounds(3, 1.0, 20)
    assert b.l1_upper == 1.0 / 6


def test_bounds_qinf_growth_exponent():
    # k=3: the polydisk bound grows like n^{3/2}
    b1 = analytic_bounds(3, inf, 100)
    b2 = analytic_bounds(3, inf, 200)
    exponent = log(b2.qnorm_upper / b1.qnorm_upper) / log(2.0)
    assert abs(exponent - 1.5) <= 1e-12


def test_bounds_domain_errors():
    with pytest.raises(DomainError):
        analytic_bounds(3, 0.5, 10)
    with pytest.raises(DomainError):
        analytic_bounds(1, 2.0, 10)


def test_bounds_all_finite_nonnegative():
    for k in (2, 3, 5):
        for q in (1.0, 1.5, 2.0, 4.0, inf):
            b = analytic_bounds(k, q, 30)
            for value in (b.ksz_infty, b.qnorm_upper, b.l1_upper, b.ell2_upper,
                          b.polarization):
                assert math.isfinite(value) and value >= 0
