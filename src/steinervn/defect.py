"""Von Neumann defect experiments: ratio sweeps, exponent fits, the k=3/q=2
joint-contraction experiment.

A ratio cell fixes (k, q, r, n, seed) and runs the full pipeline: construct
the densest available design (exact triple system when k=3 and n = 1 or 3
mod 6, greedy packing otherwise), pick signs by best-of-R search at the
given q, build the operator tuple, rescale it so the admissibility
constraint sum ||T_j||^r <= 1 holds, and report the quotient

    ratio = ||p(T_1,...,T_n)|| / (estimated sup of |p| on the l_q ball).

The denominator is a certified lower bound of the true sup-norm, so the
reported ratio is an upper estimate of the defect realized by the instance;
the ksz_ref column carries the analytic denominator that yields the fully
certified lower story.  Both appear in every record.
"""

import csv
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields
from math import inf, log

import numpy as np

from .designs import bose_construct, greedy_construct, skolem_construct
from .errors import ConvergenceError, DomainError, ValidationError
from .norms import Budgets, best_of_signs, ksz_polydisk_bound
from .operators import (build_operators, contraction_normalize,
                        linear_combination_sup, polynomial_operator_norm)
from .seeding import derive_seed

logger = logging.getLogger(__name__)

IVP_FLAG_TOL = 1e-6

# The RatioRecord fields fit_exponent fits; ``ratio fit --field`` offers these.
FIT_FIELDS = ("ratio", "floor_ratio", "norm_est", "op_norm")


@dataclass
class RatioRecord:
    """One sweep cell; its fields, in order, are the sweep CSV columns."""

    k: int
    q: float
    r: float
    n: int
    seed: int
    num_blocks: int
    norm_est: float
    norm_method: str
    op_norm: float
    ratio: float
    floor_ratio: float
    ksz_ref: float
    analytic_lower_ref: float
    normalized_flag: bool
    elapsed_ms: int


CSV_COLUMNS = [f.name for f in fields(RatioRecord)]


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points: list


def design_for(k: int, n: int, seed: int):
    """Densest design the module can build: exact triple system when possible."""
    if k == 3 and n >= 7 and n % 6 == 1:
        return skolem_construct(n)
    if k == 3 and n % 6 == 3:
        return bose_construct(n)
    return greedy_construct(n, k, derive_seed(seed, "design"))


def reference_growth(k: int, q, r, n: int) -> float:
    """Analytic lower-bound growth curve for the (k, q, r) defect.

    n^{k(1/2 + 1/q - 1/r) - 1} / ln^{3/q} n for q >= 2 and its conjugate
    counterpart n^{k/r' - 1} / ln^{3/q'} n for q < 2, with 1/inf = 0.
    """
    inv_q = 0.0 if q == inf else 1.0 / q
    inv_r = 0.0 if r == inf else 1.0 / r
    if q >= 2:
        return n ** (k * (0.5 + inv_q - inv_r) - 1.0) / log(n) ** (3.0 * inv_q)
    inv_qp = 1.0 - inv_q
    inv_rp = 1.0 - inv_r
    return n ** (k * inv_rp - 1.0) / log(n) ** (3.0 * inv_qp)


def ratio_point(k: int, n: int, q, r, seed: int, budgets: Budgets | None = None) -> RatioRecord:
    """One cell of the defect experiment; see the module docstring."""
    if k < 3:
        raise DomainError(f"operator pipeline needs k >= 3, got k={k}")
    if n < k:
        raise DomainError(f"need n >= k, got n={n}, k={k}")
    for name, value in (("q", q), ("r", r)):
        if not value >= 1:  # NaN included
            raise DomainError(f"{name}={value} outside [1, inf]")
    budgets = budgets or Budgets()
    t0 = time.perf_counter()

    system = design_for(k, n, seed)
    poly, est = best_of_signs(system, q, budgets.rounds, derive_seed(seed, "signs"),
                              budgets)
    tup = build_operators(poly)
    normalized = k >= 4
    if normalized:
        tup, _ = contraction_normalize(tup)
    if r != inf:
        tup = tup.with_scale(tup.scale * n ** (-1.0 / r))
    op_norm = polynomial_operator_norm(tup)
    scale_k = tup.scale ** k
    ratio = op_norm / est.value if est.value > 0 else math.inf
    floor_ratio = system.num_blocks * scale_k / est.value if est.value > 0 else math.inf
    elapsed_ms = int(round(1000 * (time.perf_counter() - t0)))
    return RatioRecord(
        k=k, q=float(q), r=float(r), n=n, seed=seed,
        num_blocks=system.num_blocks,
        norm_est=est.value,
        norm_method=f"bestof{budgets.rounds}+{est.method}",
        op_norm=op_norm, ratio=ratio, floor_ratio=floor_ratio,
        ksz_ref=ksz_polydisk_bound(n, k, system.num_blocks),
        analytic_lower_ref=reference_growth(k, q, r, n),
        normalized_flag=normalized, elapsed_ms=elapsed_ms,
    )


@dataclass
class SweepConfig:
    k: int
    q: float
    r: float
    n_list: list
    seeds: list
    budgets: Budgets = field(default_factory=Budgets)
    out_path: str | None = None


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, records):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, col)) for col in CSV_COLUMNS])


def sweep(config: SweepConfig) -> list:
    """One RatioRecord per (n, seed) cell, optionally streamed to CSV.

    Cells run serially.  With an output path, the records finished so far are
    rewritten to ``<out>.partial`` after every cell, and that checkpoint is
    removed once the full CSV is written.  Cell failures raised by the package
    (validation, domain and convergence errors, floating-point traps) become
    error rows (NaN numerics, the error message in norm_method) and the sweep
    continues; any other exception is a programming error and propagates.
    Output records are sorted by (n, seed), and identical configs produce
    byte-identical CSVs apart from the elapsed_ms column.
    """
    if not config.n_list:
        raise ValidationError("n list must be nonempty")
    if list(config.n_list) != sorted(config.n_list):
        raise ValidationError("n list must be ascending")

    partial = config.out_path + ".partial" if config.out_path else None
    records = []
    for n in config.n_list:
        for s in config.seeds:
            try:
                rec = ratio_point(config.k, n, config.q, config.r, s, config.budgets)
            except (ValidationError, DomainError, ConvergenceError, FloatingPointError) as exc:
                logger.warning("sweep cell (n=%d, seed=%d) failed: %s", n, s, exc)
                nan = float("nan")
                rec = RatioRecord(config.k, float(config.q), float(config.r), n, s, 0,
                                  nan, f"error:{type(exc).__name__}:{exc}", nan, nan,
                                  nan, nan, nan, False, 0)
            records.append(rec)
            if partial:
                _write_rows(partial, records)
    records.sort(key=lambda rec: (rec.n, rec.seed))
    if config.out_path:
        _write_rows(config.out_path, records)
        if os.path.exists(partial):
            os.remove(partial)
    return records


def _parse_cell(kind, text: str):
    """Inverse of _format_cell for a field of type ``kind``; ValueError if it does not parse."""
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"not a flag: {text!r}")
        return text == "1"
    return kind(text)


def load_records(path) -> list:
    """Read a sweep CSV back into RatioRecord objects.

    A row with too few or too many cells, or a cell that does not parse,
    raises ValidationError naming the CSV line.
    """
    with open(path, encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValidationError(f"{path}: unexpected columns {reader.fieldnames}")
        records = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            # DictReader keys extra cells by None and fills missing ones with None
            if None in row or None in row.values():
                raise ValidationError(f"{where}: expected {len(CSV_COLUMNS)} cells")
            try:
                records.append(RatioRecord(*(_parse_cell(f.type, row[f.name])
                                             for f in fields(RatioRecord))))
            except ValueError as exc:
                raise ValidationError(f"{where}: bad cell ({exc})") from exc
        return records


def least_squares_line(xs, ys) -> tuple:
    """OLS (slope, intercept) of ys against xs; slope 0 when all xs coincide."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xc = xs - xs.mean()
    sxx = xc @ xc
    if sxx == 0.0:
        return 0.0, float(ys.mean())
    slope = float(xc @ (ys - ys.mean()) / sxx)
    return slope, float(ys.mean() - slope * xs.mean())


def fit_exponent(records: list, field_name: str = "ratio",
                 log_correction: float = 0.0) -> FitResult:
    """OLS fit of ln(value / ln^c n) against ln n, median-aggregated per n.

    ``log_correction`` is the exponent c divided out before fitting, so a
    clean power law n^s times ln^c n fits to slope s.  Nonpositive or
    non-finite values are excluded with a warning.
    """
    if field_name not in FIT_FIELDS:
        raise ValidationError(f"cannot fit field {field_name!r}")
    by_n = {}
    for rec in records:
        value = getattr(rec, field_name)
        if not (math.isfinite(value) and value > 0):
            logger.warning("fit_exponent: dropping nonpositive value %r at n=%d", value, rec.n)
            continue
        by_n.setdefault(rec.n, []).append(value)
    if len(by_n) < 3:
        raise DomainError(f"need >= 3 distinct n values, got {len(by_n)}")
    xs, ys = [], []
    for n in sorted(by_n):
        med = float(np.median(by_n[n]))
        xs.append(log(n))
        ys.append(log(med) - log_correction * log(log(n)))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = least_squares_line(xs, ys)
    yc = ys - ys.mean()
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(yc @ yc)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared, list(zip(xs.tolist(), ys.tolist())))


@dataclass
class JointConditionRecord:
    """One run of the k=3, q=2 experiment behind the d32 growth claim."""

    n: int
    seed: int
    num_blocks: int
    norm_est2: float
    lincomb_sup: float
    ivp_flagged: bool  # sup exceeded 1 + tolerance after rescaling
    ratio: float       # num_blocks / norm_est2^{5/2}
    reference: float   # n^2 / ln^{15/4} n
    ratio_over_reference: float


def d32_experiment(n: int, seed: int, budgets: Budgets | None = None) -> JointConditionRecord:
    """Defect of the joint contraction condition for 3-homogeneous polynomials.

    Builds the triple-system polynomial, scales the tuple by
    norm_est2^{-1/2}, measures sup over ||alpha||_2 = 1 of the scaled
    ||sum alpha_j T_j|| and reports ratio = |S| / norm_est2^{5/2} against the
    reference curve n^2 / ln^{15/4} n.  The unscaled sup is 6 ||p||_2, so the
    scaled one is 6 ||p||_2 / sqrt(norm_est2) >= 6 sqrt(||p||_2) > 2.6 for any
    p: the flag reports this scaling, not estimator error.
    """
    if n < 7:
        raise DomainError(f"need n >= 7, got n={n}")
    budgets = budgets or Budgets()
    system = design_for(3, n, seed)
    poly, est = best_of_signs(system, 2.0, budgets.rounds, derive_seed(seed, "signs"),
                              budgets)
    tup = build_operators(poly).with_scale(est.value ** -0.5)
    sup = linear_combination_sup(tup, 2.0, budgets.lincomb_starts,
                                 budgets.lincomb_iters, derive_seed(seed, "lincomb"))
    flagged = sup > 1.0 + IVP_FLAG_TOL
    if flagged:
        logger.info("d32_experiment(n=%d): rescaled joint-condition sup %.4f > 1", n, sup)
    ratio = system.num_blocks / est.value ** 2.5
    reference = n ** 2 / log(n) ** 3.75
    return JointConditionRecord(n, seed, system.num_blocks, est.value, sup, flagged,
                                ratio, reference, ratio / reference)
