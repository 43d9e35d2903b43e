"""Benchmark workloads: fixed cell lists, one timed repetition, output checks.

Each workload is a fixed list of defect cells derived from the seed.  The
harness reaches the program only through the public functions
``defect.sweep``, ``defect.ratio_point`` and ``defect.d32_experiment``, looked
up on the module at call time so that a tracer patching the module sees
these calls too.

Importing this module imports nothing from numpy, scipy or steinervn, so the
parent process can list workloads without paying their set-up cost.
"""

import itertools
import math
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

INF = float("inf")
RATIO_REL_TOL = 1e-9
LINCOMB_IVP_LIMIT = 1.05  # as in acceptance criterion A12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep": one defect.sweep call; "joint": ratio_point + d32 per (n, seed)
    k: int
    q: float
    n_list: tuple
    seeds: int = 1  # the cells run seeds seed, seed+1, ... at every n
    budgets: dict = field(default_factory=dict)  # Budgets overrides; {} = defaults


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {wl.name: wl for wl in (
    Workload("qinf-sweep", "sweep", 3, INF, (25,), seeds=6),
    Workload("q2-joint", "joint", 3, 2.0, (49, 97), seeds=2),
    Workload("k4-packing", "sweep", 4, INF, (26, 34, 42),
             budgets=dict(rounds=3, starts=8, iters=300, search_starts=2)),
)}


@dataclass
class Cell:
    """Outcome of one cell: a ratio record, a d32 record, or the error it raised."""

    label: str
    record: object = None
    error: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error and not self.problems


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    cells: list


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_rep(wl: Workload, seed: int, workdir: str, region=nullcontext) -> Rep:
    """Run the workload's cell list once; time it, then check every output.

    ``region`` is a context manager factory entered around the timed calls
    only (the tracer's root span), so the checks stay outside it.
    """
    from steinervn import defect

    budgets = defect.Budgets(**wl.budgets)
    seeds = [seed + i for i in range(wl.seeds)]
    cells = []
    if wl.kind == "sweep":
        out_path = os.path.join(workdir, f"{wl.name}.csv")
        config = defect.SweepConfig(wl.k, wl.q, wl.q, list(wl.n_list), seeds, budgets,
                                    out_path)
        with region():
            t0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                records = defect.sweep(config)
            except Exception as exc:  # a sweep that raises fails all its cells
                records = None
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        if records is None:
            cells = [Cell(f"n={n} seed={s}", error=error) for n in wl.n_list for s in seeds]
        else:
            cells = [Cell(f"n={rec.n} seed={rec.seed}", rec) for rec in records]
            try:
                _check_csv(cells, defect.load_records(out_path))
            except (OSError, ValueError) as exc:  # an unreadable CSV fails every cell
                for cell in cells:
                    cell.problems.append(f"CSV read-back failed: {exc}")
    else:
        with region():
            t0, c0 = time.perf_counter(), _cpu_seconds()
            for n, s in itertools.product(wl.n_list, seeds):
                calls = ((f"ratio n={n} seed={s}", defect.ratio_point,
                          (wl.k, n, wl.q, wl.q, s, budgets)),
                         (f"d32 n={n} seed={s}", defect.d32_experiment, (n, s, budgets)))
                for label, fn, args in calls:
                    try:
                        cells.append(Cell(label, fn(*args)))
                    except Exception as exc:  # one failing cell must not stop the list
                        cells.append(Cell(label, error=f"{type(exc).__name__}: {exc}"))
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    for cell in cells:
        if cell.record is not None:
            cell.problems.extend(check_record(cell.record, wl.k))
    return Rep(wall, cpu, cells)


def check_record(rec, k: int) -> list:
    """Problems with one ratio or d32 record; empty when every check holds."""
    if hasattr(rec, "lincomb_sup"):
        problems = []
        if not 0.0 < rec.norm_est2 <= rec.num_blocks:
            problems.append(f"norm_est2={rec.norm_est2} outside (0, {rec.num_blocks}]")
        if not (rec.lincomb_sup <= LINCOMB_IVP_LIMIT or rec.ivp_flagged):
            problems.append(f"lincomb_sup={rec.lincomb_sup} > {LINCOMB_IVP_LIMIT} unflagged")
        return problems
    if rec.norm_method.startswith("error:"):
        return [rec.norm_method]
    problems = []
    if not math.isclose(rec.ratio, rec.floor_ratio, rel_tol=RATIO_REL_TOL, abs_tol=0.0):
        problems.append(f"ratio={rec.ratio!r} != floor_ratio={rec.floor_ratio!r}")
    if not 0.0 < rec.norm_est <= rec.num_blocks:
        problems.append(f"norm_est={rec.norm_est} outside (0, {rec.num_blocks}]")
    if rec.normalized_flag != (k >= 4):
        problems.append(f"normalized_flag={rec.normalized_flag} for k={k}")
    return problems


def _check_csv(cells: list, loaded: list):
    if len(loaded) != len(cells):
        for cell in cells:
            cell.problems.append(f"CSV holds {len(loaded)} rows for {len(cells)} records")
        return
    for cell, back in zip(cells, loaded):
        if back != cell.record:
            cell.problems.append("CSV row differs from the returned record")


def certified_values(cells: list) -> tuple:
    """(norm estimates, all certified lower bounds) of the successful cells."""
    norms, certs = [], []
    for cell in cells:
        rec = cell.record
        if not cell.ok:
            continue
        if hasattr(rec, "lincomb_sup"):
            norms.append(rec.norm_est2)
            certs.extend((rec.norm_est2, rec.lincomb_sup))
        else:
            norms.append(rec.norm_est)
            certs.append(rec.norm_est)
    return norms, certs


def gmean(values: list) -> float:
    """Geometric mean; 0.0 (the worst value) when no cell succeeded."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fingerprint(cells: list) -> list:
    """Per-cell outputs that must repeat exactly on the same seed (no timings)."""
    out = []
    for cell in cells:
        rec = cell.record
        if rec is None:
            out.append((cell.label, cell.error))
        elif hasattr(rec, "lincomb_sup"):
            out.append((cell.label, rec.num_blocks, rec.norm_est2, rec.lincomb_sup))
        else:
            out.append((cell.label, rec.num_blocks, rec.norm_est, rec.op_norm))
    return out
