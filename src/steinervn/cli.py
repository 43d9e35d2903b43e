"""Command-line entry point.

Subcommands mirror the library modules: ``design gen|verify``,
``poly sample|norm``, ``op build|check``, ``ratio sweep|fit|d32`` and
``plot``.  Every command that writes a file also writes a sibling run
manifest (<out>.manifest.json, or manifest.json inside output directories)
recording the command line, resolved parameters and derived seeds, so runs
can be reproduced byte-for-byte apart from timestamps and elapsed-time
columns.

Exit codes: 0 success, 1 validation or usage error, 2 numerical
non-convergence.  Human-readable output shows variable indices 1-based;
files and JSON stay 0-based.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from math import inf

from . import __version__
from .defect import (FIT_FIELDS, Budgets, SweepConfig, d32_experiment,
                     fit_exponent, load_records, sweep)
from .designs import (construct, density_report, load_system, save_system,
                      verify)
from .errors import ConvergenceError, DomainError, ValidationError
from .norms import best_of_signs, estimate_norm
from .operators import (build_operators, check_commuting, gram_diagonal_check,
                        load_tuple, operator_norm, save_tuple, sink_image)
from .plotting import render_scatter
from .polynomials import load_polynomial, save_polynomial
from .seeding import derive_seed


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_q(text: str) -> float:
    if text.lower() in {"inf", "infinity", "oo"}:
        return inf
    value = float(text)
    if not value >= 1:  # NaN included
        raise ValidationError(f"q={text} outside [1, inf]")
    return value


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest_path(out_path: str) -> str:
    if os.path.isdir(out_path):
        return os.path.join(out_path, "manifest.json")
    return out_path + ".manifest.json"


def _write_manifest(args, started_at, master_seed=None, derived_seeds=None):
    manifest = {
        "command_line": args.command_line,
        "version": __version__,
        "parameters": {k: (repr(v) if isinstance(v, float) else v)
                       for k, v in sorted(vars(args).items())
                       if k not in ("func", "command_line")},
        "master_seed": master_seed,
        "derived_seeds": derived_seeds or {},
        "started_at": started_at,
        "finished_at": _utcnow(),
    }
    with open(_manifest_path(args.out), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, default=repr))
    else:
        print(text)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _cmd_design_gen(args):
    started = _utcnow()
    if args.method == "greedy" and args.seed is None:
        raise ValidationError("--seed is required for the randomized greedy method")
    system = construct(args.n, args.k, args.method, args.seed or 0)
    save_system(system, args.out)
    _write_manifest(args, started, master_seed=args.seed)
    _emit(args, {"n": system.n, "k": system.k, "t": system.t,
                 "num_blocks": system.num_blocks, "out": args.out},
          f"wrote {system.num_blocks} blocks to {args.out}")
    return 0


def _cmd_design_verify(args):
    system = load_system(args.infile)
    ok, violation = verify(system)
    if not ok:
        subset = tuple(x + 1 for x in violation.t_subset)
        _emit(args, {"ok": False, "t_subset": list(violation.t_subset),
                     "first_block": violation.first_block,
                     "second_block": violation.second_block},
              f"FAIL: subset {subset} (1-based) lies in blocks "
              f"{violation.first_block} and {violation.second_block}")
        return 1
    report = density_report(system)
    _emit(args, {"ok": True, **report},
          f"OK, {system.num_blocks} blocks, fill {report['fill_ratio']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def _budgets_from(args) -> Budgets:
    return Budgets(**{name: getattr(args, name) for name in _BUDGET_HELP})


def _estimate_payload(est) -> dict:
    return {
        "value": est.value,
        "q": repr(est.q),
        "method": est.method,
        "starts": est.starts,
        "iterations": est.iterations,
        "seed": est.seed,
        "witness_re": [float(x) for x in est.witness.real],
        "witness_im": [float(x) for x in est.witness.imag],
    }


def _cmd_poly_sample(args):
    started = _utcnow()
    system = load_system(args.design)
    budgets = _budgets_from(args)
    poly, est = best_of_signs(system, args.q, args.rounds,
                              derive_seed(args.seed, "signs"), budgets)
    save_polynomial(poly, args.out)
    _write_manifest(args, started, master_seed=args.seed,
                    derived_seeds={"signs": derive_seed(args.seed, "signs")})
    _emit(args, {"out": args.out, "num_terms": poly.num_terms,
                 "estimate": _estimate_payload(est)},
          f"wrote {poly.num_terms}-term polynomial to {args.out}; "
          f"estimated q={args.q} norm {est.value:.6g}")
    return 0


def _cmd_poly_norm(args):
    poly = load_polynomial(args.poly)
    est = estimate_norm(poly, args.q, starts=args.starts, max_iters=args.iters,
                        tol=args.tol, seed=args.seed)
    _emit(args, _estimate_payload(est),
          f"estimated q={args.q} norm {est.value:.9g} "
          f"({est.method}, {est.starts} starts, {est.iterations} iterations)")
    return 0


# ---------------------------------------------------------------------------
# op
# ---------------------------------------------------------------------------

def _cmd_op_build(args):
    started = _utcnow()
    poly = load_polynomial(args.poly)
    tup = build_operators(poly)
    save_tuple(tup, args.out)
    _write_manifest(args, started)
    _emit(args, {"out": args.out, "dim": tup.dim, "n": tup.n, "k": tup.k},
          f"wrote {tup.n} operators of dimension {tup.dim} to {args.out}")
    return 0


def _cmd_op_check(args):
    tup = load_tuple(args.indir)
    poly = tup.polynomial
    comm = check_commuting(tup)
    grams = gram_diagonal_check(tup)
    norms = [operator_norm(op) for op in tup.ops]
    coefficient, graded = sink_image(tup)
    identity_ok = graded and coefficient == poly.num_terms
    payload = {
        "commuting": comm.ok,
        "failing_pair": list(comm.pair) if comm.pair else None,
        "gram_diagonal_01": [g.is_diagonal_01 for g in grams],
        "operator_norms": norms,
        "eval_identity": identity_ok,
        "num_blocks": poly.num_terms,
    }
    all_ok = comm.ok and identity_ok
    print(json.dumps(payload, sort_keys=True))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _cmd_ratio_sweep(args):
    started = _utcnow()
    config = SweepConfig(args.k, args.q, args.r, _parse_int_list(args.n),
                         _parse_int_list(args.seeds), _budgets_from(args), args.out)
    records = sweep(config)
    _write_manifest(args, started,
                    derived_seeds={f"n={r.n},seed={r.seed}": derive_seed(r.seed, "signs")
                                   for r in records})
    _emit(args, {"out": args.out, "records": len(records)},
          f"wrote {len(records)} records to {args.out}")
    errors = sum(rec.norm_method.startswith("error:") for rec in records)
    if errors:
        print(f"error: {errors} of {len(records)} cells failed (error rows in {args.out})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_ratio_fit(args):
    records = load_records(args.infile)
    fit = fit_exponent(records, args.field, args.logcorr)
    _emit(args, {"slope": fit.slope, "intercept": fit.intercept,
                 "r_squared": fit.r_squared},
          f"slope {fit.slope:.4f}  intercept {fit.intercept:.4f}  r2 {fit.r_squared:.4f}")
    return 0


def _cmd_ratio_d32(args):
    record = d32_experiment(args.n, args.seed, _budgets_from(args))
    payload = asdict(record)
    _emit(args, payload,
          f"n={record.n}: |S|={record.num_blocks}, l2 norm estimate {record.norm_est2:.4f}, "
          f"ratio/reference {record.ratio_over_reference:.4f}, "
          f"joint-condition sup {record.lincomb_sup:.4f}"
          + (" [flagged]" if record.ivp_flagged else ""))
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _csv_number(path, reader, row, column) -> float:
    try:
        return float(row[column])
    except (TypeError, ValueError):  # TypeError: DictReader fills a short row with None
        raise ValidationError(f"{path}: line {reader.line_num}: column {column!r} "
                              f"holds {row[column]!r}, not a number") from None


def _cmd_plot(args):
    started = _utcnow()
    with open(args.infile, encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or args.x not in reader.fieldnames \
                or args.y not in reader.fieldnames:
            raise ValidationError(
                f"columns {args.x!r}/{args.y!r} not found in {args.infile}"
            )
        points = [(_csv_number(args.infile, reader, row, args.x),
                   _csv_number(args.infile, reader, row, args.y)) for row in reader]
    svg = render_scatter(points, args.x, args.y, args.loglog)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(svg)
    _write_manifest(args, started)
    _emit(args, {"out": args.out, "points": len(points)},
          f"wrote {len(points)}-point plot to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

_BUDGET_HELP = {
    "rounds": "sign-search rounds",
    "starts": "final ascent starts",
    "iters": "max ascent iterations",
    "tol": "relative gain stop",
    "search_starts": "per-round ascent starts during the sign search",
    "search_iters": "per-round iteration cap during the sign search",
}


def _add_budget_flags(sp, names=tuple(_BUDGET_HELP)):
    defaults = Budgets()
    for name in names:
        value = getattr(defaults, name)
        sp.add_argument("--" + name.replace("_", "-"), dest=name, type=type(value),
                        default=value, help=_BUDGET_HELP[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steinervn",
                     description="Steiner polynomials, commuting contractions, "
                                 "and von Neumann defect experiments")
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="command", required=True)

    design = top.add_parser("design", help="partial Steiner systems")
    dsub = design.add_subparsers(dest="subcommand", required=True)
    gen = dsub.add_parser("gen", help="generate a system")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--method", choices=["greedy", "bose", "skolem"], required=True)
    gen.add_argument("--seed", type=int, default=None, help="required for greedy")
    gen.add_argument("--out", required=True)
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=_cmd_design_gen)
    ver = dsub.add_parser("verify", help="verify a system file")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_design_verify)

    poly = top.add_parser("poly", help="Steiner unimodular polynomials")
    psub = poly.add_subparsers(dest="subcommand", required=True)
    sample = psub.add_parser("sample", help="best-of-R sign search")
    sample.add_argument("--design", required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--q", type=_parse_q, default=inf)
    sample.add_argument("--out", required=True)
    sample.add_argument("--json", action="store_true")
    _add_budget_flags(sample)
    sample.set_defaults(func=_cmd_poly_sample)
    norm = psub.add_parser("norm", help="estimate a sup-norm")
    norm.add_argument("--poly", required=True)
    norm.add_argument("--q", type=_parse_q, required=True)
    norm.add_argument("--seed", type=int, required=True)
    _add_budget_flags(norm, ("starts", "iters", "tol"))
    norm.add_argument("--json", action="store_true")
    norm.set_defaults(func=_cmd_poly_norm)

    op = top.add_parser("op", help="operator tuples")
    osub = op.add_subparsers(dest="subcommand", required=True)
    build = osub.add_parser("build", help="build and save the tuple")
    build.add_argument("--poly", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--json", action="store_true")
    build.set_defaults(func=_cmd_op_build)
    check = osub.add_parser("check", help="verify structure of a saved tuple")
    check.add_argument("--in", dest="indir", required=True)
    check.set_defaults(func=_cmd_op_check)

    ratio = top.add_parser("ratio", help="defect experiments")
    rsub = ratio.add_subparsers(dest="subcommand", required=True)
    sw = rsub.add_parser("sweep", help="run a (k, q, r) sweep over n")
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--q", type=_parse_q, required=True)
    sw.add_argument("--r", type=_parse_q, required=True)
    sw.add_argument("--n", required=True, help="comma-separated ascending n values")
    sw.add_argument("--seeds", required=True, help="comma-separated seeds")
    sw.add_argument("--out", required=True)
    sw.add_argument("--json", action="store_true")
    _add_budget_flags(sw)
    sw.set_defaults(func=_cmd_ratio_sweep)
    fit = rsub.add_parser("fit", help="fit a growth exponent from a sweep CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--field", default="ratio",
                     choices=FIT_FIELDS)
    fit.add_argument("--logcorr", type=float, default=0.0)
    fit.add_argument("--json", action="store_true")
    fit.set_defaults(func=_cmd_ratio_fit)
    d32 = rsub.add_parser("d32", help="k=3, q=2 joint-contraction experiment")
    d32.add_argument("--n", type=int, required=True)
    d32.add_argument("--seed", type=int, required=True)
    d32.add_argument("--json", action="store_true")
    _add_budget_flags(d32)
    d32.set_defaults(func=_cmd_ratio_d32)

    plot = top.add_parser("plot", help="render a CSV scatter to SVG")
    plot.add_argument("--in", dest="infile", required=True)
    plot.add_argument("--x", required=True)
    plot.add_argument("--y", required=True)
    plot.add_argument("--loglog", action="store_true")
    plot.add_argument("--out", required=True)
    plot.add_argument("--json", action="store_true")
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.command_line = [parser.prog, *argv]
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
