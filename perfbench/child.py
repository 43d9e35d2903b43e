"""One benchmark process: set up, run a workload's repetitions, print one JSON line.

run.py starts this script in a fresh interpreter for every measurement, so
that set-up time and peak memory belong to one workload.  BLAS is pinned to
one thread before numpy is imported.

    python3 perfbench/child.py --root DIR --t-spawn T --setup-only
    python3 perfbench/child.py --root DIR --t-spawn T --workload NAME \\
        --seed N --seconds S --trace 0|1 --workdir DIR
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, certified_values, fingerprint, gmean, run_rep  # noqa: E402


def set_up(root: str):
    """Import numpy, scipy and the checkout's steinervn, and start BLAS."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import steinervn  # imports scipy.sparse and every layer module

    if not os.path.realpath(steinervn.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"steinervn imported from {steinervn.__file__}, not {src}")
    a = np.ones((64, 64))
    float((a @ a).sum())  # first BLAS call starts its thread pool


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def run_workload(wl, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Repeat the workload until ``seconds`` are used; with ``trace``, alternate
    untraced and traced repetitions.  Returns medians, checks and layer metrics."""
    from steinervn import norms

    plain, traced, layer_runs, order = [], [], [], []
    t_start = time.perf_counter()
    while True:
        is_traced = trace and len(traced) < len(plain)
        if is_traced:
            tracer = Tracer()
            with tracer.active():
                rep = run_rep(wl, seed, workdir, region=tracer.root)
            for idx, poly, est in tracer.estimates:
                if not norms.recertify(poly, est):
                    rep.cells[tracer.cell_of(idx)].problems.append(
                        f"estimate (span {idx}) fails recertify")
            traced.append(rep)
            layer_runs.append(tracer.metrics())
            absent = tracer.absent()
        else:
            plain.append(rep := run_rep(wl, seed, workdir))
        order.append((rep, is_traced))
        walls = [r.wall_s for r, _ in order]
        elapsed = time.perf_counter() - t_start
        if (not trace or traced) and elapsed + 0.5 * statistics.median(walls) >= seconds:
            break

    reps = [rep for rep, _ in order]
    reference = fingerprint(reps[0].cells)
    for rep in reps[1:]:
        for cell, want, got in zip(rep.cells, reference, fingerprint(rep.cells)):
            if want != got:
                cell.problems.append("output differs from the first repetition")
    cells = [cell for rep in reps for cell in rep.cells]
    norm_vals, cert_vals = certified_values(reps[0].cells)
    lincomb = [c.record.lincomb_sup for c in reps[0].cells
               if c.ok and hasattr(c.record, "lincomb_sup")]
    out = {
        "reps": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "traced": t} for r, t in order],
        "wall_s": statistics.median(r.wall_s for r in plain),
        "cpu_s": statistics.median(r.cpu_s for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(cells),
        "failed": sum(not c.ok for c in cells),
        "problems": [f"{c.label}: {c.error or '; '.join(c.problems)}"
                     for c in cells if not c.ok][:20],
        "norm_est.gmean": gmean(norm_vals),
        "certified.gmean": gmean(cert_vals),
        "lincomb_sup.gmean": gmean(lincomb) if lincomb else None,
    }
    if trace:
        out["traced_wall_s"] = statistics.median(r.wall_s for r in traced)
        out["per_layer"] = {name: statistics.median(run[name] for run in layer_runs)
                            for name in layer_runs[0]}
        out["per_layer"]["trace.overhead_s"] = out["traced_wall_s"] - out["wall_s"]
        out["absent"] = absent
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() in the parent just before starting this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)

    set_up(args.root)
    result = {"setup_s": time.monotonic() - args.t_spawn, "env": environment()}
    if not args.setup_only:
        result.update(run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), args.workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
