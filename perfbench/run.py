"""steinervn benchmark: one workload, end-to-end or per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload qinf-sweep --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout (nothing is installed).  Every measurement runs in a fresh
process with BLAS pinned to one thread: a few set-up-only processes give
the median ``setup_s``, then one process repeats the workload's fixed cell
list for ``--seconds`` and reports medians over the repetitions.  With
``--trace 1`` the repetitions alternate untraced and traced, and the result
holds the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A full report, with the environment and every
repetition, is also written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import ABSENT  # noqa: E402  (script directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # processes timed for setup_s, the workload's own included
DEADLINE_S = 170.0  # the command must end within 180 s


class ChildFailed(RuntimeError):
    pass


def spawn(extra: list, deadline: float) -> dict:
    """Start child.py in a fresh interpreter and return its JSON result.

    child.py pins BLAS to one thread itself, before it imports numpy.
    """
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--t-spawn", repr(t_spawn), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(extra) or 'child'} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()[0]
    setups = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--workdir", str(workdir)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    load_after = os.getloadavg()[0]
    res["setup_samples"] = setups
    res["env"].update(nproc=nproc, load_before=load_before, load_after=load_after,
                      contended=max(load_before, load_after) > nproc)
    return res


def result_line(res: dict, trace: int, spec: dict) -> dict:
    """The result object: the metrics BENCHMARK.json (``spec``) lists for this mode."""
    if trace:
        values = res["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(res["setup_samples"]),
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": 1.0 - res["failed"] / res["attempted"],
            "norm_est.gmean": res["norm_est.gmean"],
            "certified.gmean": res["certified.gmean"],
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec["per_layer" if trace else "end_to_end"]}}


def report(args, res: dict, line: dict, why: str):
    env = res["env"]
    walls = " ".join(f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in res["reps"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['reps'])} repetitions, wall {walls} s (T = traced)")
    print(f"why: {why}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} ({env['blas_config']})")
    print(f"load {env['load_before']:.2f} -> {env['load_after']:.2f}: "
          f"{'CONTENDED' if env['contended'] else 'not contended'}")
    print(f"fail_frac {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']} of {res['attempted']} cells failed)")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    if res.get("lincomb_sup.gmean") is not None:
        print(f"lincomb_sup.gmean {res['lincomb_sup.gmean']!r}")
    for name, metric in line["metrics"].items():
        shown = "absent" if metric["value"] == ABSENT else repr(metric["value"])
        print(f"  {name:48s} {shown} {metric['unit']}")
    if args.trace:
        print(f"absent (never called): {', '.join(res['absent']) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "steinervn" / "__init__.py").is_file():
        print(f"perfbench: no steinervn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    line = result_line(res, args.trace, spec)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": line, **res}, indent=1) + "\n")
    report(args, res, line, why)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
