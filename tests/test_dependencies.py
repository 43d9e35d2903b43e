"""numpy is the package's only runtime dependency: it runs with scipy blocked; and
the package's modules import one another without a cycle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter, where sys.modules["scipy"] = None makes every
# import of scipy or of a scipy submodule raise ImportError, a lazy one included.
SCRIPT = r"""
import sys
import tempfile
from math import inf

sys.modules["scipy"] = None
import steinervn
from steinervn import defect, operators
from steinervn.designs import skolem_construct
from steinervn.polynomials import SteinerPolynomial, random_signs

budgets = defect.Budgets(rounds=2, starts=4, iters=60, search_starts=2, search_iters=20,
                         lincomb_starts=2, lincomb_iters=10)
for k, n, q in ((3, 13, inf), (3, 13, 2.0), (4, 10, inf)):
    record = defect.ratio_point(k, n, q, q, 0, budgets)
    assert not record.norm_method.startswith("error"), record.norm_method
    assert 0.0 < record.norm_est <= record.num_blocks and record.op_norm > 0.0
    assert record.normalized_flag == (k >= 4)
joint = defect.d32_experiment(13, 0, budgets)
assert joint.num_blocks == 26 and joint.lincomb_sup > 0.0
system = skolem_construct(13)
built = operators.build_operators(SteinerPolynomial(system, random_signs(system, 0)))
with tempfile.TemporaryDirectory() as directory:
    operators.save_tuple(built, directory)
    loaded = operators.load_tuple(directory)
assert operators.check_commuting(loaded).ok
assert all(report.is_diagonal_01 for report in operators.gram_diagonal_check(loaded))
assert [operators.operator_norm(op) for op in loaded.ops] == [1.0] * 13
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""


def test_pipeline_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def import_graph() -> dict:
    """Each module of the package -> the package modules it imports, at the top or
    inside a function body; importing the package itself is an edge to __init__."""
    package = ROOT / "src" / "steinervn"
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # the package is flat: level 0 or 1
                base = ".".join(filter(None, ["steinervn" * node.level, node.module]))
                imported = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for parts in (dotted.split(".") for dotted in imported):
                if parts[0] == "steinervn":
                    edges.add(parts[1] if parts[1:] and parts[1] in modules else "__init__")
        edges.discard(name)
        graph[name] = edges
    return graph


def test_module_imports_have_no_cycle():
    graph = import_graph()
    assert {"polynomials", "norms", "defect"} <= set(graph)
    assert "norms" not in graph["polynomials"]  # the sign search lives in norms
    left = dict(graph)
    while left:  # peel off modules that import nothing left; a cycle stops the peeling
        leaves = [name for name, edges in left.items() if not edges & set(left)]
        assert leaves, f"import cycle among {sorted(left)}: " + str(
            {name: sorted(edges & set(left)) for name, edges in sorted(left.items())})
        for name in leaves:
            del left[name]
