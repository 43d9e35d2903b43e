import csv
import json
import math
import re

import numpy as np
import pytest

from steinervn.cli import _budgets_from, build_parser, main
from steinervn.defect import Budgets, RatioRecord, fit_exponent
from steinervn.designs import bose_construct, skolem_construct
from steinervn.polynomials import SteinerPolynomial, save_polynomial


def assert_line_error(code, stdout, stderr, name, where, message):
    """The command failed on line ``where`` of file ``name`` with the package's error."""
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert f"{name}: line {where}: " in stderr
    assert message in stderr


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level exits carry the process code
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_power_law_csv(path, exponent=0.5, ns=(10, 20, 40, 80)):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "q", "r", "n", "seed", "num_blocks", "norm_est",
                         "norm_method", "op_norm", "ratio", "floor_ratio",
                         "ksz_ref", "analytic_lower_ref", "normalized_flag",
                         "elapsed_ms"])
        for n in ns:
            value = n ** exponent
            writer.writerow([3, "inf", "inf", n, 0, n, 1.0, "synthetic", value,
                             repr(value), repr(value), 1.0, 1.0, 0, 1])


def test_design_gen_and_verify(tmp_path, capsys):
    out = tmp_path / "sts9.txt"
    code, stdout, _ = run(capsys, "design", "gen", "--n", "9", "--k", "3",
                          "--method", "bose", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 13  # header + 12 blocks
    assert (tmp_path / "sts9.txt.manifest.json").exists()

    code, stdout, _ = run(capsys, "design", "verify", "--in", str(out))
    assert code == 0
    assert "OK, 12 blocks, fill 1.000" in stdout


def test_manifest_records_the_parsed_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["some-host-program", "--flag"])
    out = tmp_path / "sts7.txt"
    argv = ["design", "gen", "--n", "7", "--method", "skolem", "--out", str(out)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    manifest = json.loads((tmp_path / "sts7.txt.manifest.json").read_text())
    assert manifest["command_line"] == ["steinervn", *argv]


def test_design_gen_bad_residue_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "design", "gen", "--n", "8", "--method", "bose",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 1
    assert "error" in err


def test_design_gen_greedy_requires_seed(tmp_path, capsys):
    code, _, err = run(capsys, "design", "gen", "--n", "9", "--method", "greedy",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 1
    assert "seed" in err


def test_design_verify_reports_violation(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 3 2\n0 1 2\n0 1 3\n")
    code, stdout, _ = run(capsys, "design", "verify", "--in", str(bad))
    assert code == 1
    assert "FAIL" in stdout


def test_poly_sample_and_norm(tmp_path, capsys):
    design = tmp_path / "sts7.txt"
    run(capsys, "design", "gen", "--n", "7", "--method", "skolem", "--out", str(design))
    poly = tmp_path / "poly.txt"
    code, stdout, _ = run(capsys, "poly", "sample", "--design", str(design),
                          "--seed", "3", "--rounds", "4", "--q", "inf",
                          "--out", str(poly), "--search-starts", "2",
                          "--search-iters", "60", "--starts", "4", "--iters", "200")
    assert code == 0
    assert poly.exists() and (tmp_path / "poly.txt.manifest.json").exists()

    code, stdout, _ = run(capsys, "poly", "norm", "--poly", str(poly), "--q", "inf",
                          "--starts", "4", "--iters", "200", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] <= 7.0 + 1e-9
    assert len(payload["witness_re"]) == 7


def test_op_build_and_check(tmp_path, capsys):
    design = tmp_path / "sts7.txt"
    poly = tmp_path / "poly.txt"
    run(capsys, "design", "gen", "--n", "7", "--method", "skolem", "--out", str(design))
    run(capsys, "poly", "sample", "--design", str(design), "--seed", "3",
        "--rounds", "2", "--q", "inf", "--out", str(poly),
        "--search-starts", "2", "--search-iters", "50", "--starts", "2", "--iters", "100")

    opdir = tmp_path / "ops"
    code, stdout, _ = run(capsys, "op", "build", "--poly", str(poly), "--out", str(opdir))
    assert code == 0
    assert (opdir / "operators.txt").exists()
    assert (opdir / "manifest.json").exists()

    code, stdout, _ = run(capsys, "op", "check", "--in", str(opdir))
    assert code == 0
    report = json.loads(stdout)
    assert report["commuting"] is True
    assert report["eval_identity"] is True
    assert all(report["gram_diagonal_01"])
    assert all(abs(v - 1.0) <= 1e-9 for v in report["operator_norms"])

    # a second nonzero in the column of e under T_0 breaks the tuple's structure
    with open(opdir / "operators.txt", "a") as fh:
        fh.write("0 2 0 1\n")
    code, _, stderr = run(capsys, "op", "check", "--in", str(opdir))
    assert code == 1
    assert "column 0" in stderr


def built_tuple(tmp_path, capsys):
    """Directory of a small STS(7) operator tuple written by ``op build``."""
    design, poly, opdir = tmp_path / "sts7.txt", tmp_path / "poly.txt", tmp_path / "ops"
    run(capsys, "design", "gen", "--n", "7", "--method", "skolem", "--out", str(design))
    run(capsys, "poly", "sample", "--design", str(design), "--seed", "3", "--rounds", "1",
        "--q", "inf", "--out", str(poly), "--search-starts", "1", "--search-iters", "5",
        "--starts", "1", "--iters", "5")
    run(capsys, "op", "build", "--poly", str(poly), "--out", str(opdir))
    return opdir


@pytest.mark.parametrize("entry, message", [
    ("-1 15 0 1", "operator index -1 outside [0, 7)"),
    ("7 0 0 1", "operator index 7 outside [0, 7)"),
    ("0 {dim} 0 1", "outside [0, {dim})"),
    ("0 0 -1 1", "outside [0, {dim})"),
    ("0 1 2", "expected four integers"),
    ("0 1 2 3 4", "expected four integers"),
    ("0 1 x 1", "expected four integers"),
    (None, "line 1: bad header"),
])
def test_op_check_rejects_bad_line(tmp_path, capsys, entry, message):
    path = built_tuple(tmp_path, capsys) / "operators.txt"
    lines = path.read_text().splitlines()
    dim = lines[0].split()[0]
    if entry is None:
        lines[0], where = "x " + lines[0], 1
    else:
        lines, where = lines + [entry.format(dim=dim)], len(lines) + 1
    path.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run(capsys, "op", "check", "--in", str(path.parent))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert f"operators.txt: line {where}: " in stderr
    assert message.format(dim=dim) in stderr


@pytest.mark.parametrize("lines, where, message", [
    (["7 3 2", "0 1 x"], 2, "expected integer block indices"),
    (["7 3 2", "", "0 1 x"], 3, "expected integer block indices"),
    (["7 3", "0 1 2"], 1, "expected three integers 'n k t'"),
    (["7 3 2", "0 1 2", "0 1"], 3, "block 1 has size 2, expected 3"),
    (["7 3 2", "0 1 7"], 2, "block 0 has an index outside [0, 6]"),
    (["7 3 2", "0 1 2", "2 1 3"], 3, "block 1 is not strictly increasing"),
    (["7 3 3", "0 1 2"], 1, "need 1 <= t < k, got t=3, k=3"),
    (["", "7 3 0", "0 1 2"], 2, "need 1 <= t < k, got t=0, k=3"),
])
def test_design_verify_rejects_bad_line(tmp_path, capsys, lines, where, message):
    path = tmp_path / "sys.txt"
    path.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run(capsys, "design", "verify", "--in", str(path))
    assert_line_error(code, stdout, stderr, "sys.txt", where, message)
    assert stderr.startswith(f"error: {path}: line {where}: ")


@pytest.mark.parametrize("index, text, message", [
    (0, "7 3", "expected three integers 'n k t'"),
    (1, "0 3 x", "expected integer block indices"),
    (1, "0 3 1", "block 0 is not strictly increasing"),
    (-1, "+1 x", "expected 7 signs, each +1 or -1"),
    (-1, "+1 +1 +1 +1 +1 +1", "expected 7 signs, each +1 or -1"),
    (-1, "+1 +1 +1 +1 +1 +1 2", "expected 7 signs, each +1 or -1"),
    (-1, "+1 +1 +1 +1 +1 +1 \u22121", "expected 7 signs, each +1 or -1"),  # a minus sign
])
def test_op_build_rejects_bad_polynomial_line(tmp_path, capsys, index, text, message):
    path = tmp_path / "poly.txt"
    save_polynomial(SteinerPolynomial(skolem_construct(7), np.ones(7)), path)
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stdout, stderr = run(capsys, "op", "build", "--poly", str(path),
                               "--out", str(tmp_path / "ops"))
    assert_line_error(code, stdout, stderr, "poly.txt", index % len(lines) + 1, message)


def test_design_verify_on_a_directory_exits_one(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "design", "verify", "--in", str(tmp_path))
    assert code == 1
    assert stdout == "" and stderr.startswith("error: ")


def bad_polynomial_line(path):
    lines = path.read_text().splitlines()
    lines[2] = "0 1 x"
    path.write_text("\n".join(lines) + "\n")
    return "polynomial.txt: line 3: expected integer block indices"


def sts9_polynomial(path):
    system = bose_construct(9)
    save_polynomial(SteinerPolynomial(system, np.ones(system.num_blocks)), path)
    return "operators.txt: header has n=7, k=3 but polynomial.txt has n=9, k=3"


@pytest.mark.parametrize("corrupt", [bad_polynomial_line, sts9_polynomial],
                         ids=["bad-line", "other-system"])
def test_op_check_rejects_bad_polynomial_line(tmp_path, capsys, corrupt):
    path = built_tuple(tmp_path, capsys) / "polynomial.txt"
    message = corrupt(path)
    code, stdout, stderr = run(capsys, "op", "check", "--in", str(path.parent))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert message in stderr


@pytest.mark.parametrize("row, message", [
    ("3,inf,inf,7", "line 3: expected 15 cells"),
    ("3,inf,inf,7,0,7,1.0,synthetic,2.0,2.0,2.0,1.0,1.0,0,1,9", "line 3: expected 15 cells"),
    ("3,inf,inf,seven,0,7,1.0,synthetic,2.0,2.0,2.0,1.0,1.0,0,1", "line 3: bad cell"),
    ("3,inf,inf,7,0,7,1.0,synthetic,2.0,2.0,2.0,1.0,1.0,yes,1", "line 3: bad cell"),
])
def test_ratio_fit_rejects_bad_row(tmp_path, capsys, row, message):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path, ns=(10,))
    with open(path, "a") as fh:
        fh.write(row + "\n")
    code, stdout, stderr = run(capsys, "ratio", "fit", "--in", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert f"sweep.csv: {message}" in stderr


def test_ratio_fit_synthetic(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path)
    code, stdout, _ = run(capsys, "ratio", "fit", "--in", str(path),
                          "--field", "floor_ratio", "--logcorr", "0")
    assert code == 0
    assert re.search(r"slope 0\.5000", stdout)


def test_ratio_d32_small(tmp_path, capsys):
    code, stdout, _ = run(capsys, "ratio", "d32", "--n", "7", "--seed", "0",
                          "--rounds", "2", "--starts", "4", "--iters", "150",
                          "--search-starts", "2", "--search-iters", "50", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["num_blocks"] == 7
    assert payload["lincomb_sup"] > 0


def test_ratio_sweep_tiny(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "ratio", "sweep", "--k", "3", "--q", "inf",
                          "--r", "inf", "--n", "7,9", "--seeds", "0", "--out", str(out),
                          "--rounds", "2", "--starts", "2", "--iters", "100",
                          "--search-starts", "1", "--search-iters", "50")
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["7", "9"]
    assert (tmp_path / "sweep.csv.manifest.json").exists()


def test_ratio_sweep_error_row_exits_one(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, stderr = run(capsys, "ratio", "sweep", "--k", "3", "--q", "inf",
                          "--r", "inf", "--n", "2,7", "--seeds", "0", "--out", str(out),
                          "--rounds", "2", "--starts", "2", "--iters", "100",
                          "--search-starts", "1", "--search-iters", "50")
    assert code == 1
    assert "1 of 2 cells failed" in stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["2", "7"]
    assert rows[0]["norm_method"].startswith("error:DomainError")
    assert (tmp_path / "sweep.csv.manifest.json").exists()


@pytest.mark.parametrize("q, r", [("inf", "nan"), ("nan", "inf")])
def test_ratio_sweep_rejects_a_nan_exponent(tmp_path, capsys, q, r):
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(capsys, "ratio", "sweep", "--k", "3", "--q", q, "--r", r,
                               "--n", "7,9,13", "--seeds", "0", "--out", str(out),
                               "--rounds", "2", "--starts", "2", "--iters", "100",
                               "--search-starts", "1", "--search-iters", "50")
    assert code == 1 and stdout == "" and "Traceback" not in stderr
    assert not out.exists()


def test_plot_markers_and_slope(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path)
    out = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "plot", "--in", str(path), "--x", "n", "--y", "ratio",
                     "--loglog", "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == 4
    slope_text = re.search(r"slope=(-?\d+\.\d{3})", svg).group(1)
    records = [RatioRecord(3, math.inf, math.inf, n, 0, n, 1.0, "synthetic",
                           n ** 0.5, n ** 0.5, n ** 0.5, 1.0, 1.0, False, 1)
               for n in (10, 20, 40, 80)]
    fit = fit_exponent(records, "ratio", 0.0)
    assert abs(float(slope_text) - fit.slope) <= 5e-4


def test_plot_single_row_fails(tmp_path, capsys):
    path = tmp_path / "one.csv"
    write_power_law_csv(path, ns=(10,))
    code, _, err = run(capsys, "plot", "--in", str(path), "--x", "n", "--y", "ratio",
                       "--out", str(tmp_path / "p.svg"))
    assert code == 1


def test_plot_missing_column_fails(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path)
    code, _, _ = run(capsys, "plot", "--in", str(path), "--x", "nope", "--y", "ratio",
                     "--out", str(tmp_path / "p.svg"))
    assert code == 1


def test_plot_non_numeric_column_fails(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path)
    code, stdout, stderr = run(capsys, "plot", "--in", str(path), "--x", "n",
                               "--y", "norm_method", "--out", str(tmp_path / "p.svg"))
    assert_line_error(code, stdout, stderr, "sweep.csv", 2,
                      "column 'norm_method' holds 'synthetic', not a number")
    assert not (tmp_path / "p.svg").exists()


def test_plot_deterministic_bytes(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    write_power_law_csv(path)
    out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    run(capsys, "plot", "--in", str(path), "--x", "n", "--y", "ratio", "--out", str(out1))
    run(capsys, "plot", "--in", str(path), "--x", "n", "--y", "ratio", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_output_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run(capsys, "design", "gen", "--n", "15", "--method", "greedy",
            "--seed", "4", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["ratio", "sweep", "--k", "3", "--q", "inf", "--r", "inf", "--n", "7",
     "--seeds", "0", "--out", "s.csv"],
    ["ratio", "d32", "--n", "7", "--seed", "0"],
    ["poly", "sample", "--design", "d.txt", "--seed", "0", "--out", "p.txt"],
])
def test_budget_flag_defaults_are_budgets_defaults(argv):
    assert _budgets_from(build_parser().parse_args(argv)) == Budgets()


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "design", "verify", "--bogus", "x")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["design", "--help"], ["design", "gen", "--help"], ["design", "verify", "--help"],
    ["poly", "sample", "--help"], ["poly", "norm", "--help"],
    ["op", "build", "--help"], ["op", "check", "--help"],
    ["ratio", "sweep", "--help"], ["ratio", "fit", "--help"], ["ratio", "d32", "--help"],
    ["plot", "--help"],
])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
