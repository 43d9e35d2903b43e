import csv
import math
from math import inf, log, nan

import pytest

from steinervn.defect import (Budgets, RatioRecord, SweepConfig,
                              d32_experiment, design_for, fit_exponent,
                              load_records, ratio_point, reference_growth,
                              sweep)
from steinervn.errors import DomainError, ValidationError
from steinervn.norms import ksz_polydisk_bound

FAST = Budgets(rounds=4, starts=8, iters=400, search_starts=2, search_iters=80,
               lincomb_starts=3, lincomb_iters=20)


def synthetic_records(values_by_n, seeds=1):
    records = []
    for n, value in values_by_n.items():
        for s in range(seeds):
            records.append(RatioRecord(3, inf, inf, n, s, n, 1.0, "synthetic",
                                       value, value, value, 1.0, 1.0, False, 0))
    return records


def test_design_for_uses_exact_systems():
    assert design_for(3, 7, 0).num_blocks == 7
    assert design_for(3, 9, 0).num_blocks == 12
    ok = design_for(3, 8, 0)  # falls back to greedy
    assert ok.num_blocks <= 9  # C(8,2)/3


def test_ratio_point_smallest_instance():
    rec = ratio_point(3, 3, inf, inf, 0, FAST)
    assert rec.num_blocks == 1
    assert math.isfinite(rec.ratio)
    assert rec.ratio >= rec.floor_ratio - 1e-9


def test_ratio_point_sts7_qinf():
    rec = ratio_point(3, 7, inf, inf, 0, FAST)
    assert rec.num_blocks == 7
    assert rec.ratio >= rec.floor_ratio - 1e-9
    assert not rec.normalized_flag
    assert rec.ksz_ref == ksz_polydisk_bound(7, 3, 7)


def test_ratio_point_q2_scaling_arithmetic():
    rec = ratio_point(3, 7, 2.0, 2.0, 0, FAST)
    # floor numerator |S| * n^{-k/r} = 7 * 7^{-3/2} = 7^{-1/2}
    assert abs(rec.floor_ratio * rec.norm_est - 7 ** -0.5) <= 1e-9


@pytest.mark.parametrize("q, r", [(nan, inf), (inf, nan), (0.5, inf), (inf, 0.0)])
def test_ratio_point_rejects_exponents_outside_one_to_inf(q, r):
    with pytest.raises(DomainError):
        ratio_point(3, 7, q, r, 0, FAST)


@pytest.mark.parametrize("seed, budgets", [
    (5, Budgets(rounds=1, starts=2, iters=40, search_starts=1, search_iters=20)),
    (0, Budgets())], ids=["tiny-budgets", "default-budgets"])
def test_certified_norm_never_exceeds_the_block_count(seed, budgets):
    # |p| <= 7 on the polydisk for 7 unimodular terms, and on STS(7) the sup reaches 7:
    # certifying the modulus of a rounded sum at moduli rounded to 1 gave 7.000000000000001
    rec = ratio_point(3, 7, inf, inf, seed, budgets)
    assert rec.num_blocks == 7 and rec.norm_est <= 7.0, rec.norm_est


def test_ratio_point_k4_flagged_and_normalized():
    rec = ratio_point(4, 10, inf, inf, 0, FAST)
    assert rec.normalized_flag


def test_ratio_equals_floor_ratio_exactly():
    # p(T) = |S| g e^T, so the operator norm is |S| scale^k bit for bit
    for k, n in ((3, 7), (4, 10)):
        rec = ratio_point(k, n, inf, 2.0, 0, FAST)
        assert rec.ratio == rec.floor_ratio


def test_reference_growth_cases():
    assert abs(reference_growth(3, inf, inf, 49) - 49 ** 0.5) <= 1e-12
    v = reference_growth(3, 2.0, 2.0, 49)
    assert abs(v - 49 ** 0.5 / log(49) ** 1.5) <= 1e-12
    w = reference_growth(3, 1.5, 2.0, 49)  # q<2 branch uses conjugates
    assert math.isfinite(w) and w > 0


def test_sweep_shape_and_exact_counts(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = SweepConfig(3, inf, inf, [7, 9, 13], [0, 1], FAST, str(out))
    records = sweep(cfg)
    assert len(records) == 6
    for rec in records:
        assert rec.num_blocks == rec.n * (rec.n - 1) // 6
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [int(r["n"]) for r in rows] == [7, 7, 9, 9, 13, 13]


def test_sweep_reproducible_modulo_elapsed(tmp_path):
    cfg1 = SweepConfig(3, 2.0, 2.0, [7, 9], [0], FAST, str(tmp_path / "a.csv"))
    cfg2 = SweepConfig(3, 2.0, 2.0, [7, 9], [0], FAST, str(tmp_path / "b.csv"))
    sweep(cfg1)
    sweep(cfg2)

    def strip_elapsed(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return [row[:-1] for row in rows]

    assert strip_elapsed(tmp_path / "a.csv") == strip_elapsed(tmp_path / "b.csv")


def test_sweep_validates_n_list():
    with pytest.raises(ValidationError):
        sweep(SweepConfig(3, inf, inf, [], [0], FAST))
    with pytest.raises(ValidationError):
        sweep(SweepConfig(3, inf, inf, [9, 7], [0], FAST))


def test_sweep_error_rows_keep_going(tmp_path):
    # n=5 < 7 with n % 6 == 5 goes to greedy, fine; n=4 < k? use k=3, n=2 -> error
    out = tmp_path / "err.csv"
    cfg = SweepConfig(3, inf, inf, [2, 7], [0], FAST, str(out))
    records = sweep(cfg)
    assert len(records) == 2
    assert records[0].norm_method.startswith("error:")
    assert math.isnan(records[0].ratio)
    assert records[1].num_blocks == 7
    loaded = load_records(out)
    assert math.isnan(loaded[0].ratio) and loaded[1].num_blocks == 7


def test_sweep_propagates_programming_errors(monkeypatch, tmp_path):
    from steinervn import defect

    def broken(*args):
        raise TypeError("bug in a cell")

    monkeypatch.setattr(defect, "ratio_point", broken)
    cfg = SweepConfig(3, inf, inf, [7], [0], FAST, str(tmp_path / "bug.csv"))
    with pytest.raises(TypeError, match="bug in a cell"):
        sweep(cfg)


def test_sweep_checkpoints_each_cell(monkeypatch, tmp_path):
    from steinervn import defect

    out = tmp_path / "ckpt.csv"
    partial = tmp_path / "ckpt.csv.partial"
    calls = []

    def fake_cell(k, n, q, r, seed, budgets):
        if calls:
            assert partial.exists()
            assert len(load_records(partial)) == len(calls)
        calls.append((n, seed))
        return RatioRecord(k, float(q), float(r), n, seed, n, 1.0, "synthetic",
                           1.0, 1.0, 1.0, 1.0, 1.0, False, 0)

    monkeypatch.setattr(defect, "ratio_point", fake_cell)
    records = sweep(SweepConfig(3, inf, inf, [7, 9], [1, 0], FAST, str(out)))
    assert calls == [(7, 1), (7, 0), (9, 1), (9, 0)]
    assert [(rec.n, rec.seed) for rec in records] == [(7, 0), (7, 1), (9, 0), (9, 1)]
    assert not partial.exists()
    assert len(load_records(out)) == 4


def test_csv_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = SweepConfig(3, 2.0, 2.0, [7], [0, 1], FAST, str(out))
    records = sweep(cfg)
    loaded = load_records(out)
    assert loaded == records


def test_fit_exact_power_law():
    fit = fit_exponent(synthetic_records({n: n ** 0.5 for n in (10, 20, 40, 80)}))
    assert abs(fit.slope - 0.5) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12


def test_fit_log_correction_removes_log():
    values = {n: n ** 0.5 * log(n) ** -1.5 for n in (10, 20, 40, 80, 160)}
    fit = fit_exponent(synthetic_records(values), log_correction=-1.5)
    assert abs(fit.slope - 0.5) <= 1e-12


def test_fit_median_aggregation():
    records = []
    for n in (10, 20, 40):
        for s, value in enumerate([n ** 0.5, 100.0 * n, n ** 0.5]):
            records.append(RatioRecord(3, inf, inf, n, s, n, 1.0, "synthetic",
                                       value, value, value, 1.0, 1.0, False, 0))
    fit = fit_exponent(records)
    assert abs(fit.slope - 0.5) <= 1e-12  # the outlier seed is ignored by the median


def test_fit_excludes_nonpositive(caplog):
    records = synthetic_records({n: n ** 0.5 for n in (10, 20, 40)})
    records += synthetic_records({80: -1.0})
    fit = fit_exponent(records)
    assert abs(fit.slope - 0.5) <= 1e-12


def test_fit_needs_three_n():
    with pytest.raises(DomainError):
        fit_exponent(synthetic_records({10: 1.0, 20: 2.0}))


def test_fit_rejects_unknown_field():
    with pytest.raises(ValidationError):
        fit_exponent(synthetic_records({10: 1.0, 20: 2.0, 40: 3.0}), "elapsed_ms")


def test_ksz_floor_arithmetic_identity():
    # |S| / ksz(n, 3, |S|) == (1/8) sqrt(|S| / (n ln 3)), checked symbolically
    # at n = 10^6 where |S| is the exact triple-system count
    n = 10 ** 6
    s = n * (n - 1) // 6
    lhs = s / ksz_polydisk_bound(n, 3, s)
    rhs = 0.125 * math.sqrt(s / (n * log(3)))
    assert abs(lhs - rhs) <= 1e-6 * rhs


def test_d32_n7():
    rec = d32_experiment(7, 0, FAST)
    assert rec.num_blocks == 7
    assert abs(rec.ratio - 7 / rec.norm_est2 ** 2.5) <= 1e-9
    assert abs(rec.reference - 49 / log(7) ** 3.75) <= 1e-12
    assert rec.lincomb_sup > 0


def test_d32_flags_condition_violation():
    # the l2 estimate is a lower bound of the true norm, and the rescaled
    # joint-condition sup genuinely exceeds 1 at this scale, so the record
    # must carry the flag rather than fail
    rec = d32_experiment(7, 0, FAST)
    if rec.lincomb_sup > 1 + 1e-6:
        assert rec.ivp_flagged
    else:
        assert not rec.ivp_flagged


def test_d32_rejects_small_n():
    with pytest.raises(DomainError):
        d32_experiment(5, 0, FAST)
