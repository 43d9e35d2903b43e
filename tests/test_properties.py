"""Property tests over random greedy systems (Hypothesis, derandomized)."""

import dataclasses
import tempfile
from math import factorial, inf, sqrt
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steinervn.defect import RatioRecord, _write_rows, load_records
from steinervn.designs import greedy_construct, load_system, save_system, verify_system
from steinervn.norms import estimate_norm, recertify
from steinervn.operators import (build_operators, check_commuting, load_tuple,
                                 operator_norm, polynomial_operator_norm, save_tuple)
from steinervn.polynomials import (SteinerPolynomial, load_polynomial, relabel,
                                   save_polynomial)

# Repeatable runs that leave no example database behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def greedy_systems(draw, min_k=2):
    k = draw(st.integers(min_k, 4))
    n = draw(st.integers(k + 1, 14))
    return greedy_construct(n, k, draw(st.integers(0, 2**31 - 1)))


def signed(system, data):
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=system.num_blocks,
                               max_size=system.num_blocks))
    return SteinerPolynomial(system, np.array(signs, dtype=np.int8))


def entries(op):
    """(col, row, value) triples of an operator's column map, sorted."""
    cols = np.flatnonzero(op.rows >= 0)
    return sorted(zip(cols.tolist(), op.rows[cols].tolist(), op.vals[cols].tolist()))


def same_cell(a, b):
    """Equal, with NaN equal to NaN (error rows hold NaN numerics)."""
    return a == b or (a != a and b != b)


ratio_records = st.builds(
    RatioRecord,
    k=st.integers(2, 9), q=st.floats(), r=st.floats(), n=st.integers(1, 10**4),
    seed=st.integers(0, 2**63 - 1), num_blocks=st.integers(0, 10**6),
    norm_est=st.floats(), norm_method=st.text(st.characters(min_codepoint=32, max_codepoint=126)),
    op_norm=st.floats(), ratio=st.floats(), floor_ratio=st.floats(), ksz_ref=st.floats(),
    analytic_lower_ref=st.floats(), normalized_flag=st.booleans(),
    elapsed_ms=st.integers(0, 10**9))


@PROPERTY
@given(greedy_systems(), st.data())
def test_verify_catches_appended_block_sharing_a_subset(system, data):
    block = data.draw(st.sampled_from(system.blocks))
    drop = data.draw(st.sampled_from(block))
    extra = data.draw(st.sampled_from([x for x in range(system.n) if x not in block]))
    shared = tuple(x for x in block if x != drop)
    clash = tuple(sorted(shared + (extra,)))
    blocks = list(system.blocks) + [clash]
    ok, violation = verify_system(blocks, system.t, system.k, system.n)
    assert not ok
    assert violation.second_block == len(blocks) - 1
    assert set(violation.t_subset) <= set(clash)
    assert set(violation.t_subset) <= set(blocks[violation.first_block])


@PROPERTY
@given(greedy_systems(), st.data())
def test_system_and_polynomial_files_roundtrip(system, data):
    p = signed(system, data)
    with tempfile.TemporaryDirectory() as tmp:
        save_system(system, Path(tmp) / "system.txt")
        assert load_system(Path(tmp) / "system.txt") == system
        save_polynomial(p, Path(tmp) / "poly.txt")
        loaded = load_polynomial(Path(tmp) / "poly.txt")
    assert loaded.system == system
    assert np.array_equal(loaded.signs, p.signs)


@PROPERTY
@given(greedy_systems(), st.data())
def test_recertify_holds_for_random_q(system, data):
    q = data.draw(st.one_of(st.just(inf), st.floats(1.0, 8.0)))
    p = signed(system, data)
    est = estimate_norm(p, q, starts=2, max_iters=30, seed=data.draw(st.integers(0, 2**31 - 1)))
    assert recertify(p, est)


@PROPERTY
@given(greedy_systems(), st.data())
def test_estimate_below_the_l2_flattening_ceiling(system, data):
    # In a t = k-1 system each (k-1)-tuple completes to at most one block, so the
    # mode-1 flattening of p's symmetric tensor has one nonzero per column and its
    # norm is its largest row norm, sqrt(r_max / (k k!)), with r_max the largest
    # number of blocks through one point.  That bounds |p| on the unit l2 ball, and
    # ||z||_2 <= n^(1/2 - 1/q) ||z||_q carries it to q >= 2.  The witness lies in
    # the ball; the 1e-12 covers the rounding of the ceiling.
    q = data.draw(st.sampled_from([2.0, 3.0]))
    p = signed(system, data)
    k, n = system.k, system.n
    r_max = np.bincount(system.blocks_array().ravel(), minlength=n).max()
    ceiling = sqrt(r_max / (k * factorial(k))) * n ** (k * (0.5 - 1.0 / q))
    est = estimate_norm(p, q, starts=2, max_iters=60, seed=data.draw(st.integers(0, 2**31 - 1)))
    assert est.value <= ceiling * (1 + 1e-12)


@PROPERTY
@given(greedy_systems(min_k=3), st.data())
def test_tuple_files_roundtrip(system, data):
    scale = data.draw(st.floats(1e-6, 1e6))
    t = build_operators(signed(system, data)).with_scale(scale)
    with tempfile.TemporaryDirectory() as tmp:
        save_tuple(t, tmp)
        loaded = load_tuple(tmp)
    assert (loaded.dim, loaded.n, loaded.k, loaded.scale) == (t.dim, t.n, t.k, scale)
    assert loaded.polynomial.system == system
    assert np.array_equal(loaded.polynomial.signs, t.polynomial.signs)
    assert [entries(op) for op in loaded.ops] == [entries(op) for op in t.ops]


@PROPERTY
@given(greedy_systems(min_k=3), st.data())
def test_norms_and_commutation_invariant_under_relabel(system, data):
    p = signed(system, data)
    perm = data.draw(st.permutations(range(system.n)))
    moved = relabel(p, perm)
    t, t_moved = build_operators(p), build_operators(moved)
    assert check_commuting(t_moved).ok
    assert polynomial_operator_norm(t_moved) == polynomial_operator_norm(t)
    assert sorted(map(operator_norm, t_moved.ops)) == sorted(map(operator_norm, t.ops))
    # relabel(p, perm)(z) = p(z[perm]), so the witness moves to z with z[perm] = w
    q = data.draw(st.one_of(st.just(inf), st.floats(1.0, 8.0)))
    est = estimate_norm(p, q, starts=2, max_iters=30, seed=data.draw(st.integers(0, 2**31 - 1)))
    witness = np.empty_like(est.witness)
    witness[list(perm)] = est.witness
    assert recertify(moved, dataclasses.replace(est, witness=witness))


@PROPERTY
@given(st.lists(ratio_records, max_size=6))
def test_sweep_csv_roundtrip(records):
    with tempfile.TemporaryDirectory() as tmp:
        _write_rows(Path(tmp) / "sweep.csv", records)
        loaded = load_records(Path(tmp) / "sweep.csv")
    assert len(loaded) == len(records)
    for back, rec in zip(loaded, records):
        assert all(map(same_cell, dataclasses.astuple(back), dataclasses.astuple(rec)))
