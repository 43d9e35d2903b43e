"""Property tests over random greedy systems (Hypothesis, derandomized)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steinervn.designs import greedy_construct, load_system, save_system, verify_system
from steinervn.polynomials import SteinerPolynomial, load_polynomial, save_polynomial

# Repeatable runs that leave no example database behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def greedy_systems(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 14))
    return greedy_construct(n, k, draw(st.integers(0, 2**31 - 1)))


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
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=system.num_blocks,
                               max_size=system.num_blocks))
    p = SteinerPolynomial(system, np.array(signs, dtype=np.int8))
    with tempfile.TemporaryDirectory() as tmp:
        save_system(system, Path(tmp) / "system.txt")
        assert load_system(Path(tmp) / "system.txt") == system
        save_polynomial(p, Path(tmp) / "poly.txt")
        loaded = load_polynomial(Path(tmp) / "poly.txt")
    assert loaded.system == system
    assert np.array_equal(loaded.signs, p.signs)
