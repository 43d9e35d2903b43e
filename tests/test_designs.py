import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from steinervn import designs
from steinervn.designs import (PartialSteinerSystem, binomial_table,
                               bose_construct, cardinality_bound_holds,
                               density_report, greedy_construct,
                               is_exact_cover, load_system,
                               packing_density_target, save_system,
                               skolem_construct, unrank_lex, verify,
                               verify_system)
from steinervn.errors import DomainError, ValidationError
from steinervn.seeding import rng_for


def coverage_counts(blocks, t, n):
    """Independent oracle: occurrences of every t-subset, by exhaustive scan."""
    counts = {sub: 0 for sub in combinations(range(n), t)}
    for b in blocks:
        for sub in combinations(b, t):
            counts[sub] += 1
    return counts


def test_verify_disjoint_pairs_ok():
    ok, violation = verify_system([(0, 1, 2), (0, 3, 4)], t=2, k=3, n=5)
    assert ok and violation is None


def test_verify_repeated_pair_reports_blocks():
    ok, violation = verify_system([(0, 1, 2), (0, 1, 3)], t=2, k=3, n=4)
    assert not ok
    assert violation.t_subset == (0, 1)
    assert (violation.first_block, violation.second_block) == (0, 1)


def test_verify_malformed_block_names_index():
    with pytest.raises(ValidationError, match="block 1"):
        verify_system([(0, 1, 2), (2, 1, 3)], t=2, k=3, n=4)
    with pytest.raises(ValidationError, match="block 0"):
        verify_system([(0, 1)], t=2, k=3, n=4)
    with pytest.raises(ValidationError, match="block 0"):
        verify_system([(0, 1, 9)], t=2, k=3, n=4)


def test_bose_9_every_pair_exactly_once():
    system = bose_construct(9)
    assert system.num_blocks == 12
    counts = coverage_counts(system.blocks, 2, 9)
    assert len(counts) == 36
    assert all(c == 1 for c in counts.values())


def test_bose_3_single_block():
    assert bose_construct(3).blocks == ((0, 1, 2),)


def test_bose_rejects_bad_residue():
    with pytest.raises(DomainError, match="n = 3"):
        bose_construct(8)


def test_skolem_7_is_fano_sized():
    system = skolem_construct(7)
    assert system.num_blocks == 7
    counts = coverage_counts(system.blocks, 2, 7)
    assert all(c == 1 for c in counts.values())


def test_skolem_13():
    system = skolem_construct(13)
    assert system.num_blocks == 26
    assert is_exact_cover(system)


def test_skolem_rejects_bad_residue():
    with pytest.raises(DomainError):
        skolem_construct(9)


@pytest.mark.parametrize("n", [n for n in range(3, 100) if n % 6 in (1, 3) and n != 1])
def test_exact_systems_all_admissible(n):
    if n % 6 == 3:
        system = bose_construct(n)
    elif n >= 7:
        system = skolem_construct(n)
    else:
        pytest.skip("no triple system below 7 with n = 1 mod 6")
    assert system.num_blocks == n * (n - 1) // 6
    assert is_exact_cover(system)


def test_greedy_n3_single_block():
    for seed in (0, 1, 17):
        assert greedy_construct(3, 3, seed).blocks == ((0, 1, 2),)


def test_greedy_verifies_and_respects_cardinality_bound():
    system = greedy_construct(7, 3, 0)
    ok, _ = verify(system)
    assert ok
    assert system.num_blocks <= 7  # C(7,2)/3
    assert cardinality_bound_holds(system)


def test_greedy_k4_triple_coverage():
    system = greedy_construct(20, 4, 1)
    counts = coverage_counts(system.blocks, 3, 20)
    assert set(counts.values()) <= {0, 1}


def test_greedy_deterministic():
    a = greedy_construct(15, 3, 5)
    b = greedy_construct(15, 3, 5)
    assert a.blocks == b.blocks
    c = greedy_construct(15, 3, 6)
    assert c.blocks != a.blocks


@pytest.mark.parametrize("n,k", [(9, 3), (12, 3), (15, 3), (10, 4)])
def test_greedy_maximal(n, k):
    # no k-subset outside the system can be added without reusing a (k-1)-set
    system = greedy_construct(n, k, 2)
    used = set()
    for b in system.blocks:
        used.update(combinations(b, k - 1))
    for cand in combinations(range(n), k):
        if cand in system.blocks:
            continue
        assert any(sub in used for sub in combinations(cand, k - 1)), cand


def unrank_subset(rank, n, k):
    """Reference: the k-subset of {0..n-1} with the given lexicographic rank."""
    out = []
    x = 0
    for i in range(k):
        while comb(n - 1 - x, k - 1 - i) <= rank:
            rank -= comb(n - 1 - x, k - 1 - i)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def reference_greedy_blocks(n, k, seed):
    """Reference greedy: unrank each candidate of the seeded permutation."""
    rng = rng_for(seed, "greedy", n, k)
    used, accepted = set(), []
    for rank in rng.permutation(comb(n, k)):
        block = unrank_subset(int(rank), n, k)
        subs = list(combinations(block, k - 1))
        if not any(s in used for s in subs):
            used.update(subs)
            accepted.append(block)
    return tuple(sorted(accepted))


@pytest.mark.parametrize("n,k", [(5, 5), (7, 2), (9, 4), (12, 3)])
def test_unrank_lex_follows_combinations_order(n, k):
    table = binomial_table(n, k)
    blocks = unrank_lex(np.arange(comb(n, k)), n, k, table)
    assert [tuple(b) for b in blocks.tolist()] == list(combinations(range(n), k))
    assert unrank_lex(np.zeros(0, dtype=np.int64), n, k, table).shape == (0, k)


@pytest.mark.parametrize("n,k", [(26, 4), (34, 4), (42, 4), (20, 3), (50, 3), (9, 5)])
def test_greedy_matches_unranking_reference(n, k):
    for seed in (0, 1, 2):
        assert greedy_construct(n, k, seed).blocks == reference_greedy_blocks(n, k, seed)


def test_greedy_enumeration_holds_no_candidate_array():
    # ENUMERATION_LIMIT's memory bound: the int64 permutation of the ranks, one chunk
    # and the (k-1)-subset flags
    tracemalloc.start()
    try:
        greedy_construct(60, 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * comb(60, 4) + 4_000_000


def test_greedy_streaming_fallback(monkeypatch):
    enumerated = greedy_construct(12, 3, seed=4)
    monkeypatch.setattr(designs, "ENUMERATION_LIMIT", comb(12, 3) - 1)
    system = greedy_construct(12, 3, seed=4)
    ok, _ = verify(system)
    assert ok and system.num_blocks > 0
    assert greedy_construct(12, 3, seed=4).blocks == system.blocks
    # the sampled visiting order differs from the permutation, so a different
    # packing shows that the streaming path ran
    assert system.blocks != enumerated.blocks


def test_greedy_k2_is_matching():
    system = greedy_construct(10, 2, 3)
    seen = set()
    for a, b in system.blocks:
        assert a not in seen and b not in seen
        seen.update((a, b))
    assert system.num_blocks == 5


def test_greedy_rejects_k_above_n():
    with pytest.raises(DomainError):
        greedy_construct(3, 4, 0)


def test_density_sts9():
    report = density_report(bose_construct(9))
    assert report["cardinality"] == 12
    assert report["ceiling"] == 12.0
    assert report["fill_ratio"] == 1.0


def test_density_single_block():
    system = PartialSteinerSystem(3, 3, 2, ((0, 1, 2),))
    assert density_report(system)["fill_ratio"] == 1.0


def test_density_greedy_50():
    report = density_report(greedy_construct(50, 3, 0))
    assert report["fill_ratio"] >= 0.5


def test_packing_target_below_ceiling():
    for n, k in [(20, 3), (50, 3), (30, 4)]:
        assert packing_density_target(k, n) <= comb(n, k - 1) / k


def test_system_file_roundtrip(tmp_path):
    system = skolem_construct(13)
    path = tmp_path / "sts13.txt"
    save_system(system, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "13 3 2"
    assert len(lines) == 27
    loaded = load_system(path)
    assert loaded == PartialSteinerSystem(13, 3, 2, system.blocks)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3 2\n0 2 1\n")
    with pytest.raises(ValidationError):
        load_system(path)
