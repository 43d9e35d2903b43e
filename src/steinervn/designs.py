"""Partial Steiner systems: construction, verification, density reporting.

A partial Steiner system S_p(t, k, n) is a family of k-subsets ("blocks")
of {0, ..., n-1} in which every t-subset of the ground set is contained in
at most one block.  Exact Steiner triple systems (t=2, k=3, every pair in
exactly one block) are built directly for the two admissible residues
n = 3 (mod 6) and n = 1 (mod 6); everything else goes through a seeded
random greedy packing with t = k-1.

Indices are 0-based internally; the CLI renders them 1-based.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, log

import numpy as np

from .errors import DomainError, ValidationError
from .seeding import rng_for

# Above this many candidate k-subsets the greedy stops enumerating and
# falls back to streaming rejection sampling (memory bound: the enumeration
# holds the int64 permutation of the candidate ranks, 80 MB at the limit, one
# chunk of unranked candidates and one flag byte per (k-1)-subset, at most one
# per candidate while 2k <= n + 1; no array of all candidates is built).
ENUMERATION_LIMIT = 10**7

# Candidates unranked and screened together by greedy_construct: the first
# chunk is small, since early on nearly every candidate survives the screen and
# is then checked one by one; chunks double up to the last size.
_CHUNK_SIZES = (64, 1 << 12)


@dataclass
class Violation:
    """A t-subset contained in two blocks, witnessing a failed verification."""

    t_subset: tuple
    first_block: int
    second_block: int


@dataclass
class PartialSteinerSystem:
    n: int
    k: int
    t: int
    blocks: tuple

    _array: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.blocks = tuple(tuple(int(x) for x in b) for b in self.blocks)
        if not (1 <= self.t < self.k):
            raise ValidationError(f"need 1 <= t < k, got t={self.t}, k={self.k}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def blocks_array(self) -> np.ndarray:
        """Blocks as an (m, k) int array; cached."""
        if self._array is None:
            self._array = np.asarray(self.blocks, dtype=np.int64).reshape(len(self.blocks), self.k)
        return self._array


def _check_block(b: tuple, k: int, n: int, name: str):
    if len(b) != k:
        raise ValidationError(f"{name} has size {len(b)}, expected {k}")
    if any(x < 0 or x >= n for x in b):
        raise ValidationError(f"{name} has an index outside [0, {n - 1}]: {b}")
    if any(b[i] >= b[i + 1] for i in range(k - 1)):
        raise ValidationError(f"{name} is not strictly increasing: {b}")


def verify_system(blocks, t: int, k: int, n: int):
    """Check the defining property: every t-subset lies in at most one block.

    Returns ``(True, None)`` or ``(False, Violation)`` for the first pair of
    blocks sharing a t-subset.  Malformed blocks raise ValidationError naming
    the offending block index.  Duplicate blocks are reported as a violation
    of any of their common t-subsets.
    """
    blocks = [tuple(b) for b in blocks]
    for idx, b in enumerate(blocks):
        _check_block(b, k, n, f"block {idx}")
    seen = {}
    for idx, b in enumerate(blocks):
        for sub in combinations(b, t):
            if sub in seen:
                return False, Violation(sub, seen[sub], idx)
            seen[sub] = idx
    return True, None


def verify(system: PartialSteinerSystem):
    """``verify_system`` applied to a PartialSteinerSystem."""
    return verify_system(system.blocks, system.t, system.k, system.n)


def is_exact_cover(system: PartialSteinerSystem) -> bool:
    """True iff every t-subset of the ground set lies in exactly one block."""
    ok, _ = verify(system)
    if not ok:
        return False
    covered = system.num_blocks * comb(system.k, system.t)
    return covered == comb(system.n, system.t)


def cardinality_bound_holds(system: PartialSteinerSystem) -> bool:
    """Exact integer check of |blocks| * C(k,t) <= C(n,t)."""
    return system.num_blocks * comb(system.k, system.t) <= comb(system.n, system.t)


def binomial_table(n: int, k: int) -> np.ndarray:
    """(k+1, n) int64 table of C(c, i) for i <= k and c < n, capped at max(C(n, k), C(n, k-1)).

    Every rank of a k-subset and of a (k-1)-subset of range(n) lies below the
    cap, so capped entries change neither a search for a rank nor a rank sum.
    """
    cap = max(comb(n, k), comb(n, k - 1))
    return np.array([[min(comb(c, i), cap) for c in range(n)] for i in range(k + 1)],
                    dtype=np.int64)


def unrank_lex(ranks, n: int, k: int, table: np.ndarray) -> np.ndarray:
    """Sorted k-subsets of range(n) with the given lexicographic ranks, one row each.

    The lexicographic rank r of S is C(n, k) - 1 - r' with r' the colex rank
    of the mirrored set {n-1-x : x in S}; the mirrored elements come out
    largest first, by one searchsorted over C(., i) for each i = k, ..., 1.
    ``table`` is ``binomial_table(n, k)``.
    """
    rest = comb(n, k) - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(rest), k), dtype=np.int64)
    for i in range(k, 0, -1):
        c = np.searchsorted(table[i], rest, side="right") - 1
        rest = rest - table[i, c]
        out[:, k - i] = n - 1 - c
    return out


def _face_ranks(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex ranks of the (k-1)-subsets of each sorted block; column p drops element p.

    The rank of {x_0 < ... < x_{k-2}} is sum_j C(x_j, j+1).  Dropping x_p keeps
    the place j of every x_j with j < p and moves every x_j with j > p down one,
    so the rank is sum_j C(x_j, j) + sum_{j<p} (C(x_j, j+1) - C(x_j, j)) - C(x_p, p).
    """
    places = np.arange(blocks.shape[1])
    moved = table[places, blocks]
    faces = table[places + 1, blocks]
    faces -= moved
    faces = np.cumsum(faces, axis=1) - faces
    faces -= moved
    faces += moved.sum(axis=1, keepdims=True)
    return faces


def greedy_construct(n: int, k: int, seed: int) -> PartialSteinerSystem:
    """Maximal partial Steiner system with t = k-1 by seeded random greedy.

    Candidate k-subsets are visited in a seeded random permutation of their
    lexicographic ranks; a candidate is accepted iff none of its (k-1)-subsets
    is already used.  Visiting every candidate makes the result maximal.
    Deterministic for fixed (n, k, seed); blocks are returned in lexicographic
    order.

    The permutation is walked in chunks that double in size (_CHUNK_SIZES).  A
    chunk is unranked at once (unrank_lex) and every candidate with a
    (k-1)-subset already marked in a boolean array over their colex ranks is
    dropped; the survivors are then accepted one by one in visiting order,
    since two of them can still share a (k-1)-subset.  Above
    ENUMERATION_LIMIT candidates a streaming rejection sampler runs instead.

    k=2 is allowed and yields a maximal partial matching (t=1).
    """
    if k < 2:
        raise DomainError(f"block size k={k} must be at least 2")
    if k > n:
        raise DomainError(f"block size k={k} exceeds ground set size n={n}")
    total = comb(n, k)
    rng = rng_for(seed, "greedy", n, k)
    accepted = []

    if total <= ENUMERATION_LIMIT:
        table = binomial_table(n, k)
        # one flag per (k-1)-subset, by colex rank: read per survivor in Python,
        # and through the numpy view marked for a whole chunk at once
        used = bytearray(comb(n, k - 1))
        marked = np.frombuffer(used, dtype=bool)
        order = rng.permutation(total)
        lo, size = 0, _CHUNK_SIZES[0]
        while lo < total:
            blocks = unrank_lex(order[lo:lo + size], n, k, table)
            faces = _face_ranks(blocks, table)
            fresh = ~marked[faces].any(axis=1)
            for block, subs in zip(blocks[fresh].tolist(), faces[fresh].tolist()):
                if not any(used[s] for s in subs):
                    for s in subs:
                        used[s] = 1
                    accepted.append(tuple(block))
            lo, size = lo + size, min(2 * size, _CHUNK_SIZES[1])
    else:
        # Streaming fallback: rejection sampling without full enumeration.
        # Maximality is not certified on this path.
        used = set()
        misses = 0
        tried = set()
        while misses < 200 * n:
            block = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            if block in tried:
                misses += 1
                continue
            tried.add(block)
            subs = list(combinations(block, k - 1))
            if any(s in used for s in subs):
                misses += 1
            else:
                used.update(subs)
                accepted.append(block)
                misses = 0

    accepted.sort()
    return PartialSteinerSystem(n, k, k - 1, tuple(accepted))


def bose_construct(n: int) -> PartialSteinerSystem:
    """Steiner triple system on n = 3 (mod 6) points (Bose construction).

    Points are Z_m x {0,1,2} with m = n/3 odd, indexed as x + m*i.  Blocks
    come from the idempotent commutative quasigroup x*y = (x+y)(m+1)/2 mod m:
    the m "vertical" triples {(x,0),(x,1),(x,2)} and, for each unordered pair
    x < y and level i, the triple {(x,i), (y,i), (x*y, i+1)}.
    """
    if n < 3 or n % 6 != 3:
        raise DomainError(
            f"Bose construction needs n = 3 (mod 6), got n={n}; "
            "use skolem_construct for n = 1 (mod 6) or greedy_construct otherwise"
        )
    m = n // 3
    half = (m + 1) // 2  # multiplicative inverse of 2 in Z_m (m odd)

    def point(x, i):
        return x + m * i

    blocks = [tuple(sorted((point(x, 0), point(x, 1), point(x, 2)))) for x in range(m)]
    for i in range(3):
        for x in range(m):
            for y in range(x + 1, m):
                z = ((x + y) * half) % m
                blocks.append(tuple(sorted((point(x, i), point(y, i), point(z, (i + 1) % 3)))))
    blocks.sort()
    return PartialSteinerSystem(n, 3, 2, tuple(blocks))


def skolem_construct(n: int) -> PartialSteinerSystem:
    """Steiner triple system on n = 1 (mod 6) points (Skolem construction).

    Points are (Z_{2t} x {0,1,2}) plus one extra point, n = 6t+1.  Uses the
    half-idempotent commutative quasigroup on Z_{2t} obtained from the
    addition table by renaming even sums e -> e/2 and odd sums o -> t+(o-1)/2.
    """
    if n < 7 or n % 6 != 1:
        raise DomainError(
            f"Skolem construction needs n = 1 (mod 6) and n >= 7, got n={n}; "
            "use bose_construct for n = 3 (mod 6) or greedy_construct otherwise"
        )
    t = n // 6
    m = 2 * t
    inf = n - 1  # the extra point

    def rename(v):
        return v // 2 if v % 2 == 0 else t + (v - 1) // 2

    def star(x, y):
        return rename((x + y) % m)

    def point(x, i):
        return x + m * i

    blocks = [tuple(sorted((point(x, 0), point(x, 1), point(x, 2)))) for x in range(t)]
    for i in range(3):
        for x in range(t, m):
            blocks.append(tuple(sorted((inf, point(x, i), point(x - t, (i + 1) % 3)))))
    for i in range(3):
        for x in range(m):
            for y in range(x + 1, m):
                blocks.append(tuple(sorted((point(x, i), point(y, i), point(star(x, y), (i + 1) % 3)))))
    blocks.sort()
    return PartialSteinerSystem(n, 3, 2, tuple(blocks))


def construct(n: int, k: int, method: str, seed: int = 0) -> PartialSteinerSystem:
    """Dispatch on construction method name: 'greedy', 'bose' or 'skolem'."""
    if method == "greedy":
        return greedy_construct(n, k, seed)
    if method == "bose":
        if k != 3:
            raise DomainError("bose_construct builds triple systems (k=3)")
        return bose_construct(n)
    if method == "skolem":
        if k != 3:
            raise DomainError("skolem_construct builds triple systems (k=3)")
        return skolem_construct(n)
    raise ValidationError(f"unknown construction method {method!r}")


def packing_density_target(k: int, n: int) -> float:
    """Reference cardinality (1 - loss(n)) * C(n, k-1)/k for near-optimal packings.

    The loss term is c * log^{3/2}(n) / n^{1/(k-1)} for k=3 and
    c / n^{1/(k-1)} otherwise, with c = 1.  The constant c is not pinned by
    theory; the value is reported for orientation only and never asserted as
    an achievable target.
    """
    lead = comb(n, k - 1) / k
    if k == 3:
        loss = log(n) ** 1.5 / n ** 0.5
    else:
        loss = 1.0 / n ** (1.0 / (k - 1))
    return lead * (1.0 - loss)


def density_report(system: PartialSteinerSystem) -> dict:
    """Cardinality of a verified system against its combinatorial ceiling."""
    ceiling = comb(system.n, system.t) / comb(system.k, system.t)
    return {
        "cardinality": system.num_blocks,
        "ceiling": ceiling,
        "psi_target": packing_density_target(system.k, system.n),
        "fill_ratio": system.num_blocks / ceiling,
    }


def save_system(system: PartialSteinerSystem, path):
    """Plain-text format: first line ``n k t``, then one sorted block per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{system.n} {system.k} {system.t}\n")
        for b in system.blocks:
            fh.write(" ".join(str(x) for x in b) + "\n")


def numbered_lines(path) -> list:
    """(line number, tokens) of each nonblank line, from 1; a non-ASCII byte reads as U+FFFD."""
    with open(path, encoding="ascii", errors="replace") as fh:
        return [(num, ln.split()) for num, ln in enumerate(fh, start=1) if ln.strip()]


def line_ints(path, num, tokens, count, expected: str) -> tuple:
    """Integers of the tokens of line ``num`` of ``path``; a non-integer token, or a count
    other than a non-None ``count``, raises "<path>: line <num>: expected <expected>"."""
    try:
        values = tuple(int(tok) for tok in tokens)
    except ValueError:
        values = None
    if values is None or (count is not None and len(values) != count):
        raise ValidationError(f"{path}: line {num}: expected {expected}")
    return values


def parse_system(path, lines) -> PartialSteinerSystem:
    """A system from the ``numbered_lines`` of its file: header ``n k t``, then the blocks."""
    if not lines:
        raise ValidationError(f"{path}: empty system file")
    n, k, t = line_ints(path, *lines[0], 3, "three integers 'n k t'")
    if not 1 <= t < k:
        raise ValidationError(f"{path}: line {lines[0][0]}: need 1 <= t < k, got t={t}, k={k}")
    blocks = []
    for idx, (num, tokens) in enumerate(lines[1:]):
        blocks.append(line_ints(path, num, tokens, None, "integer block indices"))
        _check_block(blocks[-1], k, n, f"{path}: line {num}: block {idx}")
    return PartialSteinerSystem(n, k, t, tuple(blocks))


def load_system(path) -> PartialSteinerSystem:
    return parse_system(path, numbered_lines(path))
