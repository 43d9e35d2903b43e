#!/usr/bin/env python3
"""Commuting contraction tuples built from a Steiner polynomial.

The Hilbert space is a graded shift tower (source e, intermediate multiset
levels, one f_i per variable, sink g); the operator T_l pushes levels up by
appending index l, crossing into the f-layer through the polynomial's signed
blocks.  Everything structural is integer-exact: commutation, Gram products,
and the evaluation identity p(T_1,...,T_n) e = |S| g.
"""

import numpy as np

from steinervn import (SteinerPolynomial, apply_polynomial, build_operators,
                       check_commuting, gram_diagonal_check,
                       linear_combination_sup, operator_norm,
                       polynomial_operator_norm, random_signs,
                       skolem_construct, PartialSteinerSystem)

system = skolem_construct(7)
p = SteinerPolynomial(system, random_signs(system, seed=42))
t = build_operators(p)
print(f"tuple of {t.n} operators on a {t.dim}-dimensional space (2n+2 = {2*t.n+2})")

# Pairwise commutation, checked in exact integer arithmetic.
print("all pairs commute:", check_commuting(t).ok)

# For triple systems every T_l* T_l is diagonal 0/1, certifying norm exactly 1.
reports = gram_diagonal_check(t)
print("Gram diagonal 0/1:", all(r.is_diagonal_01 for r in reports))
print("exact norms (largest row norm):", [operator_norm(op) for op in t.ops[:4]], "...")

# The evaluation identity: applying the polynomial to e lands on |S| g.
image = apply_polynomial(t, p, t.basis.e_vector())
print("p(T)e coefficient on g:", image[t.basis.g_index()], "=", p.num_terms, "blocks")
print("operator norm of p(T):", polynomial_operator_norm(t, p))

# The same norm after the admissibility rescaling T_j -> T_j / n^{1/2}
scaled = t.with_scale(7 ** -0.5)
print("norm after n^{-1/2} scaling:", polynomial_operator_norm(scaled, p))

# sup over unit alpha (l2) of ||sum_j alpha_j T_j||: for triple systems this
# equals max(1, 6 ||p||_2) -- the middle layer realizes the full symmetric
# trilinear form of p.
sup = linear_combination_sup(t, q=2.0, starts=8, iters=40, seed=0)
print(f"sup ||sum alpha_j T_j|| over ||alpha||_2 = 1: {sup:.4f}")

# Degree 4 is different: two blocks may share a pair, and then some T_l is
# an expansion.  The smallest witness lives on 6 points.
anomaly = PartialSteinerSystem(6, 4, 3, ((0, 1, 2, 3), (0, 1, 4, 5)))
p4 = SteinerPolynomial(anomaly, np.array([1, 1]))
t4 = build_operators(p4)
print(f"\nS_p(3,4,6) two-block tuple: ||T_0|| = {operator_norm(t4.ops[0]):.9f} (sqrt 2)")
print("its Gram off-diagonal count:", gram_diagonal_check(t4)[0].offdiag_count)
