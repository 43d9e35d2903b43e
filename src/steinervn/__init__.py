"""Steiner unimodular polynomials, commuting contraction tuples, and
empirical growth of multivariable von Neumann constants."""

__version__ = "0.1.0"

from .designs import (PartialSteinerSystem, bose_construct, density_report,
                      greedy_construct, is_exact_cover, load_system,
                      save_system, skolem_construct, verify, verify_system)
from .defect import (Budgets, FitResult, JointConditionRecord, RatioRecord,
                     SweepConfig, d32_experiment, fit_exponent, load_records,
                     ratio_point, sweep)
from .errors import ConvergenceError, DomainError, ValidationError
from .norms import (BoundSet, NormEstimate, analytic_bounds, best_of_signs,
                    brute_force_norm, estimate_norm, ksz_polydisk_bound,
                    polarization_constant, recertify)
from .operators import (ColumnMap, HilbertBasis, OperatorTuple, apply_polynomial,
                        build_basis, build_operators, check_commuting,
                        contraction_normalize, gram_diagonal_check,
                        linear_combination_sup, load_tuple, operator_norm,
                        polynomial_operator_norm, save_tuple)
from .polynomials import (SteinerPolynomial, load_polynomial, random_signs,
                          save_polynomial)
