"""Moments of random multiplicative sums and truncated characteristic polynomials.

Exact lattice counts, Euler-product constants, polytope volumes, random
matrix moments, and Monte Carlo simulation, wired together so every
asymptotic claim in the pipeline can be checked against an exact or
independently sampled counterpart.
"""

from .acceptance import CriterionResult, run_all, run_criterion
from .analytic import (
    AsymptoticTerm,
    BoundResult,
    agm,
    comparison_constant,
    conjectured_coefficient,
    conjectured_moment,
    cs_bound_minimize,
    hyper_2F1_series,
    rademacher_asymptotic_rhs,
    steinhaus_asymptotic_rhs,
)
from .arith import (
    EulerProductResult,
    a_constant,
    b_constant,
    factorize_small,
    primes_up_to,
)
from .errors import ResourceLimitError
from .estimates import DEFAULT_SEED, MomentEstimate
from .exact_counts import (
    CharAverageResult,
    EnergyResult,
    MultiplicityMap,
    char_moment_average,
    congruence_count,
    product_multiplicity_map,
    rademacher_moment_sign_enum,
    rademacher_moment_tuple_count,
    steinhaus_energy,
)
from .polytopes import (
    PolytopeSpec,
    RationalPolynomial,
    alpha_box,
    alpha_constant,
    beta_constant,
    beta_mixed,
    birkhoff,
    ehrhart_polynomial,
    count_margin_matrices,
    gamma_constant,
    gamma_sym,
    lattice_count,
    mc_volume,
    relative_volume,
)
from .rmt import (
    SecularSample,
    TruncatedMomentQuery,
    I1_two_ways,
    haar_unitary_secular,
    hyper_Fk,
    mc_truncated_moment,
    so_asymptotic_rhs,
    so_truncated_coefficients,
    so_truncated_moment_exact,
    unitary_asymptotic_rhs,
    unitary_truncated_coefficients,
    unitary_truncated_moment_exact,
)
from .simulate import estimate_abs_moment, helson_table

__version__ = "0.1.0"
