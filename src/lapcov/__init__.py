"""Covariance-equation testing and point-mass recovery for atomic measures
on the character spaces of commutative semigroups.

The decision engine (``decide_covariance``) certifies whether a finitely
atomic complex measure satisfies the covariance identity of its generalized
Laplace transform on a probe grid, and recovers the certifying point mass by
two independent routes: transform ratios and Toeplitz/matrix-pencil atom
recovery.  Companion modules cover variation norms and definiteness checks of
pair functions, a constancy test for discrete random vectors, and the
extremal property of truncated analytic kernels.
"""

__version__ = "0.1.0"

from .errors import (
    ExpectationYZero,
    FMuIntegralZero,
    GridTooLarge,
    LapcovError,
    MassZero,
    MissingGridValue,
    NumericOverflow,
    PrimeOutOfRange,
    RankDeficientPencil,
    ScenarioError,
    SymbolUndefinedAtAtom,
    ZeroWeightAtom,
)
from .kernels import (
    KernelCoefficients,
    KernelVerdict,
    default_z_grid,
    kernel_equation_residual,
    kernel_eval,
    kernel_recover,
    truncation_tail_bound,
)
from .laplace import (
    CharacterTable,
    CovarianceVerdict,
    EvaluationGrid,
    Tolerances,
    covariance_residual,
    decide_covariance,
    default_grid,
    degenerate_check,
    factorization_residual,
    laplace_transform,
    multiplicativity_defect,
    recover_point_mass,
    resolve_point,
    transform_block,
)
from .measures import (
    AtomicMeasure,
    Symbol,
    apply_symbol,
    polar_density,
    sup_norm,
    symbol_values,
    total_mass,
    total_variation,
)
from .randomvectors import (
    DiscreteRandomVector,
    VectorVerdict,
    decide_constant_vector,
    moment_condition_residual,
)
from .semigroups import (
    Semigroup,
    char_eval,
    character_matrix,
    combine,
    element_exponents,
    first_primes,
    identity,
    kappa,
)
from .shifts import (
    DefinitenessResult,
    PairFunction,
    ShiftCombination,
    adjoint_op,
    admissible_generator,
    apply_shift,
    bv_norm,
    compose,
    identity_op,
    pair_function_from_measure,
    positive_definite_check,
    semicharacter_defect,
    semicharacter_from_point,
)
from .toeplitz import (
    DiscMeasure,
    LueckingResult,
    Pencil,
    PronyResult,
    character_value_from_atom,
    disc_measure,
    disc_measures,
    luecking_check,
    moment_matrices,
    moment_matrix,
    numerical_rank,
    prony_pencils,
    prony_recover,
    rank_one_check,
    toeplitz_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
