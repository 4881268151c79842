"""conefix: cone metric spaces, T-contraction classes, monitored Picard
iteration, and exact finite-instance oracles."""

from .cone_space import (
    AxiomReport, AxiomViolation, BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError,
    DirectionMetric, DomainError, FinitePointsCarrier, FunctionMetric, IntervalCarrier,
    NormalConstantEstimate, TabulatedMetric, as_vector,
    estimate_normal_constant, verify_cone_axioms, verify_metric_axioms,
)
from .contractions import (
    AffineMap, ClassSpec, ConditionReport, ConditionViolation, FitResult,
    IdentityMap, MapPair, PairSet, PowerMap, ReductionReport, TabulatedMap,
    all_pairs, check_condition, fit_constants, grid_pairs,
    promote_to_weak, rate_from_primary_form, sampled_pairs,
    verify_zamfirescu_reduction, zamfirescu_delta,
)
from .oracle import (
    CrossValidation, FiniteInstance, GeneratedInstance,
    OracleConditionReport, PromotionExhaustive, ReductionExhaustive, TightestResult,
    cross_validate, enumerate_fixed_points, exhaustive_condition_check,
    exhaustive_promotion_check, exhaustive_reduction_check, finite_from_values,
    generate_twu_corpus, generate_tz_corpus, random_finite_instance, tightest_constants,
)
from .solver import (
    DecayReport, FixedPointCheck, IterationTrace, StoppingRule, TDiagnostics, UniquenessVerdict,
    certify_fixed_point, diagnose_T, geometric_decay_check, picard_iterate, solve, solve_starts, uniqueness_probe,
)

__version__ = "0.1.0"
