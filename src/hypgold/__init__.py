"""Deformed-line codings, hyperbolic classification of naturals,
essential-region area calculus, and the Goldbach partition machinery."""

from .coding import PrimeCoding, coding_from_json, coding_to_json, default_coding
from .construction import (
    ConstructedCoding,
    GoldbachSpec,
    F_term,
    build_goldbach,
    build_lower,
    build_upper,
    eval_G,
    free_indices,
    is_in_N,
    junction_gaps,
    reduced_form_check,
    scalar_limit_sweep,
    verify_continuity,
)
from .areas import (
    AreaFormulaResult,
    ab_coefficients,
    area_closed,
    bounds_chain,
    hat_AT_second_derivative,
    hat_lower_sweep,
    hat_area,
)
from .errors import (
    ChainViolationError,
    ConstructionFailureError,
    DomainError,
    HypgoldError,
    QuadratureError,
    RangeError,
    RegionMismatchError,
    ScalingViolationError,
    TheoremViolationError,
    VerificationError,
)
from .hyperbola import (
    CurvePoint,
    NumberKind,
    PointKind,
    classify_number,
    classify_point,
    curve_point,
    fhat,
    fhat_one_sided,
    hhat,
    hhat_one_sided,
)
from .oracles import (
    area_quadrature_oracle,
    finite_difference_d1,
    finite_difference_d2,
    geometric_region_oracle,
    goldbach_partitions_oracle,
    hat_AI_quadrature,
    hat_strip_quadrature,
    is_prime,
    oracle_region_set,
    primes_in,
    sieve,
)
from .points import (
    EssentialPoint,
    EssentialPolynomial,
    essential_points,
    eval_poly,
    goldbach_characterization,
    lower_essential_poly,
    lower_value,
    monotonicity_report,
    upper_essential_poly,
)
from .regions import (
    RegionType,
    enumerate_regions,
    regions_equal,
)

__version__ = "0.1.0"
