"""Deformed-line codings, hyperbolic classification of naturals,
essential-region area calculus, and the Goldbach partition machinery.

``import hypgold`` loads none of these layers: each public name is
imported from its module on first access (PEP 562), so a process pays
only for the layers it uses.
"""

from importlib import import_module

# The public names, keyed by the module that defines them.
_EXPORTS = {
    "coding": "PrimeCoding coding_from_json coding_to_json default_coding",
    "construction": "ConstructedCoding GoldbachSpec F_term build_goldbach build_lower "
                    "build_upper free_indices is_in_N junction_gaps scalar_limit_sweep "
                    "verify_continuity",
    "areas": "AreaFormulaResult area_closed hat_area",
    "errors": "ChainViolationError ConstructionFailureError DomainError HypgoldError "
              "QuadratureError RangeError RegionMismatchError ScalingViolationError "
              "TheoremViolationError VerificationError",
    "hyperbola": "CurvePoint NumberKind PointKind classify_number classify_point",
    "reference": "HOMOGENEITY_REL_TOL ScalingReport ab_coefficients area_quadrature_oracle "
                 "bounds_chain fhat fhat_one_sided finite_difference_d1 finite_difference_d2 "
                 "geometric_region_oracle hat_AI_quadrature hat_AT_second_derivative hat_add "
                 "hat_div hat_lower_sweep hat_mul hat_strip_quadrature hat_sub hhat "
                 "hhat_one_sided identifies_naturals oracle_region_set reduced_form_check",
    "oracles": "goldbach_partitions_oracle is_prime primes_in sieve",
    "points": "EssentialPoint EssentialPolynomial essential_points "
              "goldbach_characterization lower_essential_poly lower_value",
    "regions": "RegionType enumerate_regions",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
