"""Gauss hypergeometric series with exact and floating-point arithmetic.

The package evaluates the series s(a, b; c; x), accelerates it through the
transformation s = (1-x)**(c-a-b) z, manipulates generalized binomial
coefficients, and verifies the differential-equation and trigonometric
integral identities that connect all of these.
"""

from __future__ import annotations

from .binom import binom_char, reflect_char
from .errors import (DomainError, InvalidCError, NoConvergenceError,
                     QuadratureFailureError)
from .integrals import (IntegralResult, IntegralSpec, check_closed_form_I,
                        check_closed_form_II, quad_I, quad_II,
                        ratio_identity_sides, theta_identity_sides,
                        verify_sign_bridge)
from .scalar import Scalar, is_exact, parse_scalar, power
from .series import (EXACT_DEGREE_CAP, HypergeometricParams, OdeResidual,
                     SeriesEvaluation, coefficients, eval_series, ode_residual,
                     operator_identity_residual, substitution_residual,
                     termination_index)
from .transform import (Representation, RepresentationChoice,
                        TransformedParams, TripleParams, TripleRelationCheck,
                        TripleSums, character_series, estimate_terms,
                        eval_transformed, euler_transform_params,
                        params_from_triple, select_representation,
                        triple_params, triple_sums, verify_triple_relations)

__version__ = "0.1.0"

__all__ = [
    "binom_char", "reflect_char",
    "DomainError", "InvalidCError", "NoConvergenceError",
    "QuadratureFailureError",
    "IntegralResult", "IntegralSpec", "check_closed_form_I",
    "check_closed_form_II", "quad_I", "quad_II", "ratio_identity_sides",
    "theta_identity_sides", "verify_sign_bridge",
    "Scalar", "is_exact", "parse_scalar", "power",
    "EXACT_DEGREE_CAP", "HypergeometricParams", "OdeResidual",
    "SeriesEvaluation", "coefficients", "eval_series", "ode_residual",
    "operator_identity_residual", "substitution_residual",
    "termination_index",
    "Representation", "RepresentationChoice", "TransformedParams",
    "TripleParams", "TripleRelationCheck", "TripleSums", "character_series",
    "estimate_terms", "eval_transformed", "euler_transform_params",
    "params_from_triple", "select_representation", "triple_params",
    "triple_sums", "verify_triple_relations",
]
