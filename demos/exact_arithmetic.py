"""Exact rational evaluation and the differential-operator cross-checks.

Everything in this script is integer or Fraction arithmetic: terminating
series sum to exact rationals, and applying the second-order operator to a
truncated series leaves exact zeros below the truncation degree.
"""

from __future__ import annotations

from fractions import Fraction as F

from gausshyp import (HypergeometricParams, coefficients, eval_series,
                      eval_transformed, ode_residual,
                      operator_identity_residual)


def main():
    # a = -2 terminates the series at degree 2: a quadratic polynomial
    params = HypergeometricParams(-2, 3, 1)
    print("coefficients of s(-2, 3; 1; x):", coefficients(params, 4))
    for x in (F(1, 4), F(1, 2), F(3, 4)):
        out = eval_series(params, x)
        tr = eval_transformed(params, x)
        print(f"  s({x}) = {out.value}   transformed route: {tr.value}   "
              f"equal: {out.value == tr.value}")

    # the operator x(1-x)s'' + [c-(a+b+1)x]s' - ab s annihilates the series;
    # on a degree-10 truncation the residual is zero except at x**10
    params = HypergeometricParams(1, 1, 2)
    print("\noperator residual on the degree-10 truncation of s(1, 1; 2; x):")
    print("  coefficients:", ode_residual(params, 10))
    print("  (the single survivor is -(a+10)(b+10) c_10 = -121/11 = -11)")

    # the same content before dividing by the x**(b-1) monomial: both sides
    # of the operator identity match coefficient by coefficient
    diff = operator_identity_residual(params, 10)
    print("\npre-division operator identity, coefficient differences:")
    print("  ", diff)

    # half-integer parameters stay exact too; with argument x**2 this
    # series is arcsin(x)/x, so at x = 1/2 the sum tends to pi/3
    params = HypergeometricParams(F(1, 2), F(1, 2), F(3, 2))
    print("\ncoefficients of s(1/2, 1/2; 3/2; x):", coefficients(params, 4))
    out = eval_series(params, F(1, 4), tol=1e-15)
    print(f"  s(1/4) = {out.value.numerator}/{out.value.denominator} "
          f"~ {float(out.value):.15f}")
    print(f"  ({out.terms_used} exact terms, truncation below "
          f"{out.tail_bound:.1e}; compare pi/3 ~ 1.047197551196598)")


if __name__ == "__main__":
    main()
