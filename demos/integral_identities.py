"""Kernel integrals against their closed forms.

With Delta = 1 + a**2 - 2a cos(phi), the periodic trapezoid rule for

    cos(i phi) / Delta**(n+1)     and     Delta**n cos(i phi)

over [0, pi] is compared against pi a**i (1-a**2)**(-+(2n+1)) times the
character series V and U.  The second family is the first with n reflected
to -n-1, and the two are tied to each other by a pair of ratio identities
whose character coefficients come from the sign bridge
binom(n+i, i) = (-1)**i binom(-n-1, i).
"""

from __future__ import annotations

import math

from gausshyp import (IntegralSpec, check_closed_form_I, check_closed_form_II,
                      quad_I, quad_II, ratio_identity_sides,
                      theta_identity_sides, verify_sign_bridge)


def main():
    a = 0.5
    print(f"kernel at a = {a}: Delta(0) = (1-a)**2 = {(1 - a) ** 2:.4f}, "
          f"Delta(pi) = (1+a)**2 = {(1 + a) ** 2:.4f}")

    print(f"\nquadrature vs closed form at a = {a}:")
    print(f"{'n':>2} {'i':>2} {'integral I':>16} {'closed I':>16} "
          f"{'integral II':>16} {'closed II':>16}")
    for n in range(3):
        for i in range(3):
            spec = IntegralSpec(a, n, i)
            r1 = check_closed_form_I(spec)
            r2 = check_closed_form_II(spec)
            print(f"{n:>2} {i:>2} {r1.quadrature:>16.12f} "
                  f"{r1.closed_form:>16.12f} {r2.quadrature:>16.12f} "
                  f"{r2.closed_form:>16.12f}")
            assert abs(r1.quadrature - r1.closed_form) <= 1e-8
            assert abs(r2.quadrature - r2.closed_form) <= 1e-8

    # the case everyone knows: 1/Delta integrates to pi/(1-a**2)
    spec = IntegralSpec(a, 0, 0)
    print(f"\nintegral of 1/Delta = {check_closed_form_I(spec).quadrature:.12f}"
          f" = pi/(1-a**2) = {math.pi / (1 - a * a):.12f}")

    # a pure cosine against a lower-degree polynomial kernel vanishes
    print(f"integral of Delta**1 cos(2 phi) = "
          f"{quad_II(IntegralSpec(a, 1, 2)):.2e} (vanishes: i > n)")

    print("\ncross-family ratio identities at (a, n, i) = (0.5, 1, 1):")
    spec = IntegralSpec(0.5, 1, 1)
    q_I, q_II = quad_I(spec), quad_II(spec)
    lhs, rhs = ratio_identity_sides(spec, q_I, q_II)
    print(f"  power form:  {lhs:+.12f} vs {rhs:+.12f}")
    lhs, rhs = theta_identity_sides(spec, q_I, q_II)
    print(f"  theta form:  {lhs:+.12f} vs {rhs:+.12f} "
          f"(both equal 4 pi/3 = {4 * math.pi / 3:.12f})")

    ok = all(verify_sign_bridge(n, i) for n in range(7) for i in range(7))
    print(f"\nsign bridge exact on 0..6 squared: {ok}")


if __name__ == "__main__":
    main()
