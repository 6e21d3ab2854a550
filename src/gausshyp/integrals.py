"""Trigonometric integrals over the kernel Delta = 1 + a**2 - 2a cos(phi).

For 0 < a < 1 and nonnegative integers n, i the two families

    quad_I  = integral_0^pi cos(i phi) / Delta**(n+1) dphi
    quad_II = integral_0^pi Delta**n cos(i phi) dphi

are one integral of cos(i phi) / Delta**(m+1), at m = n and at the
reflected m = -n-1 (the reflection of the sign bridge binom(-n-1+i, i) =
(-1)**i binom(n, i)).  Its closed form pi a**i (1-a**2)**(-(2m+1)) times
the character series sum_k binom(m-i, k) binom(m+i, i+k) a**(2k) is V at
m = n (it terminates) and U at m = -n-1 (infinite unless its leading
character vanishes).  The module computes both sides independently: the
integrals by adaptive Gauss quadrature, the closed forms through the
character-series machinery, plus the two cross-family ratio identities
and the sign bridge between the characters they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom import binom_char
from .errors import DomainError, QuadratureFailureError
from .scalar import check_index
from .transform import character_series

#: Absolute error target for every quadrature in this module.  Identity
#: checks compare at 1e-8, two orders looser, so quadrature noise never
#: dominates a verdict.
QUAD_ABS_TOL = 1e-10

_MAX_PANELS = 4096

# Gauss-Legendre node/weight pairs for the embedded low/high rule; the
# difference of the two estimates drives panel refinement.
_NODES_LOW, _WEIGHTS_LOW = np.polynomial.legendre.leggauss(10)
_NODES_HIGH, _WEIGHTS_HIGH = np.polynomial.legendre.leggauss(21)


@dataclass(frozen=True)
class IntegralSpec:
    """One integral instance: modulus a_mod in (0, 1), powers n, i >= 0."""

    a_mod: float
    n: int
    i: int

    def __post_init__(self) -> None:
        if not 0.0 < float(self.a_mod) < 1.0:
            raise DomainError(f"a_mod must lie in (0, 1), got {self.a_mod}")
        check_index("n", self.n)
        check_index("i", self.i)


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature vs closed form for one integral.

    abs_error_estimate is the accumulated quadrature panel estimate; the
    agreement contract is |quadrature - closed_form| <=
    max(1e-8, 10 * abs_error_estimate).
    """

    quadrature: float
    closed_form: float
    series_value: float
    abs_error_estimate: float


# ---- adaptive quadrature ----

_EPS = float(np.finfo(float).eps)


def _panel_pair(f, lo: float, hi: float) -> tuple[float, float, float]:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    low = half * float(np.dot(_WEIGHTS_LOW, f(mid + half * _NODES_LOW)))
    f_high = f(mid + half * _NODES_HIGH)
    high = half * float(np.dot(_WEIGHTS_HIGH, f_high))
    # |G21 - G10| cannot resolve below rounding noise in the panel sum
    noise = 16.0 * _EPS * half * float(np.dot(_WEIGHTS_HIGH, np.abs(f_high)))
    return high, abs(high - low), noise


def _adaptive_gauss(f, lo: float, hi: float, abs_tol: float,
                    max_panels: int = _MAX_PANELS) -> tuple[float, float]:
    """Deterministic depth-first bisection with a 10/21-point Gauss pair.

    Each panel inherits half its parent's error budget, so the accepted
    panel estimates sum to at most abs_tol plus accumulated rounding noise
    (a panel is also accepted once its estimate sits at machine level for
    its own magnitude, where further splitting proves nothing).  Returns
    (value, error estimate); raises QuadratureFailureError when the panel
    budget runs out.
    """
    used = 0

    def recurse(p_lo: float, p_hi: float, budget: float) -> tuple[float, float]:
        nonlocal used
        used += 1
        if used > max_panels:
            raise QuadratureFailureError(
                f"more than {max_panels} panels needed for abs_tol={abs_tol}")
        value, err, noise = _panel_pair(f, p_lo, p_hi)
        if err <= max(budget, noise):
            return value, max(err, noise)
        mid = 0.5 * (p_lo + p_hi)
        v1, e1 = recurse(p_lo, mid, 0.5 * budget)
        v2, e2 = recurse(mid, p_hi, 0.5 * budget)
        return v1 + v2, e1 + e2

    return recurse(lo, hi, abs_tol)


def _delta(a: float, phi: np.ndarray) -> np.ndarray:
    # (1-a)**2 + 4a sin(phi/2)**2 == 1 + a**2 - 2a cos(phi), without the
    # cancellation near phi = 0 where the kernel is smallest
    return (1.0 - a) ** 2 + 4.0 * a * np.sin(0.5 * phi) ** 2


def _integral(a: float, m: int, i: int, abs_tol: float) -> tuple[float, float]:
    """Quadrature of cos(i phi) / Delta**(m+1) over [0, pi]: (value, error)."""

    def f(phi: np.ndarray) -> np.ndarray:
        return np.cos(i * phi) / _delta(a, phi) ** (m + 1)

    return _adaptive_gauss(f, 0.0, math.pi, abs_tol)


def _check(spec: IntegralSpec, m: int, tol: float) -> IntegralResult:
    """cos(i phi) / Delta**(m+1) by quadrature and by its closed form."""
    a, i = spec.a_mod, spec.i
    quad, err = _integral(a, m, i, QUAD_ABS_TOL)
    series = float(character_series(m - i, m + i, i, a ** 2, tol, 100000).value)
    closed = math.pi * a ** i * (1.0 - a * a) ** (-(2 * m + 1)) * series
    return IntegralResult(quad, closed, series, err)


def quad_I(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Adaptive quadrature of cos(i phi) / Delta**(n+1) over [0, pi]."""
    return _integral(spec.a_mod, spec.n, spec.i, abs_tol)[0]


def quad_II(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Adaptive quadrature of Delta**n cos(i phi) over [0, pi]."""
    return _integral(spec.a_mod, -spec.n - 1, spec.i, abs_tol)[0]


def check_closed_form_I(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    """quad_I against pi a**i (1-a**2)**(-(2n+1)) V."""
    return _check(spec, spec.n, tol)


def check_closed_form_II(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    """quad_II against pi a**i (1-a**2)**(2n+1) U."""
    return _check(spec, -spec.n - 1, tol)


# ---- cross-family identities ----

def ratio_identity_sides(spec: IntegralSpec, q_I: float,
                         q_II: float) -> tuple[float, float]:
    """Both sides of

        binom(n+i, i) (1-a**2)**(-n) quad_II
            = binom(-n-1+i, i) (1-a**2)**(n+1) quad_I,

    given the values q_I = quad_I(spec) and q_II = quad_II(spec).
    """
    a, n, i = spec.a_mod, spec.n, spec.i
    one_minus = 1.0 - a * a
    lhs = float(binom_char(n + i, i)) * one_minus ** (-n) * q_II
    rhs = float(binom_char(-n - 1 + i, i)) * one_minus ** (n + 1) * q_I
    return lhs, rhs


def theta_identity_sides(spec: IntegralSpec, q_I: float,
                         q_II: float) -> tuple[float, float]:
    """Both sides of the same identity written against theta = Delta/(1-a**2):

        binom(n, i) integral cos(i phi)/Theta**(n+1)
            = binom(-n-1, i) integral Theta**n cos(i phi),

    where the theta powers turn into (1-a**2) factors on the given values
    q_I = quad_I(spec) and q_II = quad_II(spec).
    """
    a, n, i = spec.a_mod, spec.n, spec.i
    one_minus = 1.0 - a * a
    lhs = float(binom_char(n, i)) * one_minus ** (n + 1) * q_I
    rhs = float(binom_char(-n - 1, i)) * one_minus ** (-n) * q_II
    return lhs, rhs


def verify_sign_bridge(n: int, i: int) -> bool:
    """Exact character identities linking the two integral families:

        binom(n, i) binom(n+i, i) == binom(-n-1, i) binom(-n-1+i, i)
        binom(n+i, i)  == (-1)**i binom(-n-1, i)
        binom(-n-1+i, i) == (-1)**i binom(n, i)
    """
    check_index("n", n)
    check_index("i", i)
    sign = -1 if i % 2 else 1
    prop = (binom_char(n, i) * binom_char(n + i, i)
            == binom_char(-n - 1, i) * binom_char(-n - 1 + i, i))
    cor1 = binom_char(n + i, i) == sign * binom_char(-n - 1, i)
    cor2 = binom_char(-n - 1 + i, i) == sign * binom_char(n, i)
    return bool(prop and cor1 and cor2)
