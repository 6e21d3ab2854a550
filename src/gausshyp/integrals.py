"""Trigonometric integrals over the kernel Delta = 1 + a**2 - 2a cos(phi).

For 0 < a < 1 and nonnegative integers n, i the two families

    quad_I  = integral_0^pi cos(i phi) / Delta**(n+1) dphi
    quad_II = integral_0^pi Delta**n cos(i phi) dphi

have closed forms pi a**i (1-a**2)**(-(2n+1)) V and pi a**i (1-a**2)**(2n+1) U,
where V and U are character series in a**2 (V always terminates, U is an
infinite series unless its leading character vanishes).  The module computes
both sides independently: the integrals by adaptive Gauss quadrature, the
closed forms through the character-series machinery, plus the two
cross-family ratio identities and the sign bridge between the characters
they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom import binom_char
from .errors import DomainError, QuadratureFailureError
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
        for name in ("n", "i"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")


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


def _quad_I_pair(spec: IntegralSpec, abs_tol: float) -> tuple[float, float]:
    a, n, i = spec.a_mod, spec.n, spec.i

    def f(phi: np.ndarray) -> np.ndarray:
        return np.cos(i * phi) / _delta(a, phi) ** (n + 1)

    return _adaptive_gauss(f, 0.0, math.pi, abs_tol)


def _quad_II_pair(spec: IntegralSpec, abs_tol: float) -> tuple[float, float]:
    a, n, i = spec.a_mod, spec.n, spec.i

    def f(phi: np.ndarray) -> np.ndarray:
        return _delta(a, phi) ** n * np.cos(i * phi)

    return _adaptive_gauss(f, 0.0, math.pi, abs_tol)


def quad_I(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Adaptive quadrature of cos(i phi) / Delta**(n+1) over [0, pi]."""
    return _quad_I_pair(spec, abs_tol)[0]


def quad_II(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Adaptive quadrature of Delta**n cos(i phi) over [0, pi]."""
    return _quad_II_pair(spec, abs_tol)[0]


# ---- series sides ----

def V_series(spec: IntegralSpec, tol: float = 1e-12) -> float:
    """Character series sum_k binom(n-i, k) binom(n+i, i+k) (a**2)**k.

    Terminates for every integer n >= 0: the second character vanishes past
    k = n, and when i <= n the first vanishes past k = n-i already, so the
    sum is a polynomial in a**2 with at most n+1 terms.
    """
    n, i = spec.n, spec.i
    out = character_series(n - i, n + i, i, spec.a_mod ** 2, tol)
    return float(out.value)


def U_series(spec: IntegralSpec, tol: float = 1e-12,
             max_terms: int = 100000) -> float:
    """Character series sum_k binom(-n-1-i, k) binom(-n-1+i, i+k) (a**2)**k.

    Infinite for i <= n; identically zero for i > n because the leading
    character binom(i-n-1, i) vanishes (matching the vanishing integral of
    a pure cosine times a polynomial kernel of lower degree).
    """
    n, i = spec.n, spec.i
    out = character_series(-n - 1 - i, -n - 1 + i, i, spec.a_mod ** 2,
                           tol, max_terms)
    return float(out.value)


def _prefactor(spec: IntegralSpec, sign: int) -> float:
    """pi a**i (1-a**2)**(sign (2n+1)): -1 for quad_I, +1 for quad_II."""
    a = spec.a_mod
    return math.pi * a ** spec.i * (1.0 - a * a) ** (sign * (2 * spec.n + 1))


def closed_form_I(spec: IntegralSpec, tol: float = 1e-12) -> float:
    """pi a**i (1-a**2)**(-(2n+1)) V: the closed form of quad_I."""
    return _prefactor(spec, -1) * V_series(spec, tol)


def closed_form_II(spec: IntegralSpec, tol: float = 1e-12) -> float:
    """pi a**i (1-a**2)**(2n+1) U: the closed form of quad_II."""
    return _prefactor(spec, 1) * U_series(spec, tol)


def check_closed_form_I(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    quad, err = _quad_I_pair(spec, QUAD_ABS_TOL)
    v = V_series(spec, tol)
    return IntegralResult(quad, _prefactor(spec, -1) * v, v, err)


def check_closed_form_II(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    quad, err = _quad_II_pair(spec, QUAD_ABS_TOL)
    u = U_series(spec, tol)
    return IntegralResult(quad, _prefactor(spec, 1) * u, u, err)


# ---- cross-family identities ----

def ratio_identity_sides(spec: IntegralSpec) -> tuple[float, float]:
    """Both sides of

        binom(n+i, i) (1-a**2)**(-n) quad_II
            = binom(-n-1+i, i) (1-a**2)**(n+1) quad_I.
    """
    a, n, i = spec.a_mod, spec.n, spec.i
    one_minus = 1.0 - a * a
    lhs = float(binom_char(n + i, i)) * one_minus ** (-n) * quad_II(spec)
    rhs = float(binom_char(-n - 1 + i, i)) * one_minus ** (n + 1) * quad_I(spec)
    return lhs, rhs


def theta_identity_sides(spec: IntegralSpec) -> tuple[float, float]:
    """Both sides of the same identity written against theta = Delta/(1-a**2):

        binom(n, i) integral cos(i phi)/Theta**(n+1)
            = binom(-n-1, i) integral Theta**n cos(i phi),

    where the theta powers turn into (1-a**2) factors on quad_I/quad_II.
    """
    a, n, i = spec.a_mod, spec.n, spec.i
    one_minus = 1.0 - a * a
    lhs = float(binom_char(n, i)) * one_minus ** (n + 1) * quad_I(spec)
    rhs = float(binom_char(-n - 1, i)) * one_minus ** (-n) * quad_II(spec)
    return lhs, rhs


def verify_ratio_identity(spec: IntegralSpec) -> float:
    """Residual |LHS - RHS| of the ratio identity.

    Callers compare against their own tolerance times (1 + |LHS|);
    quadrature always runs at QUAD_ABS_TOL so its noise stays far inside
    that allowance.
    """
    lhs, rhs = ratio_identity_sides(spec)
    return abs(lhs - rhs)


def verify_theta_identity(spec: IntegralSpec) -> float:
    """Residual |LHS - RHS| of the theta-power form of the identity."""
    lhs, rhs = theta_identity_sides(spec)
    return abs(lhs - rhs)


def verify_sign_bridge(n: int, i: int) -> bool:
    """Exact character identities linking the two integral families:

        binom(n, i) binom(n+i, i) == binom(-n-1, i) binom(-n-1+i, i)
        binom(n+i, i)  == (-1)**i binom(-n-1, i)
        binom(-n-1+i, i) == (-1)**i binom(n, i)
    """
    for name, v in (("n", n), ("i", i)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {v!r}")
    sign = -1 if i % 2 else 1
    prop = (binom_char(n, i) * binom_char(n + i, i)
            == binom_char(-n - 1, i) * binom_char(-n - 1 + i, i))
    cor1 = binom_char(n + i, i) == sign * binom_char(-n - 1, i)
    cor2 = binom_char(-n - 1 + i, i) == sign * binom_char(n, i)
    return bool(prop and cor1 and cor2)
