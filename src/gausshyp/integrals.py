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
integrals by the periodic trapezoid rule with a proven a priori error
bound, the closed forms through the character-series machinery, plus the
cross-family ratio identity, its theta form, which is the same identity
carried across the sign bridge, and the sign bridge itself;
``integral_checks`` yields the residual and allowance of the first four,
the cases of ``gausshyp verify integrals``.  The trapezoid rule runs on
the standard library: it samples the half period and sums with math.fsum.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator

from .binom import binom_char
from .errors import (DomainError, NoConvergenceError, QuadratureFailureError,
                     no_convergence_in)
from .scalar import Scalar, _Checked, check_finite, check_index, power
from .series import check_budget
from .transform import _character, _character_sum

#: Absolute error target for every quadrature in this module.  Identity
#: checks compare at 1e-8, two orders looser, so quadrature noise never
#: dominates a verdict.
QUAD_ABS_TOL = 1e-10

_MAX_POINTS = 2 ** 20  # samples per quadrature, checked before any is taken


class IntegralSpec(_Checked, namedtuple("IntegralSpec", "a_mod n i")):
    """One integral instance: modulus a_mod in (0, 1), powers n, i >= 0."""

    __slots__ = ()

    def __new__(cls, a_mod: float, n: int, i: int) -> IntegralSpec:
        if not 0.0 < float(a_mod) < 1.0:
            raise DomainError(f"a_mod must lie in (0, 1), got {a_mod}")
        check_index("n", n)
        check_index("i", i)
        return super().__new__(cls, a_mod, n, i)


class IntegralResult(namedtuple(
        "IntegralResult",
        "quadrature closed_form series_value abs_error_estimate")):
    """Quadrature vs closed form for one integral.

    abs_error_estimate is a proven bound on |quadrature - integral|: the
    trapezoid rule's a priori error bound plus a rounding term.
    integral_checks allows |quadrature - closed_form| up to max(tol, 10 * it).
    """

    __slots__ = ()


# ---- periodic trapezoid rule ----

_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)


def _points(a: float, m: int, i: int, abs_tol: float) -> tuple[int, float]:
    """Points N for cos(i phi) / Delta**(m+1) and the log of the bound on
    the error of its N-point trapezoid sum, both fixed before any sample."""
    if m + 1 <= 0:
        # Delta**n cos(i phi), n = -m-1, is a trigonometric polynomial of
        # degree n+i, which any N > n+i integrates exactly; pi times the sum
        # of its N samples, each at most (1+a)**(2n), must stay a float
        if math.log(math.pi * (i - m)) - 2 * (m + 1) * math.log1p(a) > _LOG_MAX:
            raise DomainError(f"Delta**{-m - 1} at a={a} reaches "
                              f"(1+a)**{-2 * (m + 1)}, past the float range")
        return i - m, -math.inf
    # The integrand is analytic in |Im phi| < log(1/a).  On the strip of
    # half-width sigma = log(1/a)/2, |Delta| >= (1-sqrt a)(1-a sqrt a) and
    # |cos(i phi)| <= cosh(i sigma); with M their quotient the error on
    # [0, pi] is at most 2 pi M / expm1(sigma N) (Trefethen & Weideman,
    # SIAM Review 56 (2014), Thm 3.2).  In logs: M overflows for tiny a
    # with large i, or for a near 1.
    sigma, root = -0.5 * math.log(a), math.sqrt(a)
    log_2pi_m = (math.log(math.pi) + i * sigma
                 + math.log1p(math.exp(-2.0 * i * sigma))
                 - (m + 1) * (math.log1p(-root) + math.log1p(-a * root)))
    # below the rounding level of the largest sample, pi/(1-a)**(2(m+1)), a
    # smaller bound proves nothing
    log_tol = math.log(_EPS * math.pi) - 2 * (m + 1) * math.log1p(-a)
    if abs_tol > 0.0:
        log_tol = max(log_tol, math.log(abs_tol))
    # the smallest N with expm1(sigma N) >= 2 pi M / tol
    gap = log_2pi_m - log_tol
    n_pts = max(1, math.ceil(
        (max(gap, 0.0) + math.log1p(math.exp(-abs(gap)))) / sigma))
    y = sigma * n_pts
    return n_pts, log_2pi_m - y - math.log1p(-math.exp(-y))


def _log_sum(a: float, m: int, n_pts: int) -> float:
    """For m >= 0, the log of peak * (pi + N share): a bound on the sum of
    the N samples of Delta**-(m+1) over one period, peak * (1 + N share),
    and on pi times their mean, at most pi * peak.

    The samples peak at (1-a)**(-2(m+1)), at phi = 0, and fall up to phi =
    pi, so the N - 1 others sum to at most N/(2 pi) times the integral over
    the period, 2 pi * peak * share with share their mean over the peak.
    sin(t) >= 2t/pi on [0, pi/2] bounds share by sqrt(pi) (1-a)
    Gamma(m+1/2) / (4 sqrt(a) Gamma(m+1)), and Gamma(m+1/2) / Gamma(m+1) <=
    (m+1/4)**-0.5 (Watson, 1959) by (1-a) sqrt(pi / (a (16m+4))); share is
    at most 1 too.  Inside the float range, the bound keeps every sample,
    each doubled one, both sums and the value finite.
    """
    share = min(1.0, (1.0 - a) * math.sqrt(math.pi / (a * (16 * m + 4))))
    return math.log(math.pi + n_pts * share) - 2 * (m + 1) * math.log1p(-a)


def _integral(a: float, m: int, i: int, abs_tol: float) -> tuple[float, float]:
    """Trapezoid sum of cos(i phi) / Delta**(m+1) over [0, pi]: (value, error).

    The integrand is even and 2 pi-periodic, so the integral is pi times its
    mean over N equispaced angles of one period.  Angles k and N-k share a
    sample, so the half period k = 0..N//2 is sampled, and each k with
    0 < k < N/2 is summed twice; fsum rounds the sum once, so this changes
    no bit of the full period's fsum.
    """
    n_pts, log_bound = _points(a, m, i, abs_tol)
    if (n_pts > _MAX_POINTS or log_bound > _LOG_MAX
            or m >= 0 and _log_sum(a, m, n_pts) > _LOG_MAX):
        raise QuadratureFailureError(
            f"{n_pts} points (at most {_MAX_POINTS}), an error bound of "
            f"e**{log_bound:.6g} or samples past the float range at a={a}, "
            f"m={m}, i={i}, abs_tol={abs_tol}")
    step, floor, terms, sizes = 2.0 * math.pi / n_pts, (1.0 - a) ** 2, [], []
    for k in range(n_pts // 2 + 1):
        # angle k, in [0, pi], where sin(phi/2) is well conditioned
        phi = step * k
        half_sin = math.sin(0.5 * phi)
        # (1-a)**2 + 4a sin(phi/2)**2 == 1 + a**2 - 2a cos(phi), without the
        # cancellation near phi = 0 where the kernel is smallest
        size = (floor + 4.0 * a * (half_sin * half_sin)) ** -(m + 1)
        # angles k and N-k share a sample: 0 < k < N/2 counts twice
        weight = 2.0 if 0 < 2 * k < n_pts else 1.0
        terms.append(weight * (math.cos(i * phi) * size))
        sizes.append(weight * size)
    value = math.pi * (math.fsum(terms) / n_pts)
    # Rounding, relative to size = |Delta**-(m+1)|: phi carries 2 eps, so
    # Delta at most 10 eps and its power (10|m+1| + 1) eps; cos(i phi) is off
    # by at most (10 i + 1) eps absolute, the product by one more.  fsum
    # rounds once; the log2 N + 20 roundings per sample of a pairwise sum
    # stay in the allowance, which is conservative for it.
    rounding = ((10 * (abs(m + 1) + i) + math.log2(n_pts) + 25)
                * _EPS * math.pi * (math.fsum(sizes) / n_pts))
    return value, math.exp(log_bound) + rounding


#: Term budget of the character series of the closed form in
#: check_closed_form_I and check_closed_form_II; integral_checks takes one.
_SERIES_TERMS = 100000


def _check(a: float, m: int, i: int, tol: float, max_terms: int,
           character: tuple) -> IntegralResult:
    """cos(i phi) / Delta**(m+1) by quadrature and by its closed form.

    character is the (lead, params) pair _character(m - i, m + i, i) of
    the closed form's character series, summed at a**2, which lies in
    (0, 1), to a checked tol in at most max_terms terms.
    """
    quad, err = _integral(a, m, i, QUAD_ABS_TOL)
    summed = _character_sum(*character, a ** 2, tol, max_terms)
    series = float(summed.value)
    closed = math.pi * a ** i * (1.0 - a * a) ** (-(2 * m + 1)) * series
    return IntegralResult(quad, closed, series, err)


def _closed_form(spec: IntegralSpec, m: int, tol: float) -> IntegralResult:
    """_check of spec at m, in at most _SERIES_TERMS terms."""
    check_budget(tol, _SERIES_TERMS)
    i = spec.i
    return _check(spec.a_mod, m, i, tol, _SERIES_TERMS,
                  _character(m - i, m + i, i))


def quad_I(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Trapezoid quadrature of cos(i phi) / Delta**(n+1) over [0, pi]."""
    return _integral(spec.a_mod, spec.n, spec.i, abs_tol)[0]


def quad_II(spec: IntegralSpec, abs_tol: float = QUAD_ABS_TOL) -> float:
    """Trapezoid quadrature of Delta**n cos(i phi) over [0, pi]."""
    return _integral(spec.a_mod, -spec.n - 1, spec.i, abs_tol)[0]


def check_closed_form_I(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    """quad_I against pi a**i (1-a**2)**(-(2n+1)) V."""
    return _closed_form(spec, spec.n, tol)


def check_closed_form_II(spec: IntegralSpec, tol: float = 1e-12) -> IntegralResult:
    """quad_II against pi a**i (1-a**2)**(2n+1) U."""
    return _closed_form(spec, -spec.n - 1, tol)


# ---- cross-family identities ----

def _float_char(value: Scalar) -> float:
    """A binomial character as a float, rejected past the float range."""
    check_finite("binomial character", value)
    return float(value)


def _sides(a: float, n: int, q_I: float, q_II: float,
           chars: list[float]) -> tuple[float, float]:
    """For chars = [char_II, char_I], char_II (1-a**2)**(-n) q_II and
    char_I (1-a**2)**(n+1) q_I, the two products a cross-family identity
    equates."""
    c_II, c_I = chars
    return (c_II * power(1.0 - a * a, -n) * q_II,
            c_I * power(1.0 - a * a, n + 1) * q_I)


def ratio_identity_sides(spec: IntegralSpec, q_I: float,
                         q_II: float) -> tuple[float, float]:
    """Both sides of

        binom(n+i, i) (1-a**2)**(-n) quad_II
            = binom(-n-1+i, i) (1-a**2)**(n+1) quad_I,

    given the values q_I = quad_I(spec) and q_II = quad_II(spec).
    """
    n, i = spec.n, spec.i
    chars = [_float_char(binom_char(m + i, i)) for m in (n, -n - 1)]
    return _sides(spec.a_mod, n, q_I, q_II, chars)


def theta_identity_sides(spec: IntegralSpec, q_I: float,
                         q_II: float) -> tuple[float, float]:
    """Both sides of the same identity written against theta = Delta/(1-a**2):

        binom(n, i) integral cos(i phi)/Theta**(n+1)
            = binom(-n-1, i) integral Theta**n cos(i phi),

    where the theta powers turn into (1-a**2) factors on the given values
    q_I = quad_I(spec) and q_II = quad_II(spec).  By the sign bridge,
    binom(n, i) = (-1)**i binom(-n-1+i, i) and binom(-n-1, i) =
    (-1)**i binom(n+i, i), so these are the sides of ratio_identity_sides
    swapped and times (-1)**i; no character is formed here.
    """
    lhs, rhs = ratio_identity_sides(spec, q_I, q_II)
    sign = -1.0 if spec.i % 2 else 1.0
    return sign * rhs, sign * lhs


def integral_checks(moduli, indices, tol: float,
                    max_terms: int) -> Iterator[tuple]:
    """Yield the four (residual, allowance) pairs of IntegralSpec(a, n, i)
    for each (n, i) of indices and, inside that, each a of moduli.

    The first two are check_closed_form_I and check_closed_form_II at their
    default tol, each closed form summed in at most max_terms terms: the
    residual |quadrature - closed_form| and the allowance
    max(tol, 10 * abs_error_estimate).  The other two are the sides of
    ratio_identity_sides and theta_identity_sides at the quadratures: the
    residual |lhs - rhs| and the allowance tol * (1 + |lhs|).  The theta
    sides are the ratio sides swapped and signed, so its pair is the
    ratio identity's residual with the allowance tol * (1 + |rhs|).

    binom(n+i, i) and binom(-n-1+i, i) do not depend on a, so each is
    formed once per (n, i), with the params of the closed forms'
    character series whose leads they are.  A closed form that does not
    converge raises NoConvergenceError naming its (n, i, a), tol and
    max_terms.
    """
    series_tol = 1e-12
    check_budget(tol, max_terms)
    for n, i in indices:
        specs = [IntegralSpec(a, n, i) for a in moduli]
        forms = [_character(m - i, m + i, i) for m in (n, -n - 1)]
        chars = [_float_char(lead) for lead, _ in forms]
        for spec in specs:
            a = spec.a_mod
            try:
                r_I = _check(a, n, i, series_tol, max_terms, forms[0])
                r_II = _check(a, -n - 1, i, series_tol, max_terms, forms[1])
            except NoConvergenceError as exc:
                raise no_convergence_in(f"(n, i, a) = ({n}, {i}, {a})", tol,
                                        max_terms, exc) from None
            lhs, rhs = _sides(a, n, r_I.quadrature, r_II.quadrature, chars)
            closed = [(abs(r.quadrature - r.closed_form),
                       max(tol, 10.0 * r.abs_error_estimate))
                      for r in (r_I, r_II)]
            residual = abs(lhs - rhs)
            yield (*closed, (residual, tol * (1.0 + abs(lhs))),
                   (residual, tol * (1.0 + abs(rhs))))


def verify_sign_bridge(n: int, i: int) -> bool:
    """Exact character identities linking the two integral families:

        binom(n+i, i)  == (-1)**i binom(-n-1, i)
        binom(-n-1+i, i) == (-1)**i binom(n, i)

    which imply binom(n, i) binom(n+i, i) == binom(-n-1, i) binom(-n-1+i, i).
    """
    check_index("n", n)
    check_index("i", i)
    sign = -1 if i % 2 else 1
    # binom(n, i), binom(n+i, i), binom(-n-1, i), binom(-n-1+i, i), each
    # formed once; binom_char of integers is an integer, compared by its
    # numerator
    a, b, c, d = (binom_char(m, i).numerator
                  for m in (n, n + i, -n - 1, -n - 1 + i))
    return b == sign * c and d == sign * a
