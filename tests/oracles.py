"""Independent reference implementations used only by tests.

Everything here recomputes values from explicit closed-form products, never
through the library's recurrences, so agreement is a genuine cross-check
rather than the same code run twice.  Exact inputs only.  The exceptions
are the references for the library's own arithmetic:
``fraction_eval_series``, which keeps the library's stopping rule and steps
every term in ``Fraction`` arithmetic; ``float_eval_series``, the same
stopping rule stepped in doubles with the majorant as its own function;
``fraction_coefficients``, ``fraction_ode_residual`` and
``fraction_operator_identity_residual``, which build the coefficients and
the operator residuals one ``Fraction`` operation at a time (floats too);
``float_binom``, the running product of (m-j+1)/j in doubles; and
``isinstance_render_json``, the report renderer as a chain of isinstance
tests with ``json.dumps`` for every string.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from gausshyp import NoConvergenceError, termination_index
from gausshyp.cli import format_float
from gausshyp.series import (_poly_derivative, _poly_mul, _poly_scale,
                             _poly_sum, _shift)


def brute_binom(m, k: int) -> Fraction:
    """Falling factorial over k!, term by term."""
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(m) - j
    return num / math.factorial(k)


def float_binom(m: float, k: int) -> float:
    """Coefficient of v**k in (1+v)**m for a float m: the product of
    (m-j+1)/j for j = 1..k, in that order."""
    value = 1.0
    for j in range(1, k + 1):
        value = value * (m - j + 1) / j
    return value


def brute_coefficient(a, b, c, k: int) -> Fraction:
    """Series coefficient c_k from the full product formula

    c_k = [a(a+1)..(a+k-1)][b(b+1)..(b+k-1)] / (k! [c(c+1)..(c+k-1)]).
    """
    num = Fraction(1)
    den = Fraction(1)
    for j in range(k):
        num *= (Fraction(a) + j) * (Fraction(b) + j)
        den *= (j + 1) * (Fraction(c) + j)
    return num / den


def brute_series(a, b, c, x, degree: int) -> Fraction:
    """Partial sum of the hypergeometric series through x**degree."""
    x = Fraction(x)
    return sum((brute_coefficient(a, b, c, k) * x ** k for k in range(degree + 1)),
               Fraction(0))


def brute_char_sum(m1, m2, shift: int, x, terms: int) -> Fraction:
    """Partial sum of binom(m1, k) binom(m2, shift+k) x**k over k < terms."""
    x = Fraction(x)
    return sum((brute_binom(m1, k) * brute_binom(m2, shift + k) * x ** k
                for k in range(terms)), Fraction(0))


def _positivity_index(a: float, b: float, c: float) -> int:
    """First k with a+k, b+k and c+k all positive."""
    worst = min(a, b, c)
    if worst > 0.0:
        return 0
    return int(math.floor(-worst)) + 1


def _ratio_majorant(a: float, b: float, c: float, x, k: int) -> float:
    """|x| max(1, (a+k)/(1+k)) max(1, (b+k)/(c+k)): every later term ratio.

    An x whose double is 0.0 counts as 5e-324, the least double, which is
    at least |x|: its tail is not 0.
    """
    ax = abs(float(x)) or 5e-324
    f1 = (a + k) / (1.0 + k)
    f2 = (b + k) / (c + k)
    return ax * max(1.0, f1) * max(1.0, f2)


def float_eval_series(params, x: float, tol: float, max_terms: int):
    """(value, terms_used, terminated, tail_bound) of a float term loop.

    The float path of ``eval_series`` with its majorant as a separate
    function call; raises NoConvergenceError where it does.
    """
    a, b, c = params.a, params.b, params.c
    stop = termination_index(params)
    if stop is not None:
        if stop + 1 > max_terms:
            raise NoConvergenceError("terminating sum over budget")
        last, k0 = stop, max_terms
    elif x == 0:
        return 1.0, 1, False, 0.0
    else:
        af, bf, cf = float(a), float(b), float(c)
        last, k0 = max_terms - 1, _positivity_index(af, bf, cf)
    term = total = 1.0
    terminated = False
    for k in range(last + 1):
        if k >= k0:
            rho = _ratio_majorant(af, bf, cf, x, k)
            if rho < 1.0:
                bound = abs(term) * rho / (1.0 - rho)
                if bound <= tol:
                    break
        if k == last:
            if stop is None:
                raise NoConvergenceError("tail bound still above tol")
            terminated, bound = True, 0.0
            break
        term = term * (a + k) * (b + k) / ((k + 1) * (c + k)) * x
        total = total + term
    return total, k + 1, terminated, bound


def fraction_eval_series(params, x, tol: float, max_terms: int):
    """(value, terms_used, terminated, tail_bound) of a Fraction term loop.

    The stopping rule of ``eval_series``, with each term reduced to lowest
    terms as it is formed and added; raises NoConvergenceError where it does.
    """
    a, b, c = params.a, params.b, params.c
    stop = termination_index(params)
    if stop is not None:
        if stop + 1 > max_terms:
            raise NoConvergenceError("terminating sum over budget")
        last, k0 = stop, max_terms
    elif x == 0:
        return Fraction(1), 1, False, 0.0
    else:
        af, bf, cf = float(a), float(b), float(c)
        last, k0 = max_terms - 1, _positivity_index(af, bf, cf)
    term = total = Fraction(1)
    for k in range(last + 1):
        if k >= k0:
            rho = _ratio_majorant(af, bf, cf, x, k)
            if rho < 1.0:
                try:
                    bound = abs(float(term)) * rho / (1.0 - rho)
                except OverflowError:
                    bound = math.inf
                if bound <= tol:
                    return total, k + 1, False, bound
        if k == last:
            break
        term = term * (a + k) * (b + k) / ((k + 1) * (c + k)) * x
        total = total + term
    if stop is not None:
        return total, stop + 1, True, 0.0
    raise NoConvergenceError("tail bound still above tol")


def fraction_coefficients(params, degree: int) -> list:
    """c_0 .. c_degree by the recurrence, one Fraction (or float) per step."""
    a, b, c = params.a, params.b, params.c
    coeffs = [Fraction(1) if params.exact() else 1.0]
    for k in range(degree):
        coeffs.append(coeffs[k] * (a + k) * (b + k) / ((k + 1) * (c + k)))
    return coeffs


def fraction_ode_residual(params, degree: int) -> list:
    """Coefficients of x(1-x) s'' + [c-(a+b+1)x] s' - ab s on the
    degree-N truncation, through x**(N+1)."""
    coeffs = fraction_coefficients(params, degree)
    a, b, c = params.a, params.b, params.c
    d1 = _poly_derivative(coeffs)
    d2 = _poly_derivative(d1)
    return _poly_sum(
        _poly_mul([0, 1, -1], d2),
        _poly_mul([c, -(a + b + 1)], d1),
        _poly_scale(coeffs, -(a * b)),
        length=degree + 2,
    )


def fraction_operator_identity_residual(params, degree: int) -> list:
    """Left minus right side of the pre-division operator identity on the
    basis x**(b-1+j), j = 0..degree."""
    coeffs = fraction_coefficients(params, degree)
    a, b, c = params.a, params.b, params.c
    d1 = _poly_derivative(coeffs)
    d2 = _poly_derivative(d1)
    lhs = _poly_sum(
        _shift(d2, 2),
        _poly_scale(_shift(d1, 1), a + b + 1),
        _poly_scale(coeffs, a * b),
        length=degree + 1,
    )
    rhs = _poly_sum(
        _shift(d2, 1),
        _poly_scale(d1, c),
        length=degree + 1,
    )
    return [lv - rv for lv, rv in zip(lhs, rhs)]


def isinstance_render_json(value) -> str:
    """Canonical JSON of a report: the first isinstance test that holds."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{isinstance_render_json(v)}"
                         for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(isinstance_render_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
