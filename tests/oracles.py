"""Independent reference implementations used only by tests.

Everything here recomputes values from explicit closed-form products, never
through the library's recurrences, so agreement is a genuine cross-check
rather than the same code run twice.  Exact inputs only.  The exceptions
are the references for the library's own arithmetic:
``fraction_eval_series``, which keeps the library's stopping rule and steps
every term in ``Fraction`` arithmetic; ``float_eval_series``, the same
stopping rule stepped in doubles with the majorant as its own function,
and ``float_eval_error``, the text of the error the float loop raises
where that one cannot sum;
``fraction_coefficients``, ``fraction_ode_residual`` and
``fraction_operator_identity_residual``, which build the coefficients and
the operator residuals one ``Fraction`` operation at a time (floats too);
``scalar_triple_relations``, the three-series relations as products and
differences of ``Scalar`` sides;
``theta_identity_reference``, the theta identity's sides from its own two
characters binom(n, i) and binom(-n-1, i);
``float_binom``, the running product of (m-j+1)/j in doubles;
``isinstance_render_json``, the report renderer as a chain of isinstance
tests with ``json.dumps`` for every string; and ``reference_format_float``,
the float it renders, as format(v, ".17g") with "-0" read as "0".
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from gausshyp import (NoConvergenceError, binom_char, termination_index,
                      triple_sums)
from gausshyp.scalar import Scalar, power


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
    if x == 0:
        # the terms past the first are 0: a polynomial ends at its first
        if stop is None:
            return 1.0, 1, False, 0.0
        stop = 0
    if stop is not None:
        if stop + 1 > max_terms:
            raise NoConvergenceError("terminating sum over budget")
        last, k0 = stop, max_terms
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
                    if k * (c + (k - 1)) == math.inf:
                        raise NoConvergenceError("a denominator overflowed")
                    break
        if k == last:
            if stop is None:
                raise NoConvergenceError("tail bound still above tol")
            terminated, bound = True, 0.0
            break
        term = term * (a + k) * (b + k) / ((k + 1) * (c + k)) * x
        total = total + term
    return total, k + 1, terminated, bound


def float_eval_error(params, x: float, tol: float, max_terms: int) -> str:
    """The message of the NoConvergenceError that ``eval_series`` raises
    for a float sum that ``float_eval_series`` cannot sum.

    A polynomial over budget, a majorant that applies only past the
    budget, and a majorant of at least 1 + 2**-48, inf included, at the
    last budgeted term, below 2**53 with |x| normal, are refused first; else a
    term outside the float range stops the sum at the first one past k0,
    as no later term comes back, or a term whose bound meets tol after a
    denominator k (c + k - 1) past the float range, which zeroed the terms;
    else the budget runs out.
    """
    stop = termination_index(params)
    if stop is not None:
        return (f"series terminates after {stop + 1} terms but "
                f"max_terms={max_terms}")
    a, b, c = params.a, params.b, params.c
    k0 = _positivity_index(float(a), float(b), float(c))
    if k0 > max_terms - 1:
        return (f"the tail bound applies from term {k0} on, past "
                f"max_terms={max_terms}")
    budget = f"tail bound still above tol={tol} after {max_terms} terms"
    if max_terms <= 2 ** 53 and abs(x) >= sys.float_info.min:
        rho = _ratio_majorant(float(a), float(b), float(c), x, max_terms - 1)
        if 1.0 + 2.0 ** -48 <= rho:
            return budget
    term = 1.0
    for k in range(max_terms):
        if k >= k0:
            if not math.isfinite(term):
                return f"term {k} is {term}, outside the float range"
            rho = _ratio_majorant(a, b, c, x, k)
            if (rho < 1.0 and abs(term) * rho / (1.0 - rho) <= tol
                    and k * (c + (k - 1)) == math.inf):
                return (f"the denominator of term {k} is inf, outside the "
                        "float range")
        term = term * (a + k) * (b + k) / ((k + 1) * (c + k)) * x
    return budget


def fraction_eval_series(params, x, tol: float, max_terms: int):
    """(value, terms_used, terminated, tail_bound) of a Fraction term loop.

    The stopping rule of ``eval_series``, with each term reduced to lowest
    terms as it is formed and added; raises NoConvergenceError where it does.
    """
    a, b, c = params.a, params.b, params.c
    stop = termination_index(params)
    if x == 0:
        # the terms past the first are 0: a polynomial ends at its first
        if stop is None:
            return Fraction(1), 1, False, 0.0
        stop = 0
    if stop is not None:
        if stop + 1 > max_terms:
            raise NoConvergenceError("terminating sum over budget")
        last, k0 = stop, max_terms
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


# ---- polynomial helpers (dense coefficient lists, index = power) ----

def _poly_derivative(p: list[Scalar]) -> list[Scalar]:
    return [k * p[k] for k in range(1, len(p))]


def _poly_mul(p: list[Scalar], q: list[Scalar]) -> list[Scalar]:
    out: list[Scalar] = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def _poly_sum(*polys: list[Scalar], length: int) -> list[Scalar]:
    out: list[Scalar] = [0] * length
    for p in polys:
        for i, v in enumerate(p[:length]):
            out[i] = out[i] + v
    return out


def _poly_scale(p: list[Scalar], factor: Scalar) -> list[Scalar]:
    return [factor * v for v in p]


def _shift(p: list[Scalar], by: int) -> list[Scalar]:
    return [0] * by + p


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


def theta_identity_reference(spec, q_I: float,
                             q_II: float) -> tuple[float, float]:
    """Both sides of binom(n, i) (1-a**2)**(n+1) q_I = binom(-n-1, i)
    (1-a**2)**(-n) q_II, each character from ``brute_binom``, in the
    product order of the library's sides."""
    a, n, i = spec.a_mod, spec.n, spec.i
    return (float(brute_binom(n, i)) * power(1.0 - a * a, n + 1) * q_I,
            float(brute_binom(-n - 1, i)) * power(1.0 - a * a, -n) * q_II)


def scalar_triple_relations(tp, x, tol: float = 1e-10,
                            max_terms: int = 10000):
    """(residuals, allowances, passed, sums) of the three relations, each
    side a chain of Scalar products, each residual |lhs - rhs| reduced as
    Fraction or float arithmetic gives it; the sums are triple_sums at
    tol / 1000."""
    series_tol = max(5e-324, tol / 1000.0)
    sums = triple_sums(tp, x, series_tol, max_terms)
    e, f, h = tp.e, tp.f, tp.h
    lead_h = binom_char(h, e)
    lead_b = binom_char(e - h - 1, e)
    lead_c = binom_char(-f - 1, e)
    p = power(1 - x, f + h + 1)

    def check(lhs, rhs):
        residual = abs(lhs - rhs)
        return residual, tol * (1.0 + abs(float(lhs)))

    results = [None, None, None]
    allowances = [None, None, None]
    if lead_h != 0:
        results[0], allowances[0] = check(lead_b * sums.a_sum,
                                          lead_h * p * sums.b_sum)
        results[1], allowances[1] = check(lead_c * sums.a_sum,
                                          lead_h * p * sums.c_sum)
    results[2], allowances[2] = check(lead_c * sums.b_sum, lead_b * sums.c_sum)
    passed = all(r is None or float(r) <= alw
                 for r, alw in zip(results, allowances))
    return tuple(results), tuple(allowances), passed, sums


def reference_format_float(v: float) -> str:
    """A finite double at 17 significant digits, "-0" read as "0"; a
    non-finite one has no JSON form and raises ValueError."""
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite float in report")
    text = format(v, ".17g")
    return "0" if text == "-0" else text


def isinstance_render_json(value) -> str:
    """Canonical JSON of a report: the first isinstance test that holds."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return reference_format_float(value)
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
