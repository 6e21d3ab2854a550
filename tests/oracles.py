"""Independent reference implementations used only by tests.

Everything here recomputes values from explicit closed-form products, never
through the library's recurrences, so agreement is a genuine cross-check
rather than the same code run twice.  Exact inputs only.  The one exception
is ``fraction_eval_series``, which keeps the library's stopping rule and
steps every term in ``Fraction`` arithmetic, as a reference for the integer
arithmetic of ``eval_series``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gausshyp import NoConvergenceError, termination_index
from gausshyp.series import _positivity_index, _ratio_majorant


def brute_binom(m, k: int) -> Fraction:
    """Falling factorial over k!, term by term."""
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(m) - j
    return num / math.factorial(k)


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
        af, bf, cf, xf = float(a), float(b), float(c), float(x)
        last, k0 = max_terms - 1, _positivity_index(af, bf, cf)
    term = total = Fraction(1)
    for k in range(last + 1):
        if k >= k0:
            rho = _ratio_majorant(af, bf, cf, xf, k)
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
