"""The Euler transformation s = (1-x)**(c-a-b) z and the character series.

z is the same kind of series with upper parameters alpha = c-a, beta = c-b
and the same c.  Applying the map twice returns the original parameters, and
whenever alpha or beta is a nonpositive integer the transformed series is a
polynomial even though the original is infinite, which is what makes the
transformation useful as a summation accelerator.

The second half of the module handles sums of products of two binomial
characters, sum_k binom(m1, k) binom(m2, e+k) x**k.  Three sign patterns of
one such sum are proportional to each other, with (1-x)**(f+h+1) carrying
the non-trivial ratio; ``verify_triple_relations`` checks all three
pairings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .binom import binom_char
from .errors import DomainError
from .scalar import Scalar, as_integer, check_index, is_exact, power
from .series import (HypergeometricParams, SeriesEvaluation, check_budget,
                     check_eval_point, eval_series, termination_index)


# ---- parameter maps ----

@dataclass(frozen=True)
class TransformedParams:
    """Parameters of the transformed series plus the prefactor exponent."""

    alpha: Scalar
    beta: Scalar
    c: Scalar
    exponent: Scalar

    def as_params(self) -> HypergeometricParams:
        return HypergeometricParams(self.alpha, self.beta, self.c)


@dataclass(frozen=True)
class TripleParams:
    """Character-series parameters (e, f, h) with e = c-1, f = -a, h = c-b-1.

    Only defined when c is a positive integer, i.e. e is a nonnegative
    integer; the inverse map is a = -f, b = e-h, c = e+1.
    """

    e: int
    f: Scalar
    h: Scalar

    def __post_init__(self) -> None:
        check_index("e", self.e)


def euler_transform_params(params: HypergeometricParams) -> TransformedParams:
    """Map (a, b, c) to (c-a, c-b, c) with prefactor exponent c-a-b."""
    a, b, c = params.a, params.b, params.c
    return TransformedParams(c - a, c - b, c, c - a - b)


def triple_params(params: HypergeometricParams) -> TripleParams:
    """Map (a, b, c) to (e, f, h) = (c-1, -a, -b+c-1); needs c a positive integer."""
    e = as_integer(params.c)
    if e is None or e < 1:
        raise DomainError(
            f"triple parameters need c a positive integer, got c = {params.c}")
    return TripleParams(e - 1, -params.a, -params.b + params.c - 1)


def params_from_triple(tp: TripleParams) -> HypergeometricParams:
    return HypergeometricParams(-tp.f, tp.e - tp.h, tp.e + 1)


# ---- transformed evaluation and representation choice ----

def eval_transformed(params: HypergeometricParams, x: Scalar,
                     tol: float = 1e-12, max_terms: int = 10000) -> SeriesEvaluation:
    """Evaluate s at x through the transformed series.

    Sums z with parameters (c-a, c-b, c) and multiplies by (1-x)**(c-a-b).
    Integer exponents keep exact inputs exact; otherwise the prefactor is a
    double.  tol applies to the returned value: the z series is summed to
    tol divided by the prefactor magnitude, so the scaled tail bound still
    lands under tol even when the prefactor is large.
    """
    check_eval_point(x)
    tp = euler_transform_params(params)
    factor = power(1 - x, tp.exponent)
    factor_mag = abs(float(factor))
    z_tol = tol / factor_mag if factor_mag > 0.0 else tol
    z = eval_series(tp.as_params(), x, z_tol, max_terms)
    return SeriesEvaluation(
        value=factor * z.value,
        terms_used=z.terms_used,
        terminated=z.terminated,
        tail_bound=z.tail_bound * factor_mag,
    )


class Representation(str, Enum):
    RAW = "raw"
    TRANSFORMED = "transformed"


@dataclass(frozen=True)
class RepresentationChoice:
    representation: Representation
    reason: str
    raw_estimate: int
    transformed_estimate: int


def estimate_terms(params: HypergeometricParams, x: Scalar,
                   tol: float = 1e-12) -> int:
    """Geometric-model term count at x.

    Exact for terminating series; otherwise ceil(log tol / log |x|), since
    the term ratio tends to |x|.  A heuristic, not a certified count.
    """
    m = termination_index(params)
    if m is not None:
        return m + 1
    xf = abs(float(x))
    if xf == 0.0:
        return 1
    return max(1, math.ceil(math.log(tol) / math.log(xf)))


def select_representation(params: HypergeometricParams, x: Scalar,
                          tol: float = 1e-12) -> RepresentationChoice:
    """Pick the cheaper of the raw and transformed representations.

    A terminating side always wins over a non-terminating one; otherwise
    the smaller estimated term count wins, with ties going to raw.
    """
    zp = euler_transform_params(params).as_params()
    m_raw = termination_index(params)
    m_z = termination_index(zp)
    est_raw = estimate_terms(params, x, tol)
    est_z = estimate_terms(zp, x, tol)
    if m_z is not None and m_raw is None:
        choice, reason = Representation.TRANSFORMED, (
            f"transformed series terminates after {m_z + 1} terms; raw does not")
    elif m_raw is not None and m_z is None:
        choice, reason = Representation.RAW, (
            f"raw series terminates after {m_raw + 1} terms; transformed does not")
    elif est_z < est_raw:
        choice, reason = Representation.TRANSFORMED, (
            f"estimated {est_z} terms vs {est_raw} raw")
    elif est_raw < est_z:
        choice, reason = Representation.RAW, (
            f"estimated {est_raw} terms vs {est_z} transformed")
    else:
        choice, reason = Representation.RAW, (
            f"both sides estimate {est_raw} terms; tie goes to raw")
    return RepresentationChoice(choice, reason, est_raw, est_z)


# ---- character series ----

def character_series(m1: Scalar, m2: Scalar, shift: int, x: Scalar,
                     tol: float = 1e-12, max_terms: int = 10000) -> SeriesEvaluation:
    """Sum of binom(m1, k) * binom(m2, shift+k) * x**k over k >= 0.

    The term ratio (m1-k)(m2-shift-k) x / ((k+1)(shift+k+1)) is the
    hypergeometric one with a = -m1, b = shift-m2, c = shift+1, so the sum
    is binom(m2, shift) * s(-m1, shift-m2; shift+1; x), summed by
    eval_series to tol divided by the magnitude of the leading character.
    A zero factor terminates the sum exactly; a zero leading character
    makes it vanish.
    """
    check_index("shift", shift)
    check_eval_point(x)
    check_budget(tol, max_terms)
    lead: Scalar = binom_char(m2, shift)
    if not (is_exact(m1) and is_exact(x)):
        lead = float(lead)
    if lead == 0:
        return SeriesEvaluation(lead, 1, True, 0.0)
    lead_mag = abs(float(lead))
    out = eval_series(HypergeometricParams(-m1, shift - m2, shift + 1), x,
                      tol / lead_mag, max_terms)
    return SeriesEvaluation(lead * out.value, out.terms_used, out.terminated,
                            out.tail_bound * lead_mag)


# ---- the three proportional sums ----

@dataclass(frozen=True)
class TripleSums:
    """The three character sums at one point, in the fixed order

    a_sum:  sum binom(f, k)       binom(h, e+k)       x**k
    b_sum:  sum binom(-e-f-1, k)  binom(e-h-1, e+k)   x**k
    c_sum:  sum binom(-h-1, k)    binom(-f-1, e+k)    x**k
    """

    a_sum: Scalar
    b_sum: Scalar
    c_sum: Scalar
    x: Scalar
    terms_used: tuple[int, int, int]


@dataclass(frozen=True)
class TripleRelationCheck:
    """Residuals of the three pairwise proportionality relations.

    A relation whose leading characters both vanish is reported as None
    (not applicable) rather than 0 = 0.
    """

    residuals: tuple[Scalar | None, Scalar | None, Scalar | None]
    allowances: tuple[float | None, float | None, float | None]
    passed: bool
    sums: TripleSums


def triple_sums(tp: TripleParams, x: Scalar, tol: float = 1e-12,
                max_terms: int = 10000) -> TripleSums:
    e, f, h = tp.e, tp.f, tp.h
    a = character_series(f, h, e, x, tol, max_terms)
    b = character_series(-e - f - 1, e - h - 1, e, x, tol, max_terms)
    c = character_series(-h - 1, -f - 1, e, x, tol, max_terms)
    return TripleSums(a.value, b.value, c.value, x,
                      (a.terms_used, b.terms_used, c.terms_used))


def verify_triple_relations(tp: TripleParams, x: Scalar, tol: float = 1e-10,
                            max_terms: int = 10000) -> TripleRelationCheck:
    """Check the three pairwise relations between the sums at x.

    With A, B, C the three sums, p = (1-x)**(f+h+1), and writing [m over e]
    for binom_char(m, e):

        [e-h-1 over e] A  =  [h over e]      p B
        [-f-1  over e] A  =  [h over e]      p C
        [-f-1  over e] B  =  [e-h-1 over e]  C

    Each residual must stay below tol * (1 + |LHS|).  Relations 1 and 2
    are skipped (None) when [h over e] = 0, since both sides then vanish
    identically and would test nothing.
    """
    series_tol = max(1e-15, tol / 1000.0)
    sums = triple_sums(tp, x, series_tol, max_terms)
    e, f, h = tp.e, tp.f, tp.h
    lead_h = binom_char(h, e)
    lead_b = binom_char(e - h - 1, e)
    lead_c = binom_char(-f - 1, e)
    p = power(1 - x, f + h + 1)

    def check(lhs: Scalar, rhs: Scalar) -> tuple[Scalar, float]:
        residual = abs(lhs - rhs)
        return residual, tol * (1.0 + abs(float(lhs)))

    results: list[Scalar | None] = [None, None, None]
    allowances: list[float | None] = [None, None, None]
    if lead_h != 0:
        results[0], allowances[0] = check(lead_b * sums.a_sum,
                                          lead_h * p * sums.b_sum)
        results[1], allowances[1] = check(lead_c * sums.a_sum,
                                          lead_h * p * sums.c_sum)
    results[2], allowances[2] = check(lead_c * sums.b_sum, lead_b * sums.c_sum)
    passed = all(r is None or float(r) <= alw
                 for r, alw in zip(results, allowances))
    return TripleRelationCheck(tuple(results), tuple(allowances), passed, sums)
