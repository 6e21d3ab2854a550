"""The Euler transformation s = (1-x)**(c-a-b) z and the character series.

z is the same kind of series with upper parameters alpha = c-a, beta = c-b
and the same c.  Applying the map twice returns the original parameters, and
whenever alpha or beta is a nonpositive integer the transformed series is a
polynomial even though the original is infinite, which is what makes the
transformation useful as a summation accelerator.  ``evaluate`` sums s at
one point both ways, picks the cheaper side and checks that both values can
be reported, and ``agreement`` forms the residual between the two and the
allowance it must stay within: together they are ``gausshyp eval`` and
each ``gausshyp bench`` row.

The second half of the module handles sums of products of two binomial
characters, sum_k binom(m1, k) binom(m2, e+k) x**k.  Three sign patterns of
one such sum are proportional to each other, with (1-x)**(f+h+1) carrying
the non-trivial ratio.  ``triple_relations``, which ``gausshyp verify
triple`` runs, yields the residual and allowance of all three pairings at
each point; ``verify_triple_relations`` reports them at one point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum

from .binom import binom_char
from .errors import DomainError, NoConvergenceError, no_convergence_in
from .scalar import (Scalar, _Checked, as_integer, check_finite,
                     check_index, check_printable, is_exact, power)
from .series import (HypergeometricParams, SeriesEvaluation, _pack,
                     _scaled_sum, check_budget, check_eval_point, eval_series,
                     scaled_sum)


# ---- parameter maps ----

class TripleParams(_Checked, namedtuple("TripleParams", "e f h")):
    """Character-series parameters (e, f, h) with e = c-1, f = -a, h = c-b-1.

    Only defined when c is a positive integer, i.e. e is a nonnegative
    integer; the inverse map is a = -f, b = e-h, c = e+1.
    """

    __slots__ = ()

    def __new__(cls, e: int, f: Scalar, h: Scalar) -> TripleParams:
        check_index("e", e)
        return super().__new__(cls, e, f, h)


def euler_transform_params(
        params: HypergeometricParams) -> tuple[HypergeometricParams, Scalar]:
    """Map (a, b, c) to (c-a, c-b, c) and the prefactor exponent c-a-b."""
    a, b, c = params.a, params.b, params.c
    return HypergeometricParams(c - a, c - b, c), c - a - b


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
    """Evaluate s at x through the transformed series: scaled_sum of the
    Euler triple, the scale (1-x)**(c-a-b) with z's parameters
    (c-a, c-b, c) at x.

    Integer exponents keep exact inputs exact; otherwise the prefactor is a
    double.  tol applies to the returned value, as in scaled_sum.  x is
    checked before the prefactor is formed, as power would report a base
    1-x <= 0 for an x >= 1.
    """
    check_eval_point(x)
    z_params, exponent = euler_transform_params(params)
    return scaled_sum(power(1 - x, exponent), z_params, x, tol, max_terms)


class Representation(str, Enum):
    RAW = "raw"
    TRANSFORMED = "transformed"


class RepresentationChoice(namedtuple("RepresentationChoice",
                                      "representation reason")):
    """The representation to report for one point, and why."""

    __slots__ = ()


def select_representation(raw: SeriesEvaluation,
                          transformed: SeriesEvaluation) -> RepresentationChoice:
    """Pick the cheaper of two sums of the same s(a, b; c; x).

    A side that terminated wins over one that did not; otherwise the side
    that took fewer terms wins, with ties going to raw.
    """
    (best, win), (other, lose) = (raw, "raw"), (transformed, "transformed")
    if (not other.terminated, other.terms_used) < (not best.terminated,
                                                   best.terms_used):
        (best, win), (other, lose) = (other, lose), (best, win)
    if best.terminated != other.terminated:
        reason = (f"{win} series terminates after {best.terms_used} "
                  f"terms; {lose} does not")
    elif best.terms_used < other.terms_used:
        reason = f"{best.terms_used} terms vs {other.terms_used} {lose}"
    else:
        reason = f"both sides take {best.terms_used} terms; tie goes to {win}"
    return _pack(RepresentationChoice, (Representation(win), reason))


def evaluate(params: HypergeometricParams, x: Scalar, tol: float = 1e-12,
             max_terms: int = 10000) -> tuple:
    """Sum s at x through both representations and pick one.

    Returns (raw, transformed, choice): eval_series, eval_transformed and
    select_representation of the two, in that order, which is what
    ``gausshyp eval`` and each ``gausshyp bench`` row report.  Each value
    must be one a report can hold: finite, inside the float range, and
    printable, the raw value checked first; a value that is not raises
    DomainError, once both are summed and the choice made.
    """
    raw = eval_series(params, x, tol, max_terms)
    transformed = eval_transformed(params, x, tol, max_terms)
    choice = select_representation(raw, transformed)
    for name, out in (("raw value", raw), ("transformed value", transformed)):
        check_finite(name, out.value)
        check_printable(name, out.value)
    return raw, transformed, choice


def agreement(params: HypergeometricParams, x: Scalar, tol: float,
              raw: SeriesEvaluation,
              transformed: SeriesEvaluation) -> tuple[float, float]:
    """(residual, allowance) of the two sums of evaluate at x.

    The residual is |raw - transformed| in doubles, and the allowance
    max(100 tol, floor) (1 + |raw|).  The floor is 0 unless an exact raw
    value meets a double Euler value: its prefactor (1-x)**e, e = c-a-b not
    an integer, is exp(fl(e) log(fl(1-x))).  With u = 2**-53 and
    L = log(1-x), rounding 1-x, e and their product, with log within 1 ulp
    (2u), puts u(|e| + 4|eL|) on the argument of exp; exp (2u), the rounded
    sum, the product, float(raw) and the subtraction add 6u relative.  The
    floor's share, (|e| + 3|eL| + 4) 2**-52 (1+|raw|), exceeds that bound by
    (|e|/2 + |eL| + 1) 2**-52 (1+|raw|), at least a fiftieth of the share,
    which covers the two tails (at most tol each) whenever the floor is the
    larger.  An allowance past the float range raises DomainError.
    """
    floor = 0.0
    if is_exact(raw.value) and isinstance(transformed.value, float):
        e = float(params.c - params.a - params.b)  # as euler_transform_params
        floor = (abs(e) + 3.0 * abs(e * math.log(float(1 - x))) + 4.0) * 2.0 ** -52
    allowance = max(100.0 * tol, floor) * (1.0 + abs(float(raw.value)))
    check_finite("agreement allowance", allowance)
    return abs(float(raw.value) - float(transformed.value)), allowance


# ---- character series ----

def character_series(m1: Scalar, m2: Scalar, shift: int, x: Scalar,
                     tol: float = 1e-12, max_terms: int = 10000) -> SeriesEvaluation:
    """Sum of binom(m1, k) * binom(m2, shift+k) * x**k over k >= 0.

    The term ratio (m1-k)(m2-shift-k) x / ((k+1)(shift+k+1)) is the
    hypergeometric one with a = -m1, b = shift-m2, c = shift+1, so the sum
    is binom(m2, shift) * s(-m1, shift-m2; shift+1; x).  This checks the
    arguments, _character forms the leading character and the parameters
    (non-finite m1 or m2 are rejected there, a zero lead or not), and
    _character_sum sums the product.
    """
    check_index("shift", shift)
    check_eval_point(x)
    check_budget(tol, max_terms)
    return _character_sum(*_character(m1, m2, shift), x, tol, max_terms)


def _character(m1: Scalar, m2: Scalar,
               shift: int) -> tuple[Scalar, HypergeometricParams]:
    """The leading character binom(m2, shift) of the character sum and the
    parameters (-m1, shift-m2; shift+1) of its series."""
    return (binom_char(m2, shift),
            HypergeometricParams(-m1, shift - m2, shift + 1))


def _character_sum(lead: Scalar, params: HypergeometricParams, x: Scalar,
                   tol: float, max_terms: int) -> SeriesEvaluation:
    """lead * s(params; x), the character sum of _character, for a checked
    x, tol and max_terms.

    series._scaled_sum sums the series with the lead as the scale, which
    is checked here, once.  A zero factor terminates the sum exactly; a
    zero lead makes it vanish.  tol applies to the product, but the series
    itself is summed to no less than the least positive double: a tol
    below 5e-324 |lead| is raised to it, where tol / |lead| would
    underflow to 0.
    """
    check_finite("prefactor", lead)
    if not (is_exact(params.a) and is_exact(x)):
        lead = float(lead)
    if lead == 0:
        return SeriesEvaluation(lead, 1, True, 0.0)
    # Below |lead| = 1, tol / |lead| >= tol > 0.  Above, a subnormal
    # fl(|lead| 5e-324) is n 5e-324 with n >= |lead| - 1/2, so its quotient
    # by |lead| is at least 2/3 of 5e-324 and rounds back to it, never to
    # 0; a normal one is off by a relative 2**-53 only.
    mag = abs(float(lead))
    return _scaled_sum(lead, mag, params, x, max(tol, mag * 5e-324), max_terms)


# ---- the three proportional sums ----

class TripleSums(namedtuple("TripleSums", "a_sum b_sum c_sum x terms_used")):
    """The three character sums at one point, in the fixed order

    a_sum:  sum binom(f, k)       binom(h, e+k)       x**k
    b_sum:  sum binom(-e-f-1, k)  binom(e-h-1, e+k)   x**k
    c_sum:  sum binom(-h-1, k)    binom(-f-1, e+k)    x**k
    """

    __slots__ = ()


class TripleRelationCheck(namedtuple(
        "TripleRelationCheck", "residuals allowances passed sums")):
    """Residuals of the three pairwise proportionality relations.

    A relation whose leading characters both vanish is reported as None
    (not applicable) rather than 0 = 0.
    """

    __slots__ = ()


def _characters(tp: TripleParams
                ) -> tuple[tuple[Scalar, HypergeometricParams], ...]:
    """(lead, params) of the three sums, in TripleSums order: the leads are
    [h over e], [e-h-1 over e] and [-f-1 over e]."""
    e, f, h = tp.e, tp.f, tp.h
    return (_character(f, h, e), _character(-e - f - 1, e - h - 1, e),
            _character(-h - 1, -f - 1, e))


def _sums(characters: tuple[tuple[Scalar, HypergeometricParams], ...],
          x: Scalar, tol: float,
          max_terms: int) -> tuple[SeriesEvaluation, ...]:
    """The three sums at a checked x."""
    return tuple(_character_sum(lead, params, x, tol, max_terms)
                 for lead, params in characters)


def _record(sums: tuple[SeriesEvaluation, ...], x: Scalar) -> TripleSums:
    a, b, c = sums
    return TripleSums(a.value, b.value, c.value, x,
                      (a.terms_used, b.terms_used, c.terms_used))


def triple_sums(tp: TripleParams, x: Scalar, tol: float = 1e-12,
                max_terms: int = 10000) -> TripleSums:
    check_eval_point(x)
    check_budget(tol, max_terms)
    return _record(_sums(_characters(tp), x, tol, max_terms), x)


def _relation(k: int, lhs: Scalar, rhs: Scalar,
              tol: float) -> tuple[Scalar, float]:
    """(residual, allowance) of relation k between the sides lhs and rhs."""
    for side in (lhs, rhs):
        check_finite(f"each side of relation {k}", side)
    return abs(lhs - rhs), tol * (1.0 + abs(float(lhs)))


def triple_relations(tp: TripleParams, xs: Iterable[Scalar], tol: float,
                     max_terms: int) -> Iterator[tuple]:
    """Yield (sums, checks) for each point x of xs: the relations of
    verify_triple_relations, and the cases of ``gausshyp verify triple``.

    sums are the three character sums, in TripleSums order, each summed to
    tol / 1000.  checks hold, per relation, None when it does not apply or
    (residual, allowance), the residual |LHS - RHS| and the allowance
    tol * (1 + |LHS|).  The series budget is checked, and the leads and
    parameters of the sums are formed, once for every point.  A sum that
    does not converge raises NoConvergenceError naming its (e, f, h, x),
    tol and max_terms.
    """
    series_tol = max(5e-324, tol / 1000.0)  # positive for any tol > 0
    check_budget(series_tol, max_terms)
    characters = _characters(tp)
    lead_a, lead_b, lead_c = (lead for lead, _ in characters)
    # relations 1 and 2 vanish identically when [h over e] = 0
    applies = lead_a != 0
    exponent = tp.f + tp.h + 1
    for x in xs:
        check_eval_point(x)
        try:
            sums = _sums(characters, x, series_tol, max_terms)
        except NoConvergenceError as exc:
            raise no_convergence_in(
                f"(e, f, h, x) = ({tp.e}, {tp.f}, {tp.h}, {x})", tol,
                max_terms, exc) from None
        sa, sb, sc = (s.value for s in sums)
        p = power(1 - x, exponent)
        checks: list[tuple | None] = [None, None, None]
        if applies:
            ap = lead_a * p
            if not (is_exact(sb) and is_exact(sc)):
                # ap * B multiplies [h over e] p first; exact past the
                # float range, it could not be rounded to meet a float sum
                check_finite("each side of relation 1", ap)
            checks[0] = _relation(1, lead_b * sa, ap * sb, tol)
            checks[1] = _relation(2, lead_c * sa, ap * sc, tol)
        checks[2] = _relation(3, lead_c * sb, lead_b * sc, tol)
        yield sums, checks


def verify_triple_relations(tp: TripleParams, x: Scalar, tol: float = 1e-10,
                            max_terms: int = 10000) -> TripleRelationCheck:
    """Check the three pairwise relations between the sums at x.

    With A, B, C the three sums, p = (1-x)**(f+h+1), and writing [m over e]
    for binom_char(m, e):

        [e-h-1 over e] A  =  [h over e]      p B
        [-f-1  over e] A  =  [h over e]      p C
        [-f-1  over e] B  =  [e-h-1 over e]  C

    A, B and C are their leads times s(-f, e-h; e+1; x),
    s(e+f+1, h+1; e+1; x) and s(h+1, e+f+1; e+1; x), so once the leads
    cancel, relation 1 is Euler's transformation of s(-f, e-h; e+1; x),
    relation 2 the same with the upper parameters swapped on the right,
    and relation 3 the a <-> b symmetry of s(e+f+1, h+1; e+1; x).

    Each residual must stay below tol * (1 + |LHS|), and each sum is
    summed to tol / 1000.  Relations 1 and 2 are skipped (None) when
    [h over e] = 0, since both sides then vanish identically and would
    test nothing.  Each residual is the Scalar difference of the sides,
    a Fraction when they are exact.  A side past the float range raises
    DomainError.
    """
    sums, checks = next(triple_relations(tp, (x,), tol, max_terms))
    residuals = tuple(None if chk is None else chk[0] for chk in checks)
    allowances = tuple(None if chk is None else chk[1] for chk in checks)
    passed = all(r is None or float(r) <= alw
                 for r, alw in zip(residuals, allowances))
    return TripleRelationCheck(residuals, allowances, passed,
                               _record(sums, x))
