"""The Gauss hypergeometric series and its differential-operator checks.

Everything here works on the power series

    s(x) = 1 + (a b)/(1 c) x + (a(a+1) b(b+1))/(1*2 c(c+1)) x**2 + ...

through the coefficient recurrence

    (k+1)(c+k) c_{k+1} = (a+k)(b+k) c_k,      c_0 = 1,

in exact rational arithmetic or in doubles, depending on the inputs.  When
a or b is a nonpositive integer the series is a polynomial and is summed
completely, at x = 0 after its first term whatever its degree; otherwise
summation stops once a geometric tail bound falls below the requested
tolerance.  Two loops share that stop rule: a float loop on the doubles of
the inputs, and an integer loop for exact inputs.  They share its
refusals too: a sum whose majorant at the last budgeted term shows that
no term within the budget can stop it fails before its first term in
either loop.  The float loop tests no term of a polynomial against the
float range, so it refuses one whose sum is inf or nan at its last term.
The integer loop runs in one of two modes.  Exact, it steps an integer
numerator P, denominator Q and partial sum T per term and reduces the sum
to lowest terms once, when it is returned.  Where only the double of the
sum is wanted, under a float prefactor, scaled_sum runs it in W-bit fixed
point with running error bounds e and E, rounding once, at W, 2W, 4W and
8W bits, and exactly where none of them decides.  The term's double is
taken from |P| and |Q|, since Q turns negative after a step where
c + k < 0.  Past the index where the majorant of the term ratios applies,
both loops check every term, and a term above the tail gate costs the
float loop one range test.  The exact loop refuses a sum whose integers
outgrow the bit cap of scalar.power.  The exact
coefficients and the two operator residuals work the same way: integer
numerators over one common denominator, each returned value reduced once.
The operator identity is -x**(b-1) times the differential operator, so its
residual is read from the entries of the ODE residual, which are formed
once.  ``ode_checks``, which ``gausshyp verify ode`` runs, compares those
integers and reduces nothing.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, InvalidCError, NoConvergenceError
from .scalar import (_FLOAT_MAX_INT, Scalar, _power_bits, as_integer,
                     check_finite, is_exact, is_nonpositive_integer)

#: Largest truncation degree accepted by the exact-mode polynomial
#: operations.  Their integers have about N log N digits at degree N; an
#: exact ode_residual at (1/3, 2/7; 5/9) takes about 4 ms at this cap and
#: 0.4 ms at 64 on a 2-core x86 host.
EXACT_DEGREE_CAP = 256

#: The largest double, as a float: a term above it is inf or nan.
_FLOAT_MAX = sys.float_info.max
#: The least normal double.
_FLOAT_MIN = sys.float_info.min
#: A record from the tuple of its fields, as namedtuple's own __new__ forms
#: it one Python call deeper.
_pack = tuple.__new__

#: 32 u, u = 2**-53: the margin allowed each rounding of a ratio in the
#: refusal of a hopeless sum (see _stop_rule).
_MARGIN = 2.0 ** -48


class HypergeometricParams(namedtuple("HypergeometricParams", "a b c")):
    """Parameter triple (a, b, c) of the series.

    Each parameter must be finite, and c must not be zero or a negative
    integer: the recurrence denominator (k+1)(c+k) would vanish at k = -c.
    """

    __slots__ = ()

    def __new__(cls, a: Scalar, b: Scalar, c: Scalar) -> HypergeometricParams:
        for name, value in (("a", a), ("b", b), ("c", c)):
            check_finite(name, value)
        if is_nonpositive_integer(c):
            raise InvalidCError(f"c = {c} is zero or a negative integer")
        return _pack(cls, (a, b, c))

    @classmethod
    def _make(cls, fields) -> HypergeometricParams:
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*fields)

    def exact(self) -> bool:
        return is_exact(self.a) and is_exact(self.b) and is_exact(self.c)


class SeriesEvaluation(namedtuple(
        "SeriesEvaluation", "value terms_used terminated tail_bound")):
    """Result of summing the series at one point.

    value        -- the partial (or complete) sum: exact where every input
                    was and the sum is taken exactly, as eval_series takes
                    it; the fixed-point mode of _integer_sum, which
                    scaled_sum runs under a float scale, returns a double
                    from exact inputs, the exact sum rounded once
    terms_used   -- number of terms added, >= 1
    terminated   -- True when no nonzero terms remain past the last one
    tail_bound   -- bound on the truncation error, the neglected tail
                    |sum of terms past the last one|; 0.0 if terminated.
                    It does not bound the rounding error of a float sum.
    """

    __slots__ = ()


# ---- validation helpers ----

def check_eval_point(x: Scalar) -> None:
    """Reject points outside the open interval of convergence (-1, 1)."""
    if not abs(float(x)) < 1.0:
        raise DomainError(f"x = {x} is outside the open interval (-1, 1)")


def check_budget(tol: float, max_terms: int) -> None:
    """Reject a tol that is not positive and finite, or a budget below 1
    or above 2**53, which no sum can spend."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not 1 <= max_terms <= 2 ** 53:
        raise DomainError(f"max_terms must lie in [1, 2**53], got {max_terms}")


# ---- coefficients and termination ----

def _check_degree(params: HypergeometricParams, degree: int, least: int) -> None:
    if degree < least:
        raise DomainError(f"degree must be >= {least}, got {degree}")
    if degree > EXACT_DEGREE_CAP and params.exact():
        raise DomainError(
            f"exact-mode degree {degree} exceeds the cap {EXACT_DEGREE_CAP}")


def _integer_coefficients(params: HypergeometricParams,
                          degree: int) -> tuple[list[int], int]:
    """Numerators N_0 .. N_degree over one common denominator D, exact params.

    With a = na/da, b = nb/db, c = nc/dc, c_k = P_k/Q_k, where P_k and Q_k
    are the products of the factors p(j) = (na + j da)(nb + j db) dc and
    q(j) = (j+1)(nc + j dc) da db of _integer_sum over j < k.  Then
    D = Q_degree and N_k = P_k R_k, where R_k = D / Q_k is the product of
    q(j) over k <= j < degree, so c_k = N_k / D with no gcd taken.
    """
    a, b, c = params.a, params.b, params.c
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc, dab = c.numerator, c.denominator, a.denominator * b.denominator
    P = [1]
    for k in range(degree):
        P.append(P[k] * (na + k * da) * (nb + k * db) * dc)
    R = [1] * (degree + 1)
    for k in range(degree - 1, -1, -1):
        R[k] = R[k + 1] * (k + 1) * (nc + k * dc) * dab
    return [p * r for p, r in zip(P, R)], R[0]


def _check_double_c(params: HypergeometricParams, c: float) -> None:
    """Refuse the double c of params.c where it is zero or a negative
    integer, as only an exact c can round to: a step on doubles would
    divide by zero at k = -c."""
    if c <= 0.0 and c.is_integer():
        raise InvalidCError(f"c = {params.c} is {c} as a double, zero or a "
                            "negative integer")


def coefficients(params: HypergeometricParams, degree: int) -> list[Scalar]:
    """Series coefficients c_0 .. c_degree from the recurrence.

    Exact coefficients are formed on integers over one common denominator
    and reduced once each; float coefficients step the recurrence in doubles.
    """
    _check_degree(params, degree, 0)
    if params.exact():
        num, D = _integer_coefficients(params, degree)
        return [Fraction(n, D) for n in num]
    a, b, c = float(params.a), float(params.b), float(params.c)
    _check_double_c(params, c)
    coeffs: list[Scalar] = [1.0]
    for k in range(degree):
        coeffs.append(coeffs[k] * (a + k) * (b + k) / ((k + 1) * (c + k)))
    return coeffs


def termination_index(params) -> int | None:
    """Smallest m >= 0 with a+m == 0 or b+m == 0, or None, for any
    sequence (a, b, c).

    Past that index every coefficient vanishes, so the series is a
    polynomial of degree m.
    """
    stops = []
    for p in params[:2]:
        n = as_integer(p)
        if n is not None and n <= 0:
            stops.append(-n)
    return min(stops) if stops else None


# ---- tail majorant ----
#
# For k past the index where a+k, b+k and c+k are all positive, the factors
# (a+j)/(1+j) and (b+j)/(c+j) of the term ratio are each monotone in j with
# limit 1, so their suprema over j >= k are max(1, value at k).  Hence
#
#     rho_k = |x| * max(1, (a+k)/(1+k)) * max(1, (b+k)/(c+k))
#
# bounds every later term ratio, and the tail after term k is at most
# |t_k| * rho_k / (1 - rho_k) once rho_k < 1.  rho_k -> |x| < 1, so the
# stopping rule always fires eventually.
#
# The gate.  rho_k >= |x| holds in doubles too, since each max is >= 1.0
# and rounding is monotone; so fl(1 - rho_k) <= fl(1 - |x|), and the
# computed bound fl(fl(|t_k| rho_k) / fl(1 - rho_k)) is at least
# fl(fl(g |x|) / fl(1 - |x|)) whenever |t_k| >= g.  A g that makes the
# latter exceed tol is a gate: no term at or above it can stop the sum,
# so such a term needs neither rho_k nor the bound.  Any larger g is a
# gate too, inf included, so the gate need only be sound, not least.

def _tail_gate(ax: float, tol: float) -> float:
    """A gate g for |x| = ax: fl(fl(g ax) / fl(1 - ax)) > tol, or inf.

    The first try is tol (1 - ax) / ax nudged up by a few ulps, which
    passes unless a product underflows into the subnormals and loses bits
    there; each further try doubles g.  Four tries keep the search O(1)
    for every tol and ax.  Where they all miss, or where ax is 0.0 or so
    small that no double passes, the gate is inf, which leaves every term
    to the full check.
    """
    if not ax > 0.0:
        return math.inf
    d = 1.0 - ax
    g = tol / ax * d * (1.0 + 2.0 ** -49) or 5e-324  # the product is >= 0
    for _ in range(4):
        if g * ax / d > tol:
            return g
        g *= 2.0
    # the sound fallback, which no input is known to reach: a try misses
    # only where g ax rounds among the subnormals, by at most half of
    # 5e-324, which the doublings outgrow; 357 000 (ax, tol) draws, tols
    # among the subnormals and |x| near 0 and 1 among them, missed no four
    return math.inf


def _ratio_majorant(k: int, af: float, bf: float, cf: float,
                    ax: float) -> float:
    """rho_k, which bounds every term ratio past term k once k >= k0."""
    f1 = (af + k) / (1.0 + k)
    f2 = (bf + k) / (cf + k)
    return ax * (f1 if f1 > 1.0 else 1.0) * (f2 if f2 > 1.0 else 1.0)


def _budget_spent(tol: float, max_terms: int) -> NoConvergenceError:
    return NoConvergenceError(
        f"tail bound still above tol={tol} after {max_terms} terms")


def _stop_rule(params, x: Scalar, tol: float, max_terms: int):
    """The stop rule of one sum at a checked x, tol and max_terms, shared
    by every summation loop.  params is any sequence (a, b, c): the float
    loop passes the plain tuple of its doubles, whose c is unchecked.

    Returns (last, polynomial, k0, gate, af, bf, cf, ax): the index of
    the last term the sum may reach; True when that term ends the series,
    which then needs no majorant, False when reaching it spends the
    budget; the first term whose majorant is checked; the gate of
    _tail_gate; and the parameters as doubles and |x|, for rho_k and the
    float loop's step.  x = 0 is read first: there every term past the
    first is 0, so a polynomial of any degree ends at its first term,
    within any budget, and a sum that is not a polynomial is its first
    term alone, with a zero tail: None.  An exact x whose double is
    0.0 takes |x| as the least double 5e-324, which is at least |x|:
    rho_k = 0 would call its nonzero tail 0.

    This is the one place that turns a sum away before its first term, for
    the float loop and the integer loop alike: a polynomial over budget at
    x != 0; a
    sum whose majorant applies only from a term k0 past the budget; and a
    sum whose computed majorant at the last budgeted term is at least
    1 + 2**-48, inf included, with |x| normal.
    No term up to the last can stop that sum, so it raises the error of a
    spent budget.
    """
    af, bf, cf = map(float, params)
    stop = termination_index(params)
    if x == 0:
        if stop is None:
            return None
        stop = 0
    if stop is not None:
        if stop + 1 > max_terms:
            raise NoConvergenceError(
                f"series terminates after {stop + 1} terms but max_terms={max_terms}")
        return stop, True, max_terms, math.inf, af, bf, cf, 0.0
    # the first k with a+k, b+k and c+k all positive
    k0 = 0 if (worst := min(af, bf, cf)) > 0.0 else math.floor(-worst) + 1
    if k0 > max_terms - 1:
        raise NoConvergenceError(
            f"the tail bound applies from term {k0} on, past "
            f"max_terms={max_terms}")
    ax, last = abs(float(x)) or 5e-324, max_terms - 1
    if ax >= _FLOAT_MIN:
        # A sum whose majorant at the last budgeted term is >= 1 + 32u,
        # u = 2**-53, fails here, before its first term, with the error of
        # a spent budget.  Past k0, rho_k is non-increasing in k
        # (see the tail majorant), so rho_k >= rho_last.  _ratio_majorant
        # rounds seven times: two sums and a quotient per factor, less
        # 1 + k, exact below 2**53, and two products.  Below the float
        # range and with |x| normal, each rounding is within u relative.
        # So a finite computed rho_last puts the real one above
        # (1 + 32u) / (1 + u)**7, and each computed rho_k is inf, or above
        # (1 + 32u) (1 - u)**7 / (1 + u)**7 > 1: no rho_k < 1 lets a term
        # stop the sum.  An inf rho_last overflowed: f1 cannot, as 1 + k
        # >= 1, so f2 or a product passed the largest double, and as
        # |x| >= 2**-1022 the real rho_last is at least about 4, each
        # computed rho_k inf or above 1 again.  Both loops form rho_k with
        # this function on these doubles, so the integer loop would spend
        # the budget, and the float loop would too, or first stop at a term
        # past the float range.
        if 1.0 + _MARGIN <= _ratio_majorant(last, af, bf, cf, ax):
            raise _budget_spent(tol, max_terms)
    return last, False, k0, _tail_gate(ax, tol), af, bf, cf, ax


# ---- evaluation ----
#
# Two loops sum the series.  eval_series steps the term recurrence in
# doubles, t_{k+1} = t_k (a+k) (b+k) / ((k+1)(c+k)) x in that operand
# order, on the doubles of a, b, c and x.  k is a float counter stepped by
# 1.0: every k < 2**53 is a double, so each add in the step is float +
# float, with the bits of float + int.  Its gate test is the signed range
# gate <= t <= hi or -hi <= t <= -gate, with hi the largest double; as
# gate > 0 this holds on exactly the doubles where gate <= |t| <= hi does:
# +-0.0 lies in neither half, no comparison holds for nan, and +-inf lies
# past hi, also where gate = inf.  The loop tests that range before
# k >= k0; both tests are pure comparisons, so their order changes no
# outcome, and a term above the gate costs one test.
#
# _integer_sum steps it on integers: with a = na/da, b = nb/db,
# c = nc/dc and x = nx/dx, each step multiplies in p(k) = (na + k da)
# (nb + k db) nx dc and q(k) = (k+1)(nc + k dc) da db dx, and term k is
# P/Q, within e/|Q|, and the partial sum T/Q, within E/|Q|.
#
# Exact (width None): P, Q and T are stepped exactly, P *= p(k), Q *= q(k),
# T = T q(k) + P, with e = E = 0.  No gcd is taken until the sum is
# returned as Fraction(T, Q), so the value is the one a Fraction term loop
# gives, and since P/Q rounds to the same double as the reduced term, so
# are terms_used and tail_bound.
#
# Fixed point (width W): Q = 2**W stays, and P = floor(P p(k) / q(k)).
# The floor moves the exact product by less than one unit, so
# e_{k+1} = ceil(e_k |p(k)| / |q(k)|) + 1 bounds the error again.  A step
# costs O(W + log|t_k|) bits, where the exact step grows P, Q and T by
# every factor.  The stop rule reads fl(|t_k|) and the result is
# fl(sum t_k); each is taken only where both ends of its interval round to
# the same double, which is then the exact one, so the outcome is the
# exact loop's bit for bit, or None where the width cannot decide it.
#
# Both modes share the gate test, which reads bit lengths alone.  With
# e < 2**(bl(P) - 2), |t_k| >= (|P| - e)/|Q| > 2**(bl(P) - bl(Q) - 1),
# since e = 0 in the exact loop and Q = 2**W in fixed point.  The gate is
# below 2**gate_exp, so a term with bl(P) - bl(Q) > gate_exp lies above
# it and skips rho_k and the bound.  The term's double is taken from |P|
# and |Q|, as Q is negative after any step where c + k < 0.


def eval_series(params: HypergeometricParams, x: Scalar, tol: float = 1e-12,
                max_terms: int = 10000) -> SeriesEvaluation:
    """Sum the series at x, |x| < 1.

    Terminating parameter sets are summed completely (exactly when all
    inputs are exact).  Otherwise terms accumulate until the geometric
    majorant bound on the remaining tail drops to tol.  Only a term below
    the gate of _tail_gate can meet tol, so the float loop tests each term
    against the gate range first, and only a term below the gate, past
    k0, pays for rho_k and the bound.  A sum that _stop_rule shows no term
    can stop raises NoConvergenceError before its first term.  A float
    term past the float range (inf or nan) never comes back, so another
    sum that is not a polynomial raises it at the first such term it
    checks, and so does one whose bound meets tol after a denominator
    (k+1)(c+k) past the float range has zeroed its terms.  No term of a
    polynomial is tested against the float range, but an inf or nan term
    leaves its sum inf or nan, so the float loop raises DomainError at its
    last term where the sum is past the float range.  Exact params and x
    are summed by _integer_sum; any other sum runs on the doubles of its
    inputs, and ends where they do, with the bits of the same call on
    them.
    """
    check_eval_point(x)
    check_budget(tol, max_terms)
    if params.exact() and is_exact(x):
        return _integer_sum(params, x, tol, max_terms, None)
    # the step runs on the doubles of the parameters and of x, so the sum
    # ends where they do: an exact a or b whose double is a nonpositive
    # integer gives a polynomial at that double's index.  They stay a plain
    # tuple: their c may be a pole (-3.0 or 0.0), which _check_double_c
    # refuses below
    rule = _stop_rule(tuple(map(float, params)), x, tol, max_terms)
    if rule is None:
        return SeriesEvaluation(1.0, 1, False, 0.0)
    last, polynomial, k0, gate, a, b, c, ax = rule
    _check_double_c(params, c)
    x = float(x)
    term = total = 1.0
    # kf is k as a double, stepped by 1.0; the step forms k+1 once, as k1,
    # for its denominator and the next kf.  k0 and last are doubles too, so
    # that each test compares two floats.
    kf, k0, last = 0.0, float(k0), float(last)
    hi, nhi, ngate = _FLOAT_MAX, -_FLOAT_MAX, -gate
    terminated = False
    while True:
        # gate <= |term| <= hi, as a signed range: only a term below the
        # gate can meet tol; an inf or nan fails the range test too, and
        # stops the sum here.  The range test comes first, so that a term
        # above the gate costs one test
        if not (gate <= term <= hi or nhi <= term <= ngate) and kf >= k0:
            if not abs(term) <= hi:
                raise NoConvergenceError(
                    f"term {int(kf)} is {term}, outside the float range")
            rho = _ratio_majorant(kf, a, b, c, ax)
            if rho < 1.0:
                bound = abs(term) * rho / (1.0 - rho)
                if bound <= tol:
                    # the last step's denominator, rebuilt exactly, is inf
                    # where any step's was, as past k0 it grows with k:
                    # then the terms were zeroed, not small
                    if kf * (c + (kf - 1.0)) > hi:
                        raise NoConvergenceError(
                            f"the denominator of term {int(kf)} is inf, "
                            "outside the float range")
                    break
        if kf == last:
            if not polynomial:
                raise _budget_spent(tol, max_terms)
            # no term of a polynomial is range-tested, but an inf or nan
            # term leaves the sum inf or nan
            if not abs(total) <= hi:
                raise DomainError(f"the polynomial's sum is {total}, "
                                  "outside the float range")
            terminated, bound = True, 0.0
            break
        term = term * (a + kf) * (b + kf) / ((k1 := kf + 1.0) * (c + kf)) * x
        total = total + term
        kf = k1
    return _pack(SeriesEvaluation, (total, int(kf) + 1, terminated, bound))


def _start_width(tol: float, max_terms: int) -> int:
    """W of a first try: 64 bits below tol and 2 per bit of the budget,
    since the error of a k-term sum grows about as k**2 units."""
    return 64 + 2 * max_terms.bit_length() + max(0, -math.frexp(tol)[1])


def _term_double(n: int, d: int) -> float:
    """fl(n / d) for n >= 0 and d > 0, inf where it lies past the float
    range."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def _sum_double(lo: int, hi: int, one: int) -> float | None:
    """The double of every value in [lo, hi] / one, or None.

    A value past the float range, as check_finite counts it, is inf of
    its sign; an interval that straddles that edge, or a double, is None.
    """
    limit = _FLOAT_MAX_INT * one
    if lo > limit:
        return math.inf
    if hi < -limit:
        return -math.inf
    if lo < -limit or limit < hi or (lo <= 0 <= hi and lo != hi):
        return None
    value = lo / one
    return value if value == hi / one else None


def _integer_sum(params: HypergeometricParams, x: Scalar, tol: float,
                 max_terms: int, width: int | None) -> SeriesEvaluation | None:
    """eval_series for exact params and x, on integers, at a checked x, tol
    and max_terms.

    Width None sums exactly and returns a Fraction value.  An int width
    sums in width-bit fixed point and returns the value rounded to a
    double, inf of its sign past the float range, which check_finite
    rejects as it rejects the exact sum; or None where the width cannot
    decide the term count or the value.  NoConvergenceError is raised
    where the exact sum raises it, before the first term where _stop_rule
    turns the sum away.  An exact sum whose Q passes the bit cap of
    scalar.power, _power_bits(), raises DomainError at that term: its
    value could not be printed, and its steps would grow without bound.
    """
    rule = _stop_rule(params, x, tol, max_terms)
    exact = width is None
    if rule is None:
        return SeriesEvaluation(Fraction(1) if exact else 1.0, 1, False, 0.0)
    last, polynomial, k0, gate, af, bf, cf, ax = rule
    a, b, c = params
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc = c.numerator, c.denominator
    nx_dc, dabx = x.numerator * dc, da * db * x.denominator
    Q = 1 if exact else 1 << width
    P = T = Q
    e = E = 0
    bq = Q.bit_length()  # only the exact step changes Q
    cap = _power_bits() if exact else None
    gate_exp = math.frexp(gate)[1] if gate < math.inf else math.inf
    terminated = False
    for k in range(last + 1):
        if k >= k0:
            n = P.bit_length()
            if n - bq <= gate_exp or e.bit_length() > n - 2:
                rho = _ratio_majorant(k, af, bf, cf, ax)
                if rho < 1.0:
                    u, v = abs(P), abs(Q)
                    t = _term_double(max(u - e, 0), v)
                    if e and t != _term_double(u + e, v):
                        return None
                    bound = t * rho / (1.0 - rho)
                    if bound <= tol:
                        break
        if k == last:
            if not polynomial:
                raise _budget_spent(tol, max_terms)
            terminated, bound = True, 0.0
            break
        p = (na + k * da) * (nb + k * db) * nx_dc
        q = (k + 1) * (nc + k * dc) * dabx
        if exact:
            P *= p
            Q *= q
            T = T * q + P
            bq = Q.bit_length()
            if bq > cap:
                raise DomainError(f"the exact sum's denominator passes "
                                  f"{cap} bits at term {k + 1}")
        else:
            P = P * p // q
            e = -(-e * abs(p) // abs(q)) + 1
            T += P
            E += e
    value = Fraction(T, Q) if exact else _sum_double(T - E, T + E, Q)
    return (None if value is None
            else SeriesEvaluation(value, k + 1, terminated, bound))


def scaled_sum(scale: Scalar, params: HypergeometricParams, x: Scalar,
               tol: float, max_terms: int) -> SeriesEvaluation:
    """scale * s(params; x) with its tail bound, tol applying to the product.

    The series is summed to tol / |scale| (to tol when |scale| underflows
    to 0.0) and its tail bound scaled back by |scale|.  A product that is
    a float needs the sum finite, inside the float range: a float scale
    takes float() of an exact sum, and a float sum may have overflowed.
    Under a float scale an exact sum is wanted only as its double, so it
    is first summed in fixed point by _integer_sum, at a start width W and
    at 2W, 4W and 8W; a sum none of them decides is summed exactly, by
    _integer_sum at width None, and its value rounded once by the product.
    """
    check_finite("prefactor", scale)
    check_eval_point(x)
    return _scaled_sum(scale, abs(float(scale)), params, x, tol, max_terms)


def _scaled_sum(scale: Scalar, mag: float, params: HypergeometricParams,
                x: Scalar, tol: float, max_terms: int) -> SeriesEvaluation:
    """scaled_sum at a checked x, for a scale checked finite, of magnitude
    mag.  A float sum is taken by eval_series.  An exact one is taken by
    _integer_sum, once max_terms is checked, along one list of widths:
    None alone under an exact scale, and W, 2W, 4W, 8W, None under a
    float one, so that its last rung is the exact loop, which decides."""
    inner_tol = tol / mag if mag > 0.0 else tol
    if not 0.0 < inner_tol < math.inf:
        raise DomainError(f"tol {tol} over the prefactor magnitude {mag} "
                          "leaves the positive float range")
    if not (params.exact() and is_exact(x)):
        out = eval_series(params, x, inner_tol, max_terms)
    else:
        check_budget(inner_tol, max_terms)
        # width None, the exact loop, always decides
        w = _start_width(inner_tol, max_terms)
        widths = (None,) if is_exact(scale) else (w, 2 * w, 4 * w, 8 * w, None)
        for width in widths:
            out = _integer_sum(params, x, inner_tol, max_terms, width)
            if out is not None:
                break
    if not (is_exact(scale) and is_exact(out.value)):
        check_finite("scaled series value", out.value)
    return _pack(SeriesEvaluation, (scale * out.value, out.terms_used,
                                    out.terminated, out.tail_bound * mag))


# ---- operator residuals ----
#
# Both residuals run on one scale.  For exact parameters the truncation is
# the integer numerators N_k of c_k = N_k / D, and the operator is multiplied
# by M = da db dc, which makes M, M c, M (a+b+1) and M ab integers; every
# entry is then an integer, divided once by M D on return.  Float
# parameters take the float coefficients with M = D = 1.

def _scaled_operator(params: HypergeometricParams, degree: int):
    """(s, M D, M, M c, M (a+b+1), M ab) for the degree-N truncation s."""
    a, b, c = params.a, params.b, params.c
    if not params.exact():
        return coefficients(params, degree), 1, 1, c, a + b + 1, a * b
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    nc, dc = c.numerator, c.denominator
    s, D = _integer_coefficients(params, degree)
    M = da * db * dc
    return (s, M * D, M, nc * da * db, (na * db + nb * da + da * db) * dc,
            na * nb * dc)


def _derivatives(s: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """The coefficients of s' and s'' padded with zeros, [0, *s', 0] and
    [0, 0, *s'', 0, 0]: entry t+1 of the first and t+2 of the second
    multiply x**t, and an entry one or two powers below x**0 reads 0."""
    d1 = [k * s[k] for k in range(1, len(s))]
    d2 = [k * d1[k] for k in range(1, len(d1))]
    return [0, *d1, 0], [0, 0, *d2, 0, 0]


def _ode_entries(op, d1: list[Scalar], d2: list[Scalar]) -> list[Scalar]:
    """ode_residual's entries on the scale of op = _scaled_operator(...),
    from the padded derivatives d1, d2 of _derivatives.

    Entry t is the x**t coefficient of x(1-x) s'', plus that of
    [c - (a+b+1)x] s', minus ab s[t].  The parts and their terms are added
    in the order of a product of dense coefficient lists, so a float entry
    keeps its bits.  The 0 of x(1-x) times d2[t] stays, as it makes a nan
    of an inf d2[t].  A pad meets a float factor only as 0 times a finite
    c, or at x**0 as 0 times a+b+1, which is inf only where ab is, so
    that s[1] and s[2] are inf or nan and the entry is nan already.  The
    sums cannot come out -0.0, so they need no leading 0.  The x**(N+1)
    entry is 0, since x(1-x) s'' cannot reach that power.
    """
    s, _, m, mc, mabp1, mab = op
    return [(0 * u + m * v - m * w) + (mc * e1 - mabp1 * e0) - mab * y
            for u, v, w, e1, e0, y in zip(d2[2:], d2[1:], d2, d1[1:], d1, s)
            ] + [0]


def _exact_operator(params: HypergeometricParams, degree: int):
    """_scaled_operator for the exact-mode-only operator identity."""
    _check_degree(params, degree, 2)
    if not params.exact():
        raise DomainError("operator identity check is exact-mode only")
    return _scaled_operator(params, degree)


def ode_residual(params: HypergeometricParams, degree: int) -> list[Scalar]:
    """Apply x(1-x) d2 + [c-(a+b+1)x] d1 - ab to the degree-N truncation.

    Returns the coefficients of the residual polynomial, entry j
    multiplying x**j, through x**(N+1).
    Built from explicit polynomial arithmetic rather than the recurrence
    identity, so exact zeros genuinely cross-check the coefficients: entries
    0..N-1 must vanish, entry N is -(a+N)(b+N) c_N, and entry N+1 vanishes
    because x(1-x) d2 cannot reach that power.  Exact entries are Fractions,
    each reduced once.
    """
    _check_degree(params, degree, 2)
    op = _scaled_operator(params, degree)
    residual = _ode_entries(op, *_derivatives(op[0]))
    if params.exact():
        return [Fraction(v, op[1]) for v in residual]
    return residual


def operator_identity_residual(params: HypergeometricParams,
                               degree: int) -> list[Scalar]:
    """Differences of the two sides of the pre-division operator identity

        x**(b+1) s'' + (a+b+1) x**b s' + ab x**(b-1) s
            vs   x**b s'' + c x**(b-1) s'

    expanded on the formal monomial basis x**(b-1+j); entry j is the
    difference of the two x**(b-1+j) coefficients.  That difference is
    -x**(b-1) times the operator of ode_residual, so entry j is minus
    ode_residual's entry j, for j <= degree, and is formed from its
    integer entries.  Every entry with j <= degree-1 is exactly zero;
    entry degree is the truncation artifact (a+N)(b+N) c_N.  Exact mode
    only: the point of this check is exact bits.
    """
    op = _exact_operator(params, degree)
    entries = _ode_entries(op, *_derivatives(op[0]))
    return [Fraction(-v, op[1]) for v in entries[:degree + 1]]


def ode_checks(params: HypergeometricParams,
               degree: int) -> tuple[list[bool], list[bool], list[bool]]:
    """The cases of ``gausshyp verify ode`` for exact params: three lists
    of verdicts on the degree-N truncation, each True where it holds.

    zeros     -- ode_residual's entries 0..N-1 and N+1 are zero
    tip       -- one case: its entry N is -(a+N)(b+N) c_N, the survivor
    identity  -- operator_identity_residual's entries 0..N-1 are zero, and
                 its entry N is (a+N)(b+N) c_N

    The residual's entries are compared as integers over one scale M D,
    from one truncation whose coefficients and derivatives are formed
    once.  (a+N)(b+N) c_N on that scale is dc (na + N da)(nb + N db) N_N,
    since M (a+N)(b+N) = dc (na + N da)(nb + N db) and c_N = N_N / D.  An
    entry is zero, or equal to it, exactly when its Fraction is, so no
    Fraction is formed.  The identity's entries are minus the residual's
    0..N, so its verdicts are the zero verdicts of 0..N-1 and the tip's.
    """
    op = _exact_operator(params, degree)
    a, b, c = params.a, params.b, params.c
    tip = ((a.numerator + degree * a.denominator)
           * (b.numerator + degree * b.denominator)
           * c.denominator * op[0][degree])
    res = _ode_entries(op, *_derivatives(op[0]))
    zeros = [v == 0 for v in res[:degree] + res[degree + 1:]]
    survivor = [res[degree] == -tip]
    return zeros, survivor, zeros[:degree] + survivor


def substitution_residual(params: HypergeometricParams, n_exp: Scalar,
                          x: Scalar, tol: float = 1e-12,
                          max_terms: int = 100000) -> float:
    """Residual of the transformed equation for z = (1-x)**(-n) s at x.

    Substituting s = (1-x)**n z into the second-order equation and dividing
    the z-derivative terms by z gives, for every exponent n,

        x(1-x) z''/z - 2nx z'/z + [c-(a+b+1)x] z'/z
            + n(n-1) x/(1-x) - n[c-(a+b+1)x]/(1-x) - ab  =  0.

    The ratios reduce to series data alone,

        z'/z  = s'/s + n/(1-x)
        z''/z = s''/s + 2n s'/(s (1-x)) + n(n+1)/(1-x)**2,

    so no power of (1-x) is ever formed.  The derivatives come from DLMF
    15.5.1, s^(d) = (a)_d (b)_d / (c)_d * s(a+d, b+d; c+d; x), each
    product summed to tol.  Returns the numerical residual, which is zero
    up to rounding and series truncation; a point where s = 0 is rejected.
    """
    xf = float(x)
    if not 0.0 < xf < 0.9:
        raise DomainError(f"x must lie in (0, 0.9), got {x}")
    a, b, c = float(params.a), float(params.b), float(params.c)
    n = float(n_exp)

    def derivative(d: int) -> float:
        scale = 1.0
        for j in range(d):
            scale *= (a + j) * (b + j) / (c + j)
        if scale == 0.0:
            return 0.0
        shifted = HypergeometricParams(a + d, b + d, c + d)
        return scaled_sum(scale, shifted, xf, tol, max_terms).value

    s0 = derivative(0)
    if s0 == 0.0:
        raise DomainError(f"s = 0 at x = {x}; the transformed equation "
                          "divides by s")
    s1, s2 = derivative(1), derivative(2)
    u = 1.0 - xf
    zr1 = s1 / s0 + n / u
    zr2 = s2 / s0 + 2.0 * n * s1 / (s0 * u) + n * (n + 1.0) / (u * u)
    lin = c - (a + b + 1.0) * xf
    return (xf * u * zr2 - 2.0 * n * xf * zr1 + lin * zr1
            + n * (n - 1.0) * xf / u - n * lin / u - a * b)
