"""Tests for series evaluation, tail bounds, and the operator residuals."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

import gausshyp
from gausshyp import (EXACT_DEGREE_CAP, DomainError, HypergeometricParams,
                      IntegralSpec, InvalidCError, NoConvergenceError,
                      SeriesEvaluation, TripleParams, coefficients,
                      euler_transform_params, eval_series, ode_residual,
                      operator_identity_residual, substitution_residual,
                      termination_index)
from gausshyp import series
from gausshyp.scalar import check_finite, is_nonpositive_integer
from gausshyp.series import _integer_sum, _start_width, _tail_gate
from oracles import (brute_coefficient, brute_series, float_eval_error,
                     float_eval_series,
                     fraction_coefficients, fraction_eval_series,
                     fraction_ode_residual, fraction_operator_identity_residual)

P = HypergeometricParams


# ---- parameter validation ----

def test_invalid_c_rejected():
    for c in (0, -3, F(-2), -2.0, 0.0):
        with pytest.raises(InvalidCError):
            P(1, 1, c)


def test_invalid_c_is_domain_error():
    with pytest.raises(DomainError):
        P(1, 1, 0)


def test_non_finite_params_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1, 2), (1, bad, 2), (1, 1, bad)):
            with pytest.raises(DomainError):
                P(*args)


def test_non_integer_negative_c_allowed():
    P(1, 1, -2.5)
    P(1, 1, F(-5, 2))
    P(1, 1, F(1, 2))


# ---- records ----
#
# The records are named tuples.  A checked one checks its fields however
# it is built: namedtuple's _make and _replace go around __new__ unless
# the record routes them through it.

CHECKED = [
    (HypergeometricParams, (1, 1, 2), {"c": 0}, InvalidCError,
     "c = 0 is zero or a negative integer"),
    (HypergeometricParams, (1, 1, 2), {"a": math.nan}, DomainError,
     "a must be finite"),
    (TripleParams, (1, 2, 3), {"e": -1}, DomainError,
     "e must be a nonnegative integer, got -1"),
    (IntegralSpec, (0.5, 1, 2), {"a_mod": 1.0}, DomainError,
     r"a_mod must lie in \(0, 1\), got 1.0"),
]


@pytest.mark.parametrize("record, fields, bad, error, message", CHECKED,
                         ids=[f"{case[0].__name__}-{next(iter(case[2]))}"
                              for case in CHECKED])
def test_every_constructor_checks_the_record(record, fields, bad, error,
                                             message):
    good = record(*fields)
    assert record._make(fields) == good == record(**good._asdict())
    assert good._replace() == good
    spoilt = {**good._asdict(), **bad}
    for build in (lambda: record(**spoilt),
                  lambda: record(*spoilt.values()),
                  lambda: record._make(spoilt.values()),
                  lambda: good._replace(**bad)):
        with pytest.raises(error, match=message):
            build()


RECORDS = [getattr(gausshyp, name) for name in (
    "HypergeometricParams", "SeriesEvaluation", "TripleParams",
    "RepresentationChoice", "TripleSums", "TripleRelationCheck",
    "IntegralSpec", "IntegralResult")]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_immutable_named_tuples(record):
    fields = {name: 1 for name in record._fields}
    if record is IntegralSpec:
        fields["a_mod"] = 0.5
    built = record(**fields)
    assert tuple(built) == tuple(fields.values()) == built
    assert built._fields == tuple(fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 2)
    with pytest.raises(AttributeError):
        built.extra = 2  # no instance dict


def test_record_repr_reads_as_in_the_readme():
    assert repr(euler_transform_params(P(1, 1, 2))) == (
        "(HypergeometricParams(a=1, b=1, c=2), 0)")
    assert repr(SeriesEvaluation(F(1, 2), 3, True, 0.0)) == (
        "SeriesEvaluation(value=Fraction(1, 2), terms_used=3, "
        "terminated=True, tail_bound=0.0)")


# ---- coefficients ----

def test_coefficients_terminating():
    assert coefficients(P(-2, 3, 1), 4) == [1, -6, 6, 0, 0]


def test_coefficients_log_pattern():
    # a=b=1, c=2 gives c_k = 1/(k+1)
    assert coefficients(P(1, 1, 2), 5) == [F(1, k + 1) for k in range(6)]


def test_coefficients_degree_zero():
    assert coefficients(P(5, -7, F(1, 3)), 0) == [1]


@pytest.mark.parametrize("a,b,c", [
    (1, 1, 2), (-2, 3, 1), (F(1, 2), F(1, 2), F(3, 2)),
    (F(-7, 3), 4, F(5, 2)), (2, -5, F(1, 4)),
])
def test_coefficients_match_product_formula(a, b, c):
    got = coefficients(P(a, b, c), 12)
    assert got == [brute_coefficient(a, b, c, k) for k in range(13)]


def test_float_coefficients():
    got = coefficients(P(1.0, 1.0, 2.0), 3)
    assert all(isinstance(v, float) for v in got)
    assert got == pytest.approx([1, 0.5, 1 / 3, 0.25])


def test_exact_degree_cap():
    with pytest.raises(DomainError):
        coefficients(P(1, 1, 2), EXACT_DEGREE_CAP + 1)
    coefficients(P(1.0, 1.0, 2.0), EXACT_DEGREE_CAP + 1)  # float mode uncapped


# ---- termination ----

def test_termination_index():
    assert termination_index(P(-2, 3, 1)) == 2
    assert termination_index(P(3, -1, 2)) == 1
    assert termination_index(P(-4, -2, 1)) == 2
    assert termination_index(P(0, 5, 1)) == 0
    assert termination_index(P(F(1, 2), F(1, 2), F(3, 2))) is None
    assert termination_index(P(-2.0, 3.5, 1.5)) == 2
    assert termination_index(P(-2.5, 3.5, 1.5)) is None


# ---- evaluation ----

def test_eval_at_zero():
    out = eval_series(P(1, 1, 2), F(0))
    assert out.value == 1 and out.terms_used == 1
    outf = eval_series(P(1.0, 1.0, 2.0), 0.0)
    assert outf.value == 1.0 and outf.terms_used == 1
    # rho_0 would be 0 * inf here: x = 0 must not reach the majorant
    for params, x in ((P(1e308, 1e308, 1e-308), 0.0),
                      (P(F(10 ** 308), F(10 ** 308), F(1, 10 ** 308)), F(0))):
        for out in (eval_series(params, x),
                    series.scaled_sum(1.0, params, x, 1e-12, 10000)):
            assert (out.value, out.terms_used, out.terminated,
                    out.tail_bound) == (1, 1, False, 0.0)


@pytest.mark.parametrize("a", [0, -3, -20000])
def test_a_polynomial_at_zero_ends_at_its_first_term(term_steps, a):
    # every term past the first is 0 at x = 0: a polynomial is complete
    # after one term, whatever its degree and budget, exact or in doubles,
    # and steps no term
    for params, x in ((P(a, 1, 1), F(0)), (P(float(a), 1.0, 1.0), 0.0)):
        for out in (eval_series(params, x),
                    eval_series(params, x, 1e-12, 1),
                    series.scaled_sum(1.0, params, x, 1e-12, 10000),
                    series.scaled_sum(F(1), params, x, 1e-12, 10000)):
            assert (out.value, out.terms_used, out.terminated,
                    out.tail_bound) == (1, 1, True, 0.0)
        assert _outcome(float_eval_series, params, x, 1e-12, 1) \
            == (1, 1, True, 0.0)
        assert _outcome(fraction_eval_series, params, x, 1e-12, 1) \
            == (1, 1, True, 0.0)
    assert term_steps == []


def test_eval_log_value():
    # s(1,1;2;x) = -ln(1-x)/x
    out = eval_series(P(1, 1, 2), 0.5, tol=1e-12)
    assert out.tail_bound <= 1e-12
    assert abs(out.value - 2 * math.log(2)) <= out.tail_bound + 1e-14
    assert not out.terminated


def test_eval_exact_terminating():
    out = eval_series(P(-2, 3, 1), F(1, 4))
    assert out.value == F(-1, 8)
    assert isinstance(out.value, F)
    assert out.terminated and out.terms_used == 3 and out.tail_bound == 0.0


def test_eval_domain():
    for x in (1, -1, 1.5, F(7, 5)):
        with pytest.raises(DomainError):
            eval_series(P(1, 1, 2), x)


def test_eval_bad_budget():
    with pytest.raises(DomainError):
        eval_series(P(1, 1, 2), 0.5, tol=0.0)
    with pytest.raises(DomainError):
        eval_series(P(1, 1, 2), 0.5, max_terms=0)


def test_no_convergence():
    with pytest.raises(NoConvergenceError):
        eval_series(P(1, 1, 2), 0.9, max_terms=5)


def test_terminating_over_budget():
    with pytest.raises(NoConvergenceError):
        eval_series(P(-50, 1, 1), F(1, 2), max_terms=10)


@pytest.mark.parametrize("a,b,c", [
    (1, 1, 2), (F(1, 2), F(1, 2), F(3, 2)), (F(5, 2), F(-1, 3), F(5, 4)),
    (3, 2, F(1, 2)), (F(-9, 4), 1, 3),
])
@pytest.mark.parametrize("x", [0.15, -0.4, 0.62, 0.85])
def test_tail_bound_is_valid(a, b, c, x):
    # summing 50 more terms never moves the value past the reported bound
    out = eval_series(P(a, b, c), x, tol=1e-8)
    af, bf, cf = float(a), float(b), float(c)
    term, partial = 1.0, 1.0
    for k in range(out.terms_used + 50):
        if k + 1 == out.terms_used:
            partial_at_stop = partial
        term = term * (af + k) * (bf + k) / ((k + 1) * (cf + k)) * x
        partial += term
    extended = partial
    assert abs(float(out.value) - partial_at_stop) <= 1e-12 * (1 + abs(partial_at_stop))
    assert abs(extended - float(out.value)) <= out.tail_bound * (1 + 1e-9) + 1e-15


@pytest.mark.parametrize("a,b,c", [
    (1, 1, 2), (F(1, 2), F(1, 2), F(3, 2)), (2, F(-1, 3), F(5, 4)),
])
@pytest.mark.parametrize("x", [F(1, 8), F(-2, 5), F(1, 2)])
def test_exact_and_float_agree(a, b, c, x):
    exact = eval_series(P(a, b, c), x, tol=1e-14, max_terms=100000)
    floats = eval_series(P(float(a), float(b), float(c)), float(x),
                         tol=1e-14, max_terms=100000)
    assert abs(float(exact.value) - floats.value) <= 1e-13 * (1 + abs(floats.value))


@pytest.mark.parametrize("a,b,c,x", [
    (1, 1, 2, 0.5), (0.5, 1 / 3, 1.25, 0.7), (2.5, -0.5, 1.25, -0.6),
    (-1.5, 2.25, 0.75, 0.3),
])
def test_against_mpmath(a, b, c, x):
    out = eval_series(P(a, b, c), x, tol=1e-13, max_terms=100000)
    expected = float(mpmath.hyp2f1(a, b, c, x))
    assert abs(out.value - expected) <= 5e-12 * (1 + abs(expected))


# ---- exact sums against the Fraction term loop ----

exact_scalars = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(-40, 40), st.integers(-40, 40).map(F))
exact_points = st.fractions(min_value=F(-11, 12), max_value=F(11, 12),
                            max_denominator=12)


@st.composite
def exact_triples(draw):
    """(a, b, c), forced in some draws to terminate raw or transformed."""
    a, b, c = draw(exact_scalars), draw(exact_scalars), draw(exact_scalars)
    if F(c).denominator == 1 and c <= 0:
        c -= F(1, 2)  # c may not be zero or a negative integer
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["generic", "raw stops", "transformed stops"]))
    if kind == "raw stops":
        a = -n
    elif kind == "transformed stops":
        b = c + n
    return a, b, c


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except NoConvergenceError:
        return None


@seed(1998)
@settings(max_examples=100, deadline=None)
@given(exact_triples(), exact_points,
       st.sampled_from([1e-3, 1e-8, 1e-12, 1e-16]), st.integers(1, 1500))
@example((F(7, 3), F(-5, 2), F(-37, 4)), F(5, 6), 1e-12, 300)  # q(k) < 0 first
@example((3, 5, 7), F(-2, 3), 1e-12, 300)                      # plain ints, x < 0
@example((F(4), F(9), F(2)), F(1, 2), 1e-8, 300)               # integer Fractions
@example((F(5, 2), F(1, 3), F(-7, 2)), 0, 1e-12, 10)           # x = 0
@example((-30, F(7, 5), F(-3, 2)), F(-11, 12), 1e-12, 300)     # raw terminates
@example((F(1, 3), F(17, 4), F(5, 4)), F(3, 4), 1e-12, 300)    # transformed terminates
@example((F(39, 2), F(77, 3), F(1, 12)), F(11, 12), 1e-12, 50)  # budget runs out
@example((-40, 1, 1), F(1, 2), 1e-12, 10)                      # polynomial over budget
def test_exact_sum_matches_the_fraction_loop(abc, x, tol, max_terms):
    # the integer numerator/denominator loop must give the Fraction loop's
    # value, term count, termination and tail bound bit for bit, on the
    # raw and the Euler-transformed parameters
    a, b, c = abc
    for params in (P(a, b, c), P(c - a, c - b, c)):
        got = _outcome(eval_series, params, x, tol, max_terms)
        want = _outcome(fraction_eval_series, params, x, tol, max_terms)
        if want is None:
            assert got is None
        else:
            assert type(got.value) is F
            assert (got.value, got.terms_used, got.terminated,
                    got.tail_bound) == want


@seed(1998)
@settings(max_examples=200, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30), st.floats(0.5, 30),
       st.one_of(st.sampled_from([0.98, -0.9]),
                 st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True)),
       st.floats(-15, -3).map(lambda e: 10.0 ** e), st.integers(1, 10000))
@example(0.3, 0.7, 1.5, 0.98, 1e-12, 10000)     # 978 terms
@example(10.0, -30.5, 1.5, -0.9, 1e-15, 10000)  # f1 > 1 past k0 = 31
@example(-25.5, 30.0, 0.5, -0.9, 1e-12, 10000)  # f2 > 1 past k0 = 26
@example(-4.0, 2.5, 0.5, 0.98, 1e-3, 10000)     # float polynomial
@example(-4, 3, 2, 0.5, 1e-12, 10)              # ints beside a float x
@example(-40.0, 1.0, 1.0, 0.5, 1e-12, 10)       # polynomial over budget
@example(29.0, 29.0, 0.5, 0.98, 1e-15, 200)     # budget runs out
@example(1.0, 1.0, 2.0, 0.0, 1e-12, 1)          # x = 0
def test_float_sum_matches_the_reference_loop(a, b, c, x, tol, max_terms):
    # the float loop, with its majorant written inline, must give the
    # reference loop's value, term count, termination and tail bound bit
    # for bit, and fail to converge exactly where it does
    params = P(a, b, c)
    got = _outcome(eval_series, params, x, tol, max_terms)
    want = _outcome(float_eval_series, params, x, tol, max_terms)
    if want is None:
        assert got is None
    else:
        assert (got.value.hex(), got.terms_used, got.terminated,
                got.tail_bound) == (want[0].hex(), *want[1:])


# s(1/2, b; 1/3; 1/2) over 40 terms, with b + 39 = 2 (1 + j 2**-50) (1/3 + 39):
# the real majorant at the last term is 1 + j 2**-50 >= 1, and the budget
# runs out.  Past the margin 2**-48 = 4 * 2**-50 and the rounding of b, c
# and rho, from j = 6 on, the sum fails before its first term; at j <= 2
# it steps every term first.


@pytest.mark.parametrize("j", [0, 1, 2, 8, 64, 2 ** 40])
def test_exact_sum_fails_before_its_first_term_past_the_margin(term_steps,
                                                              j):
    c, x = F(1, 3), F(1, 2)
    params = P(F(1, 2), 2 * (1 + F(j, 2 ** 50)) * (c + 39) - 39, c)
    rho = series._ratio_majorant(39, *map(float, params), float(x))
    assert math.isclose(rho, 1 + j * 2.0 ** -50, rel_tol=2.0 ** -49)
    assert _outcome(fraction_eval_series, params, x, 1e-12, 40) is None
    for width in (None, 200):
        with pytest.raises(NoConvergenceError,
                           match="tail bound still above tol=1e-12 after 40"):
            _integer_sum(params, x, 1e-12, 40, width)
    assert term_steps == ([] if j >= 8 else list(range(39)) * 2)


# ---- exact sums rounded once ----

def _float_outcome(outcome):
    """A Fraction-loop outcome with its value as the double a float scale
    takes, inf of its sign past the float range, where check_finite
    rejects it."""
    if outcome is None:
        return None
    value, *rest = outcome
    try:
        check_finite("sum", value)
    except DomainError:
        return (math.inf if value > 0 else -math.inf, *rest)
    return (float(value), *rest)


@seed(1998)
@settings(max_examples=100, deadline=None)
@given(exact_triples(), exact_points, st.floats(-300, 3).map(lambda e: 10.0 ** e),
       st.integers(1, 1500))
@example((F(7, 3), F(-5, 2), F(-37, 4)), F(5, 6), 1e-12, 300)  # q(k) < 0 first
@example((-800, F(-26, 9), F(17, 6)), F(-1, 4), 1e-12, 1500)  # ~390 bits cancel
@example((F(1, 3), F(2, 7), F(5, 9)), F(9, 10), 1e-12, 1500)
@example((F(1, 3), F(2, 7), F(5, 9)), F(-9, 10), 1e-12, 1500)
@example((F(39, 2), F(77, 3), F(1, 12)), F(11, 12), 1e-12, 50)  # budget runs out
@example((F(-40001, 2), F(3, 2), 1), F(1, 2), 1e-12, 1500)    # k0 > max_terms
@example((F(801, 2), F(801, 2), F(1, 2)), F(1, 2), 1e-12, 5000)  # past 1e308
@example((-1, F(10 ** 308), F(1, 10 ** 300)), F(1, 2), 1e-12, 100)  # -1e608
def test_fixed_point_sum_matches_the_fraction_loop(abc, x, tol, max_terms):
    # at every width scaled_sum tries, the fixed-point sum either leaves
    # the sum undecided or gives the Fraction loop's double, term count,
    # termination and tail bound bit for bit; scaled_sum under a float
    # scale gives them too, or the same DomainError past the float range
    a, b, c = abc
    for params in (P(a, b, c), P(c - a, c - b, c)):
        want = _float_outcome(
            _outcome(fraction_eval_series, params, x, tol, max_terms))
        width = _start_width(tol, max_terms)
        for _ in range(4):
            got = _outcome(_integer_sum, params, x, tol, max_terms, width)
            if want is None:
                assert got is None
            elif got is not None:
                assert (got.value, got.terms_used, got.terminated,
                        got.tail_bound) == want
            width *= 2
        if want is not None and math.isinf(want[0]):
            with pytest.raises(DomainError, match="scaled series value"):
                series.scaled_sum(1.0, params, x, tol, max_terms)
            continue
        got = _outcome(series.scaled_sum, 1.0, params, x, tol, max_terms)
        if want is None:
            assert got is None
        else:
            assert (got.value, got.terms_used, got.terminated,
                    got.tail_bound) == want


def test_an_undecided_fixed_point_sum_falls_back_to_the_integer_loop(
        monkeypatch):
    # the start width decides this sum, but 8 bits cannot pin down a
    # 53-bit double; with every width that small, scaled_sum must end its
    # ladder in the exact integer loop, width None, and return its result
    params, x = P(F(1, 3), F(2, 7), F(5, 9)), F(1, 2)
    assert _integer_sum(params, x, 2e-12, 10000,
                        _start_width(2e-12, 10000)) is not None
    assert _integer_sum(params, x, 2e-12, 10000, 8) is None
    monkeypatch.setattr(series, "_start_width", lambda tol, max_terms: 1)
    widths = []
    integer_sum = series._integer_sum
    monkeypatch.setattr(series, "_integer_sum", lambda *args: widths.append(
        args[-1]) or integer_sum(*args))
    got = series.scaled_sum(0.5, params, x, 1e-12, 10000)
    value, terms, terminated, bound = fraction_eval_series(params, x, 2e-12,
                                                           10000)
    assert widths == [1, 2, 4, 8, None]
    assert (got.value, got.terms_used, got.terminated, got.tail_bound) \
        == (0.5 * float(value), terms, terminated, bound * 0.5)


def test_a_point_whose_double_is_zero_keeps_a_tail_bound():
    # x = 2**-1100 rounds to the double 0.0; the neglected tail of
    # s(1, 1; 2; x) is about x/2, so the bound must not read 0
    x = F(1, 2 ** 1100)
    for out in (eval_series(P(1, 1, 2), x),
                series.scaled_sum(1.0, P(1, 1, 2), x, 1e-12, 10000)):
        assert out.terms_used == 1
        assert F(out.tail_bound) >= x / 2


# ---- float sums of exact inputs ----
#
# A sum with any float input runs on the doubles of its inputs: exact
# parameters beside a float x, float parameters beside an exact x, and any
# mix of the two give the bits of the same call on the doubles.

wide_exact = st.one_of(
    exact_scalars,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 12),
    st.integers(-2 ** 60, 2 ** 60))                        # past 2**53
wide_points = st.fractions(min_value=F(-999, 1000), max_value=F(999, 1000),
                           max_denominator=10 ** 12)


def _double_bits(call, *args):
    """A call's record, or its list of coefficients, with every float as
    hex; or the text of its NoConvergenceError."""
    try:
        out = call(*args)
    except NoConvergenceError as exc:
        return str(exc)
    if isinstance(out, list):
        return [v.hex() for v in out]
    return (out.value.hex(), *out[1:])


@seed(3202)
@settings(max_examples=300, deadline=None)
@given(st.tuples(wide_exact, wide_exact, wide_exact), wide_points,
       st.one_of(st.sampled_from([(False, False, False, True),
                                  (True, True, True, False)]),
                 st.tuples(*[st.booleans()] * 4).filter(any)),
       st.floats(-300, -3).map(lambda e: 10.0 ** e), st.integers(1, 3000),
       st.integers(0, 40))
@example((F(1, 3), F(2, 7), F(5, 9)), F(9, 10), (False,) * 3 + (True,),
         1e-12, 3000, 40)                  # p/q parameters, a float x
@example((2 ** 53 + 1, -(2 ** 60), F(3, 2)), F(1, 2),
         (False,) * 3 + (True,), 1e-12, 3000, 5)  # ints past 2**53
@example((-7, 5, 2), F(-1, 2), (False,) * 3 + (True,), 1e-12, 3000, 9)
@example((F(1, 3), F(2, 7), F(5, 9)), F(9, 10), (True,) * 3 + (False,),
         1e-12, 3000, 5)                   # an exact x beside floats
@example((F(-3 * 2 ** 60 + 1, 2 ** 60), F(1, 3), F(1, 2)), F(1, 2),
         (False,) * 3 + (True,), 1e-12, 4, 5)  # a is -3.0 as a double
def test_a_float_sum_runs_on_the_doubles_of_its_inputs(abc, x, doubled, tol,
                                                       max_terms, degree):
    # the inputs marked in doubled are given as their doubles, at least
    # one of them: eval_series and coefficients give the bits of the same
    # call on the doubles of every input, so no int or Fraction reaches a
    # float step.  An a or b whose double is a nonpositive integer where
    # the exact one is not ends both sums at that double's index.  A c
    # whose double is no valid c, drawn only from huge ints and fractions
    # of huge denominators, is left out.
    *given, x_given = [float(v) if d else v
                       for v, d in zip((*abc, x), doubled)]
    assume(not is_nonpositive_integer(abc[2])
           and not is_nonpositive_integer(float(abc[2])))
    params, doubles = P(*given), P(*map(float, given))
    assert _double_bits(eval_series, params, x_given, tol, max_terms) \
        == _double_bits(eval_series, doubles, float(x_given), tol, max_terms)
    if not params.exact():
        assert _double_bits(coefficients, params, degree) \
            == _double_bits(coefficients, doubles, degree)


def test_an_exact_c_whose_double_is_a_pole_is_refused_beside_a_float():
    # -3 + 2**-60 and 2**-1100 are valid exact c whose doubles -3.0 and 0.0
    # are not: a step on doubles would divide by zero, so a float sum and
    # float coefficients refuse them as they refuse those doubles, while
    # the exact sum takes the first
    for c, double in ((-3 + F(1, 2 ** 60), "-3.0"), (F(1, 2 ** 1100), "0.0")):
        message = f"^c = {c} is {double} as a double, zero or a negative"
        with pytest.raises(InvalidCError, match=message):
            eval_series(P(F(1, 2), F(1, 3), c), 0.5)
        for call, x in ((eval_series, F(1, 2)), (coefficients, 5)):
            with pytest.raises(InvalidCError, match=message):
                call(P(0.5, F(1, 3), c), x)
    exact = eval_series(P(F(1, 2), F(1, 3), -3 + F(1, 2 ** 60)), F(1, 2))
    assert type(exact.value) is F


# ---- the tail gate ----

EDGE_TOLS = (5e-324, 1e-320, 1e-12)
EDGE_XS = (5e-324, 1e-300, 1e-20, 0.99, -0.99)
EDGE_TRIPLES = ((F(1, 3), F(2, 7), F(5, 9)),     # k0 = 0
                (10, F(-61, 2), F(3, 2)),        # f1 > 1 past k0 = 31
                (F(-51, 2), 30, F(1, 2)))        # f2 > 1 past k0 = 26


def test_tail_gate_is_sound_at_the_float_edges():
    # every term at or above the gate has a computed bound above tol, for
    # any rho_k >= |x|; the search ends at once even where products
    # underflow, and the gate is inf, sound but of no use, only where |x|
    # is tiny or tol is huge
    axes = (0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-20, 1e-5, 0.5, 0.98,
            0.99, 1.0 - 2.0 ** -53)
    tols = (5e-324, 1e-320, 1e-318, 1e-300, 1e-16, 1e-12, 1.0, 1e300)
    for ax in axes:
        for tol in tols:
            gate = _tail_gate(ax, tol)
            if gate < math.inf:
                assert gate * ax / (1.0 - ax) > tol, (ax, tol)
            else:
                assert ax < 1e-300 or tol > 1.0, (ax, tol)
    assert _tail_gate(0.98, 1e-12) < 2.05e-14


def test_gated_sums_match_the_reference_loops_at_the_float_edges():
    # the gate and the float counter leave every outcome bit for bit as
    # the reference loops give it: the least tols, points down to the
    # least subnormal, k0 > 0, f1 or f2 above 1 past k0, and parameters
    # that are not floats beside a float x, which are summed on their doubles
    for abc in EDGE_TRIPLES:
        doubles = P(*map(float, abc))
        for params in (doubles, P(*abc)):
            for x in EDGE_XS:
                for tol in EDGE_TOLS:
                    got = _outcome(eval_series, params, x, tol, 3000)
                    want = _outcome(float_eval_series, doubles, x, tol, 3000)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert (got.value.hex(), got.terms_used, got.terminated,
                                got.tail_bound) == (want[0].hex(), *want[1:])
        params = P(*abc)
        for x in (F(1, 2 ** 1074), F(1, 10 ** 300), F(1, 10 ** 20),
                  F(99, 100), F(-99, 100)):
            for tol in EDGE_TOLS[:2]:
                got = _outcome(eval_series, params, x, tol, 300)
                want = _outcome(fraction_eval_series, params, x, tol, 300)
                assert (got is None) == (want is None)
                if want is not None:
                    assert (got.value, got.terms_used, got.terminated,
                            got.tail_bound) == want
    # exact terms past the float range and back: they peak near 1e425 and
    # stop after 3863 terms; and a point whose double is 0.0, where the gate
    # is inf and term 1, near 8e314, reaches the OverflowError branch, and
    # where |x| counts as 5e-324, so that the sum runs to 21 terms
    for params, x, terms in ((P(F(801, 2), F(801, 2), F(1, 2)), F(1, 2), 3863),
                             (P(F(-1, 2), 10 ** 308, F(1, 2 ** 1100)),
                              F(1, 2 ** 1076), 21)):
        got = eval_series(params, x, 1e-12, 10000)
        assert (got.value, got.terms_used, got.terminated, got.tail_bound) \
            == fraction_eval_series(params, x, 1e-12, 10000)
        assert got.terms_used == terms
    # the gate search stays O(1) where g |x| lies among the subnormals
    assert eval_series(P(0.3, 0.7, 1.5), 1e-20, 1e-320).terms_used == 16


def test_a_float_term_past_the_float_range_stops_the_sum():
    # inf and nan terms stay past the float range, so the sum cannot
    # converge; it stops at the first such term instead of the budget.
    # a b overflows in term 1, while rho_9999 = 0.4 * 1.0001 is below 1
    with pytest.raises(NoConvergenceError,
                       match=r"^term 1 is inf, outside the float range$"):
        eval_series(P(2.0, 1e308, 1e308), 0.4)
    with pytest.raises(NoConvergenceError,
                       match=r"^term 2 is nan, outside the float range$"):
        eval_series(P(1.5, 1e308, 1e308), 0.9)


def test_a_float_denominator_past_the_float_range_stops_the_sum():
    # (k+1)(c+k) overflows to inf at k = 179 and zeroes every later term: a
    # stop on the zero term 180 would return a tail bound of 0 with a value
    # off by 2.4e-9, so the sum raises there, as the reference loop does
    params = P(0.5, 1e306, 1e306)
    message = "the denominator of term 180 is inf, outside the float range"
    with pytest.raises(NoConvergenceError, match=f"^{message}$"):
        eval_series(params, 0.9)
    with pytest.raises(NoConvergenceError):
        float_eval_series(params, 0.9, 1e-12, 10000)
    assert float_eval_error(params, 0.9, 1e-12, 10000) == message


def test_a_negative_float_term_past_the_float_range_stops_the_sum():
    # -inf lies in neither half of the signed range test: the sum stops at
    # it, where the reference loop, which checks no range, runs out of
    # budget; both raise
    with pytest.raises(NoConvergenceError,
                       match=r"^term 1 is -inf, outside the float range$"):
        eval_series(P(2.0, 1e308, 1e308), -0.4)
    with pytest.raises(NoConvergenceError):
        float_eval_series(P(2.0, 1e308, 1e308), -0.4, 1e-12, 10000)


@pytest.mark.parametrize("abc,x,total", [
    ((-42.0, 1.5860692240571233e+57, -1.5591547224237399), 0.5, "nan"),
    ((-42.0, 1.5860692240571233e+57, -1.5591547224237399), F(614, 643),
     "nan"),
    ((-42.0, 1e200, 0.5), 0.5, "nan"),
    ((-1.0, 1e308, 0.1), 0.5, "-inf"),          # term 1 is -inf
    ((-2000.0, 1.0, 1.0), -0.99, "inf"),        # finite terms, an inf sum
    ((-1020, 3, 1), -0.99, "inf"),              # ints beside a float x
    ((-7, 1e308, F(13, 2)), F(-6, 35), "inf"),  # raw side of an eval argv
])
def test_a_float_polynomial_past_the_float_range_is_refused(abc, x, total):
    # a polynomial's terms are not range-tested, and a sum of 43 terms used
    # to come back as a complete nan; its last term now refuses an inf or
    # nan sum, in eval_series and so in scaled_sum under any scale
    message = f"^the polynomial's sum is {total}, outside the float range$"
    params = P(*abc)
    for call in (lambda: eval_series(params, x),
                 lambda: series.scaled_sum(1.0, params, x, 1e-12, 10000),
                 lambda: series.scaled_sum(F(1, 2), params, x, 1e-12, 10000)):
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("abc,x,tol,max_terms", [
    ((0.3, 0.7, 1.5), -0.98, 1e-12, 10000),    # stops at a negative term
    ((2.5, -3.5, 1.5), -0.98, 1e-3, 10000),    # k0 = 4
    ((-2.5, 3.5, 0.5), -0.9, 1e-12, 10000),    # k0 = 3, f2 > 1
    ((1, 1, 2), -0.98, 1e-15, 10000),          # ints beside a negative x
    ((3, 5, 7), -0.9, 1e-12, 10000),
    ((1e-305, 1.0, 1.0), -0.9, 1e-320, 10000),   # subnormal terms of both
    ((1e-305, 1.0, 1.0), -0.98, 1e-320, 10000),  # signs cross the gate
    ((1e-305, 1.0, 1.0), -0.98, 5e-324, 3000),   # ... or stay above it
    ((-0.5, 1.5, 1e300), 0.5, 5e-324, 10000),    # -0.0 under a finite gate
    ((-0.5, 1.5, 1.0), 5e-324, 1e-12, 10000),    # gate = inf, t_1 = -5e-324
    ((1.5, -2.5, 1.0), -5e-324, 1e-12, 10000),   # gate = inf, 0.0 terms
    ((1.5, -2.5, 1), -5e-324, 1e-12, 10000),     # the same, int counter
])
def test_the_signed_gate_test_matches_the_reference_loop(abc, x, tol,
                                                         max_terms):
    # the gate is tested as gate <= t <= hi or -hi <= t <= -gate; on
    # negative terms above and below the gate, subnormal and zero terms
    # and an inf gate the sum must be the reference loop's bit for bit
    params = P(*abc)
    got = _outcome(eval_series, params, x, tol, max_terms)
    want = _outcome(float_eval_series, params, x, tol, max_terms)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.value.hex(), got.terms_used, got.terminated,
                got.tail_bound) == (want[0].hex(), *want[1:])


def test_a_majorant_past_the_budget_fails_before_the_first_term():
    # the majorant applies from k0 on, the first k with a+k, b+k, c+k all
    # positive; with k0 >= max_terms no term can stop the sum
    message = r"^the tail bound applies from term {} on, past max_terms={}$"
    for params, x in ((P(F(-40001, 2), F(3, 2), 1), F(1, 2)),
                      (P(-20000.5, 1e308, 1.0), 0.5)):
        with pytest.raises(NoConvergenceError,
                           match=message.format(20001, 10000)):
            eval_series(params, x)
    with pytest.raises(NoConvergenceError, match=message.format(5, 5)):
        eval_series(P(-4.5, 1.0, 1.0), 1e-3, max_terms=5)
    # k0 = max_terms - 1 is the last term, which may still stop the sum
    got = eval_series(P(-4.5, 1.0, 1.0), 1e-3, max_terms=6)
    want = float_eval_series(P(-4.5, 1.0, 1.0), 1e-3, 1e-12, 6)
    assert (got.value, got.terms_used, got.terminated,
            got.tail_bound) == want
    assert got.terms_used == 6


HOPELESS = "tail bound still above tol=1e-12 after 10000 terms"


@pytest.mark.parametrize("abc,x", [
    ((1e300, 1.0, 1e300), 0.5),        # rho_9999 = 0.5 (1e300 + 9999) / 1e4
    ((1.7e308, 1.0, 2.6e306), 5e-4),   # terms underflow to 0.0 below the gate
    ((10 ** 300, 1, 10 ** 300), F(1, 2)),  # the exact twin of the first
    ((1e308, 1e308, 1.0), 0.5),        # rho_9999 overflows; term 1 is inf
    ((1e300, 1e300, 1.0), -0.5),       # and here term 1 is -inf
])
def test_a_hopeless_sum_fails_before_its_first_term(term_steps, abc, x):
    # a majorant >= 1 + 2**-48 at the last budgeted term, inf included,
    # shows that no term can stop the sum: _stop_rule refuses it in either
    # loop, where the float loop used to step all 10000 terms first, or
    # stop at the first term past the float range
    with pytest.raises(NoConvergenceError, match=f"^{HOPELESS}$"):
        eval_series(P(*abc), x)
    assert term_steps == []
    assert float_eval_error(P(*abc), x, 1e-12, 10000) == HOPELESS


def _majorant_refusals(n: int) -> list:
    """Seeded (a, b, c, x, max_terms) draws, two given first, whose rho at
    the last budgeted term is at least 1 + 2**-48, with |x| normal, and
    whose series is no polynomial."""
    rng = random.Random(3403)

    def wide(lo):
        return rng.choice([rng.uniform(lo, 1e3), rng.uniform(lo, 1e6),
                           rng.choice([1e300, 1e308, 0.5])])

    draws = [(1e300, 1.0, 1e300, 0.5, 300),      # rho_299 about 150
             (1e308, 1e308, 1.0, -0.5, 10)]      # rho_9 overflows to inf
    while len(draws) < n:
        a, b, c = wide(-1e3), wide(-1e3), wide(1e-3)
        x, max_terms = rng.uniform(-0.999, 0.999), rng.randint(1, 300)
        if (termination_index((a, b, c)) is None
                and abs(x) >= 2.0 ** -1022
                and series._ratio_majorant(max_terms - 1, a, b, c,
                                           abs(x)) >= 1.0 + 2.0 ** -48):
            draws.append((a, b, c, x, max_terms))
    return draws


def test_every_sum_refused_by_its_majorant_steps_no_term(term_steps):
    # wherever rho at the last budgeted term is at least 1 + 2**-48 with
    # |x| normal, no term can stop the sum: the float loop, on doubles and
    # on exact parameters beside a float x, and both modes of the integer
    # loop raise before their first term
    for a, b, c, x, max_terms in _majorant_refusals(300):
        exact = P(F(a), F(b), F(c))
        for params in (P(a, b, c), exact):
            with pytest.raises(NoConvergenceError):
                eval_series(params, x, 1e-12, max_terms)
        for width in (None, 200):
            with pytest.raises(NoConvergenceError):
                _integer_sum(exact, F(x), 1e-12, max_terms, width)
    assert term_steps == []


def test_the_step_spy_sees_every_float_step(term_steps):
    # 3416 terms, whose 3415 steps each run once
    assert eval_series(P(2.3, 4.1, 0.6), 0.98).terms_used == 3416
    assert term_steps == list(range(3415))


# ---- the checked float loop ----
#
# The float loop tests every term against the gate range, and past k0
# every term below the gate against its tail bound.  Every outcome must be
# that of the reference loop, with each term stepped once.

wide_scalars = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e6, 1e6),
                         st.floats(-1e300, 1e300))


def _float_sum(params, x, tol, max_terms):
    """eval_series's record with its value as hex, or its error's text."""
    try:
        out = eval_series(params, x, tol, max_terms)
    except NoConvergenceError as exc:
        return str(exc)
    return (out.value.hex(), *out[1:])


def _float_reference(params, x, tol, max_terms):
    try:
        value, *rest = float_eval_series(params, x, tol, max_terms)
    except NoConvergenceError:
        return float_eval_error(params, x, tol, max_terms)
    return (value.hex(), *rest)


float_draws = (
    wide_scalars, wide_scalars, wide_scalars,
    st.one_of(st.sampled_from([0.9, -0.9, 0.98, -0.98, 0.999, -0.999]),
              st.floats(-0.999, 0.999)),
    st.floats(-323.3, -3).map(lambda e: 10.0 ** e), st.integers(1, 10000))


@seed(2402)
@settings(max_examples=300, deadline=None)
@given(*float_draws)
@example(2.3, 4.1, 0.6, 0.98, 1e-12, 10000)      # 3416 terms
@example(1e-305, 1.0, 1.0, -0.98, 5e-324, 10000)  # a subnormal gate
@example(5.0, 5.0, 0.5, 0.999, 1e-300, 10000)    # terms that grow past k0
# |x| = 1 - 2**-40 and the next double above it
@example(0.5, 0.5, 1.5, 1.0 - 2.0 ** -40, 1e-3, 3000)
@example(0.5, 0.5, 1.5, 1.0 - 2.0 ** -40 + 2.0 ** -53, 1e-3, 3000)
# gates just above and just below 2**-1021
@example(1.0, 1.0, 1.0, 0.5, 2.0 ** -1021, 10000)
@example(1.0, 1.0, 1.0, 0.5, 2.0 ** -1021 * (1.0 - 2.0 ** -40), 10000)
# the sum stops at term 126
@example(0.019, -0.4132, 3.8349, 0.98, 1e-12, 10000)
def test_float_runs_match_the_checked_loop(a, b, c, x, tol, max_terms):
    # value bits, term count, termination, tail bound and the exact text
    # of a NoConvergenceError all stay those of the reference loop
    assume(not (c.is_integer() and c <= 0.0))
    params = P(a, b, c)
    assert _float_sum(params, x, tol, max_terms) \
        == _float_reference(params, x, tol, max_terms)


@seed(3101)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(*float_draws)
@example(2.3, 4.1, 0.6, 0.98, 1e-12, 10000)
@example(0.019, -0.4132, 3.8349, 0.98, 1e-12, 10000)
@example(1049.746940488801, 1859.8876491658357, 2922.405936076036, 0.9,
         1e-12, 10000)                         # term 474 is inf
def test_every_float_term_is_stepped_once(term_steps, a, b, c, x, tol,
                                          max_terms):
    # a returned sum steps terms 0 .. terms_used - 2, each once; a sum that
    # raised stepped k = 0, 1, 2, ... and repeated none
    assume(not (c.is_integer() and c <= 0.0))
    term_steps.clear()
    try:
        out = eval_series(P(a, b, c), x, tol, max_terms)
    except NoConvergenceError:
        assert term_steps == list(range(len(term_steps)))
    else:
        assert term_steps == list(range(out.terms_used - 1))


@pytest.mark.parametrize("abc,x,tol", [
    # 80 terms under a tol of 1.3e-212; the sum stops at term 79
    ((0.6207657883604654, 2.2900742318142037e+160, 1.1272546433801317e+163),
     -0.98, 1.3189165994837873e-212),
    # rho_9999 = 8.5e300, so _stop_rule refuses the sum before its first
    # term
    ((1.7e308, 1.0, 2.6e306), 5e-4, 1e-310),
])
def test_no_run_starts_where_its_rounding_is_not_bounded(abc, x, tol):
    # the outcome stays the reference loop's
    params = P(*abc)
    assert _float_sum(params, x, tol, 10000) \
        == _float_reference(params, x, tol, 10000)


def test_no_run_is_computed_under_a_budget_past_2_53(term_steps):
    # check_budget refuses such a budget, which no sum can spend, before
    # any term: the float loop's counter counts on every k being a double.
    # (2**1023.99, 0.5; 2**1017.5) at x = 2**-11 has a rho_k above 1 for
    # some 2**1000 terms, so under any budget up to 2**53 it is refused at
    # once
    params, x = P(2.0 ** 1023.99, 0.5, 2.0 ** 1017.5), 2.0 ** -11
    with pytest.raises(NoConvergenceError, match="after 9007199254740992 "):
        eval_series(params, x, 2e-311, 2 ** 53)
    assert term_steps == []
    with pytest.raises(DomainError, match=r"^max_terms must lie in "
                       r"\[1, 2\*\*53\], got 9007199254740993$"):
        eval_series(P(2.3, 4.1, 0.6), 0.98, 1e-12, 2 ** 53 + 1)
    assert term_steps == []


def test_check_budget_admits_budgets_up_to_2_53():
    series.check_budget(1e-12, 1)
    series.check_budget(1e-12, 2 ** 53)
    for budget in (0, 2 ** 53 + 1):
        with pytest.raises(DomainError, match=r"^max_terms must lie in "):
            series.check_budget(1e-12, budget)


def test_a_float_step_that_overflows_stops_the_sum_at_its_term(term_steps):
    # t (a+k) (b+k) overflows before the division, where the term itself
    # would not: the term that reports inf is the one the reference loop
    # reports.  rho_9999 < 1, so _stop_rule lets both sums start, and each
    # steps its terms once, up to the first past the float range
    with pytest.raises(NoConvergenceError,
                       match=r"^term 474 is inf, outside the float range$"):
        eval_series(P(1049.746940488801, 1859.8876491658357,
                      2922.405936076036), 0.9)
    with pytest.raises(NoConvergenceError,
                       match=r"^term 425 is -inf, outside the float range$"):
        eval_series(P(250.6858155266171, 853.0961221479135,
                      323.7432882309041), -0.9)
    assert term_steps == [*range(474), *range(425)]


# ---- differential-operator residuals ----

def test_ode_residual_terminating_all_zero():
    res = ode_residual(P(-2, 3, 1), 3)
    assert res == [0, 0, 0, 0, 0]


def test_ode_residual_tip():
    r = ode_residual(P(1, 1, 2), 5)
    assert r[:5] == [0, 0, 0, 0, 0]
    assert r[5] == -6  # -(a+5)(b+5) c_5 = -36/6
    assert r[6] == 0


@pytest.mark.parametrize("a,b,c", [
    (1, 1, 2), (F(1, 2), F(1, 2), F(3, 2)), (F(-7, 3), 4, F(5, 2)),
    (2, -5, F(1, 4)), (F(1, 3), F(2, 7), F(5, 9)),
])
@pytest.mark.parametrize("deg", [2, 7, 11, 256])
def test_ode_residual_structure(a, b, c, deg):
    r = ode_residual(P(a, b, c), deg)
    assert len(r) == deg + 2
    assert all(v == 0 for v in r[:deg])
    assert r[deg] == -(F(a) + deg) * (F(b) + deg) * brute_coefficient(a, b, c, deg)
    assert r[deg + 1] == 0


float_scalars = st.floats(min_value=-40, max_value=40)


@st.composite
def float_triples(draw):
    a, b, c = draw(float_scalars), draw(float_scalars), draw(float_scalars)
    if c <= 0 and c.is_integer():
        c -= 0.5  # c may not be zero or a negative integer
    return a, b, c


@seed(1998)
@settings(max_examples=100, deadline=None)
@given(st.one_of(exact_triples(), float_triples()),
       st.integers(2, EXACT_DEGREE_CAP))
@example((F(7, 3), F(-5, 2), F(-37, 4)), 40)       # q(k) < 0 first
@example((3, 5, 7), 12)                            # plain ints
@example((-6, F(7, 5), F(-3, 2)), 20)              # terminates below the degree
@example((F(1, 3), F(2, 7), F(5, 9)), EXACT_DEGREE_CAP)
@example((1, 1.0, 2), 10)                          # an int beside a float
@example((-3.0, 2.5, -1.5), 9)                     # float polynomial
@example((F(1, 3), F(2, 7), F(5, 9)), 2)           # s'' has one entry
@example((F(-7, 3), 4, F(5, 2)), 3)                # and two
@example((-3.0, -3.0, 1.5), 2)                     # float, s'' of one entry
@example((-3.0, 0.1, -0.5), 2)
@example((0.1, 0.7, 1.3), 3)                       # and of two
@example((-1.0, 2.5, 0.5), 4)                      # products of -0.0
@example((1e100, 1e100, 1.0), 2)                  # 0 * inf s'' is nan
def test_polynomial_work_matches_the_fraction_reference(abc, degree):
    # the integer forms of coefficients and of both residuals must give the
    # Fraction loop's values; floats must keep their bits and their types,
    # which the float examples above pin for the order in which a residual
    # entry adds its terms: each fails its repr check when the sum of the
    # three parts is regrouped, or the x**t term 0 * s'' is left out
    params = P(*abc)
    got = [coefficients(params, degree),
           ode_residual(params, degree)]
    want = [fraction_coefficients(params, degree),
            fraction_ode_residual(params, degree)]
    if params.exact():
        got.append(operator_identity_residual(params, degree))
        want.append(fraction_operator_identity_residual(params, degree))
        for g, w in zip(got, want):
            assert g == w
            assert all(type(v) is F for v in g)
        # the integer entries ode_checks compares, over their one scale,
        # and its verdicts: every entry zero but the survivor
        op = series._scaled_operator(params, degree)
        derivatives = series._derivatives(op[0])
        assert [F(v, op[1]) for v in series._ode_entries(op, *derivatives)] \
            == want[1]
        assert [F(-v, op[1]) for v in series._ode_entries(
            op, *derivatives)[:degree + 1]] == want[2]
        survivor = (params.a + degree) * (params.b + degree) * want[0][degree]
        assert want[1][degree] == -survivor and want[2][degree] == survivor
        assert series.ode_checks(params, degree) \
            == ([True] * (degree + 1), [True], [True] * (degree + 1))
    else:
        for g, w in zip(got, want):
            assert [repr(v) for v in g] == [repr(v) for v in w]


def test_ode_residual_degree_guard():
    with pytest.raises(DomainError):
        ode_residual(P(1, 1, 2), 1)


def test_operator_identity_terminating_all_zero():
    assert operator_identity_residual(P(-1, 2, 1), 3) == [0, 0, 0, 0]


def test_operator_identity_tip():
    diff = operator_identity_residual(P(1, 1, 2), 4)
    assert diff[:4] == [0, 0, 0, 0]
    assert diff[4] == (1 + 4) * (1 + 4) * brute_coefficient(1, 1, 2, 4)


def test_operator_identity_rejects_floats():
    with pytest.raises(DomainError):
        operator_identity_residual(P(1.0, 1.0, 2.0), 4)


# ---- substitution residual ----

@pytest.mark.parametrize("a,b,c,n,x", [
    (1, 1, 2, 0.0, 0.5),
    (F(1, 2), F(1, 2), F(3, 2), 0.5, 0.25),   # n = c-a-b
    (1, 2, 3, -1.7, 0.3),
    (2, F(1, 3), F(5, 4), 2.25, 0.6),
    (-2, 3, 1, 1.0, 0.4),
])
def test_substitution_residual_small(a, b, c, n, x):
    assert abs(substitution_residual(P(a, b, c), n, x)) <= 1e-9


def test_substitution_residual_with_a_vanishing_derivative():
    # a = 0: s = 1, and the scale (a)_d (b)_d / (c)_d of each derivative is
    # 0, so s' and s'' are 0 without a sum
    residual = substitution_residual(P(0, 1, 2), 0.7, 0.3)
    assert math.isfinite(residual) and abs(residual) < 1e-12


def test_substitution_residual_domain():
    for x in (0.0, 0.9, 0.95, -0.2):
        with pytest.raises(DomainError):
            substitution_residual(P(1, 1, 2), 1.0, x)


def test_substitution_residual_rejects_a_zero_of_s():
    # s(-1, 2; 1; x) = 1 - 2x vanishes at x = 1/2, and the equation divides
    # by s
    with pytest.raises(DomainError, match="x = 0.5"):
        substitution_residual(P(-1, 2, 1), 0.5, 0.5)
