"""Tests for the kernel integrals, closed forms, and ratio identities."""

from __future__ import annotations

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate

from gausshyp import (DomainError, IntegralSpec, QuadratureFailureError,
                      binom_char, check_closed_form_I, check_closed_form_II,
                      eval_series, HypergeometricParams, quad_I, quad_II,
                      ratio_identity_sides, theta_identity_sides,
                      verify_sign_bridge)
from gausshyp import integrals
from gausshyp.cli import INTEGRAL_AS, INTEGRAL_NI
from oracles import theta_identity_reference


def V(spec, tol=1e-12):
    """The family-I character series, as the closed-form check reports it."""
    return check_closed_form_I(spec, tol).series_value


def U(spec, tol=1e-12):
    """The family-II character series, as the closed-form check reports it."""
    return check_closed_form_II(spec, tol).series_value


def sides(identity, spec):
    """Both sides of a cross-family identity at this spec's quadratures."""
    return identity(spec, quad_I(spec), quad_II(spec))


# ---- validation ----

def test_spec_validation():
    for bad in [dict(a_mod=0.0, n=0, i=0), dict(a_mod=1.0, n=0, i=0),
                dict(a_mod=-0.5, n=0, i=0), dict(a_mod=0.5, n=-1, i=0),
                dict(a_mod=0.5, n=0, i=-2), dict(a_mod=0.5, n=0.5, i=0)]:
        with pytest.raises(DomainError):
            IntegralSpec(**bad)


# ---- quadrature against independent references ----

def test_quad_II_polynomial_cases():
    # closed by elementary integration of cos powers
    assert quad_II(IntegralSpec(0.37, 0, 0)) == pytest.approx(math.pi, abs=1e-10)
    a = 0.61
    assert quad_II(IntegralSpec(a, 1, 0)) == pytest.approx(math.pi * (1 + a * a), abs=1e-10)
    assert quad_II(IntegralSpec(a, 1, 1)) == pytest.approx(-math.pi * a, abs=1e-10)
    assert quad_II(IntegralSpec(a, 1, 2)) == pytest.approx(0.0, abs=1e-10)


def test_quad_I_geometric_cases():
    # 1/Delta integrates to pi/(1-a**2), cos(phi)/Delta to pi a/(1-a**2)
    a = 0.5
    assert quad_I(IntegralSpec(a, 0, 0)) == pytest.approx(math.pi / 0.75, abs=1e-10)
    assert quad_I(IntegralSpec(a, 0, 1)) == pytest.approx(math.pi * a / 0.75, abs=1e-10)


@pytest.mark.parametrize("a,n,i", [(0.2, 0, 0), (0.5, 2, 1), (0.7, 3, 3),
                                   (0.9, 1, 2), (1e-300, 3, 8)])
def test_quad_against_scipy(a, n, i):
    spec = IntegralSpec(a, n, i)

    def f_I(phi):
        return math.cos(i * phi) / (1 + a * a - 2 * a * math.cos(phi)) ** (n + 1)

    def f_II(phi):
        return (1 + a * a - 2 * a * math.cos(phi)) ** n * math.cos(i * phi)

    ref_I, _ = scipy.integrate.quad(f_I, 0, math.pi, epsabs=1e-12, limit=200)
    ref_II, _ = scipy.integrate.quad(f_II, 0, math.pi, epsabs=1e-12, limit=200)
    assert quad_I(spec) == pytest.approx(ref_I, abs=2e-10)
    assert quad_II(spec) == pytest.approx(ref_II, abs=2e-10)


def test_full_period_is_twice_half_period():
    a, n, i = 0.6, 1, 2

    def f(phi):
        return (1 + a * a - 2 * a * math.cos(phi)) ** n * math.cos(i * phi)

    full, _ = scipy.integrate.quad(f, 0.0, 2 * math.pi, epsabs=1e-12)
    assert full == pytest.approx(2 * quad_II(IntegralSpec(a, n, i)), abs=1e-9)


def test_quadrature_failure():
    # about 7.6e8 points at a = 1 - 1e-7, and samples near 4**601 at
    # a = 0.5, n = 600: refused before any sample is taken
    tracemalloc.start()
    try:
        for spec in (IntegralSpec(1 - 1e-7, 3, 0), IntegralSpec(0.5, 600, 0)):
            with pytest.raises(QuadratureFailureError):
                quad_I(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_float_constants_match_numpy():
    # taken from sys.float_info, so importing the module loads no NumPy
    assert integrals._EPS == np.finfo(float).eps
    assert integrals._LOG_MAX == math.log(np.finfo(float).max)


def mp_integral(a, m, i):
    """cos(i phi) / Delta**(m+1) over [0, pi] by mpmath at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(a)

        def f(phi):
            delta = (1 - a) ** 2 + 4 * a * mpmath.sin(phi / 2) ** 2
            return mpmath.cos(i * phi) / delta ** (m + 1)

        # split where the kernel's peak at phi = 0 falls off
        return float(mpmath.quad(f, [0, 1 - a, mpmath.pi]))


def test_error_estimate_bounds_the_error():
    rng = random.Random(2014)
    for _ in range(30):
        a, n, i = rng.uniform(0.02, 0.95), rng.randint(0, 8), rng.randint(0, 8)
        spec = IntegralSpec(a, n, i)
        for m, quad in ((n, quad_I), (-n - 1, quad_II)):
            exact = mp_integral(a, m, i)
            for abs_tol in (integrals.QUAD_ABS_TOL, 1e-6):
                value, estimate = integrals._integral(a, m, i, abs_tol)
                assert value == quad(spec, abs_tol)
                assert abs(value - exact) <= estimate, (a, m, i, abs_tol)
                if m < 0:
                    # a trigonometric polynomial of degree n+i: exact at
                    # n+i+1 points, so only rounding is left
                    assert integrals._points(a, m, i, abs_tol)[0] == n + i + 1
                    assert estimate <= 1e3 * np.finfo(float).eps * math.pi * (
                        1 + a) ** (2 * n)


def full_period_integral(a, m, i, abs_tol):
    """_integral as pi times the fsum mean of all N samples of one period,
    angle k or its mirror N-k: the value and the rounding term."""
    n_pts, log_bound = integrals._points(a, m, i, abs_tol)
    phi = [(2.0 * math.pi / n_pts) * min(k, n_pts - k) for k in range(n_pts)]
    half = [math.sin(0.5 * p) for p in phi]
    size = [((1.0 - a) ** 2 + 4.0 * a * (h * h)) ** -(m + 1) for h in half]
    value = math.pi * (math.fsum(math.cos(i * p) * s
                                 for p, s in zip(phi, size)) / n_pts)
    rounding = ((10 * (abs(m + 1) + i) + math.log2(n_pts) + 25)
                * integrals._EPS * math.pi * (math.fsum(size) / n_pts))
    return value, math.exp(log_bound) + rounding


def test_trapezoid_sums_match_a_full_period_fsum_bit_for_bit():
    # the suite's 128 integrals, both families, and a seeded sample; the
    # half period, with its inner samples counted twice, gives the bits of
    # the full period's fsum
    cases = [(a, m, i) for a in INTEGRAL_AS for n, i in INTEGRAL_NI
             for m in (n, -n - 1)]
    rng = random.Random(1815)
    for _ in range(100):
        a, n, i = rng.uniform(0.0, 1.0), rng.randint(0, 12), rng.randint(0, 12)
        cases += [(a, n, i), (a, -n - 1, i)]
    for a, m, i in cases:
        got = integrals._integral(a, m, i, integrals.QUAD_ABS_TOL)
        want = full_period_integral(a, m, i, integrals.QUAD_ABS_TOL)
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, m, i)


def _no_samples(*args):
    raise AssertionError("sampled the kernel")


@pytest.mark.parametrize("n", [510, 520, 536])
def test_family_I_rejects_samples_past_the_float_range(monkeypatch, n):
    # at a = 0.5 the samples peak at 4**(n+1); past n = 509 their sum
    # leaves the float range: refused before any sample is taken
    monkeypatch.setattr(math, "sin", _no_samples)
    monkeypatch.setattr(math, "cos", _no_samples)
    with pytest.raises(QuadratureFailureError, match="past the float range"):
        quad_I(IntegralSpec(0.5, n, 0))


def test_family_I_keeps_the_last_sum_in_the_float_range():
    assert quad_I(IntegralSpec(0.5, 509, 0)) == 3.1202304542970638e+305


# ---- series sides ----

def test_V_examples():
    assert V(IntegralSpec(0.4, 0, 0)) == pytest.approx(1.0)
    a = 0.3
    assert V(IntegralSpec(a, 1, 0)) == pytest.approx(1 + a * a)
    assert V(IntegralSpec(a, 1, 1)) == pytest.approx(2.0)


def test_U_examples():
    a = 0.45
    y = 1 - a * a
    assert U(IntegralSpec(a, 0, 0)) == pytest.approx(1 / y, rel=1e-10)
    assert U(IntegralSpec(a, 1, 1)) == pytest.approx(-(y ** -3), rel=1e-10)


def test_U_vanishes_above_diagonal():
    # i > n makes the leading character zero, matching the zero integral
    for (n, i) in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        spec = IntegralSpec(0.5, n, i)
        assert U(spec) == 0.0
        assert quad_II(spec) == pytest.approx(0.0, abs=1e-10)


def test_U_small_modulus_limit():
    # as a -> 0 the sum collapses to its leading character
    for (n, i) in [(0, 0), (2, 1), (3, 3)]:
        lead = float(binom_char(-n - 1 + i, i))
        assert U(IntegralSpec(1e-6, n, i)) == pytest.approx(lead, abs=1e-9)


def test_V_is_scaled_terminating_series():
    # V = binom(n+i, i) * s(i-n, -n; i+1; a**2)
    for (a, n, i) in [(0.3, 2, 1), (0.7, 3, 0), (0.5, 1, 3), (0.9, 0, 0)]:
        base = eval_series(HypergeometricParams(i - n, -n, i + 1), a * a)
        expected = float(binom_char(n + i, i)) * float(base.value)
        assert V(IntegralSpec(a, n, i)) == pytest.approx(expected, rel=1e-12)


def test_U_is_scaled_transformed_series():
    # U = binom(i-n-1, i) s(n+1, n+i+1; i+1; a**2): the transformed-side
    # series of the same base parameters that give V on the raw side
    for (a, n, i) in [(0.3, 2, 1), (0.6, 1, 0), (0.5, 3, 2)]:
        base = eval_series(HypergeometricParams(n + 1, n + i + 1, i + 1),
                           a * a, tol=1e-14)
        expected = float(binom_char(i - n - 1, i)) * base.value
        assert U(IntegralSpec(a, n, i), tol=1e-14) == pytest.approx(
            expected, rel=1e-11)


# ---- closed forms ----

def test_closed_form_I_poisson_case():
    assert check_closed_form_I(IntegralSpec(0.5, 0, 0)).closed_form == \
        pytest.approx(math.pi / 0.75)


def test_closed_form_examples():
    a = 0.5
    expected = math.pi * a * 2 / 0.75 ** 3
    spec = IntegralSpec(a, 1, 1)
    assert check_closed_form_I(spec).closed_form == pytest.approx(expected)
    assert check_closed_form_II(spec).closed_form == pytest.approx(-math.pi * a)


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n,i", [(0, 0), (1, 1), (2, 0), (3, 2), (1, 3)])
def test_closed_forms_match_quadrature(a, n, i):
    spec = IntegralSpec(a, n, i)
    r1 = check_closed_form_I(spec)
    assert abs(r1.quadrature - r1.closed_form) <= max(1e-8, 10 * r1.abs_error_estimate)
    r2 = check_closed_form_II(spec)
    assert abs(r2.quadrature - r2.closed_form) <= max(1e-8, 10 * r2.abs_error_estimate)


# ---- cross-family identities ----

def test_ratio_identity_sides_value():
    lhs, rhs = sides(ratio_identity_sides, IntegralSpec(0.5, 1, 1))
    assert lhs == pytest.approx(-2 * math.pi * 0.5 / 0.75, rel=1e-10)
    assert rhs == pytest.approx(lhs, abs=1e-10)


def test_theta_identity_sides_value():
    lhs, rhs = sides(theta_identity_sides, IntegralSpec(0.5, 1, 1))
    assert lhs == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert rhs == pytest.approx(lhs, abs=1e-10)


def test_theta_identity_zero_character_case():
    # binom(n, i) = 0 for i > n; the matching integral side vanishes too
    lhs, rhs = sides(theta_identity_sides, IntegralSpec(0.5, 1, 2))
    assert lhs == 0.0
    assert rhs == pytest.approx(0.0, abs=1e-9)


def test_theta_identity_sides_match_their_own_characters():
    # theta_identity_sides reads the ratio sides across the sign bridge;
    # the reference forms binom(n, i) and binom(-n-1, i) itself.  They
    # agree by value: where a character vanishes a side may read -0.0
    cases = [(spec, quad_I(spec), quad_II(spec))
             for spec in (IntegralSpec(a, n, i) for a in INTEGRAL_AS
                          for n, i in INTEGRAL_NI)]
    rng = random.Random(1201)
    for _ in range(300):
        spec = IntegralSpec(rng.uniform(0.01, 0.99), rng.randint(0, 7),
                            rng.randint(0, 7))
        cases.append((spec, rng.uniform(-10.0, 10.0),
                      rng.uniform(-10.0, 10.0)))
    for spec, q_I, q_II in cases:
        assert theta_identity_sides(spec, q_I, q_II) \
            == theta_identity_reference(spec, q_I, q_II)


@pytest.mark.parametrize("a", [0.3, 0.7])
@pytest.mark.parametrize("n,i", [(0, 0), (1, 1), (2, 1), (3, 3), (0, 2)])
def test_identity_residuals(a, n, i):
    spec = IntegralSpec(a, n, i)
    for identity in (ratio_identity_sides, theta_identity_sides):
        lhs, rhs = sides(identity, spec)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_identity_sides_reject_a_power_past_the_float_range():
    # 0.75**-3000 is about 1e375
    spec = IntegralSpec(0.5, 3000, 0)
    for identity in (ratio_identity_sides, theta_identity_sides):
        with pytest.raises(DomainError, match="past the float range"):
            identity(spec, 1.0, 1.0)


def test_identity_sides_reject_a_character_past_the_float_range():
    # binom(3000, 1500) is about 1e901
    spec = IntegralSpec(0.5, 1500, 1500)
    for identity in (ratio_identity_sides, theta_identity_sides):
        with pytest.raises(DomainError, match="binomial character"):
            identity(spec, 1.0, 1.0)


def test_family_II_rejects_samples_past_the_float_range(monkeypatch):
    # Delta**3000 reaches 2.25**3000, about 1e1056: refused before any
    # sample is taken and before the closed form's series runs
    monkeypatch.setattr(math, "sin", _no_samples)
    monkeypatch.setattr(math, "cos", _no_samples)
    spec = IntegralSpec(0.5, 3000, 0)
    for check in (check_closed_form_II, quad_II):
        with pytest.raises(DomainError, match="past the float range"):
            check(spec)


def test_sign_bridge():
    for n in range(7):
        for i in range(7):
            assert verify_sign_bridge(n, i)
    with pytest.raises(DomainError):
        verify_sign_bridge(-1, 0)


@pytest.mark.parametrize("wrong", [3, 5, -4, -2])
def test_sign_bridge_sees_one_wrong_character(monkeypatch, wrong):
    # at (n, i) = (3, 2) the characters of 3, 5, -4 and -2 are 3, 10, 10
    # and 3; adding one to any of them breaks the bridge
    def char(m, k):
        value = binom_char(m, k)
        return value + 1 if m == wrong else value

    monkeypatch.setattr(integrals, "binom_char", char)
    assert not verify_sign_bridge(3, 2)
