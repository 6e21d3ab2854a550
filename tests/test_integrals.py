"""Tests for the kernel integrals, closed forms, and ratio identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from gausshyp import (DomainError, IntegralSpec, QuadratureFailureError,
                      binom_char, check_closed_form_I, check_closed_form_II,
                      eval_series, HypergeometricParams, quad_I, quad_II,
                      ratio_identity_sides, theta_identity_sides,
                      verify_sign_bridge)
from gausshyp.integrals import _adaptive_gauss


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
                                   (0.9, 1, 2)])
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
        return (1 + a * a - 2 * a * np.cos(phi)) ** n * np.cos(i * phi)
    full, _ = _adaptive_gauss(f, 0.0, 2 * math.pi, 1e-10)
    assert full == pytest.approx(2 * quad_II(IntegralSpec(a, n, i)), abs=1e-9)


def test_quadrature_failure():
    def f(phi):
        return 1.0 / (1e-8 + phi * phi)
    with pytest.raises(QuadratureFailureError):
        _adaptive_gauss(f, 0.0, math.pi, 1e-12, max_panels=4)


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


@pytest.mark.parametrize("a", [0.3, 0.7])
@pytest.mark.parametrize("n,i", [(0, 0), (1, 1), (2, 1), (3, 3), (0, 2)])
def test_identity_residuals(a, n, i):
    spec = IntegralSpec(a, n, i)
    for identity in (ratio_identity_sides, theta_identity_sides):
        lhs, rhs = sides(identity, spec)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_sign_bridge():
    for n in range(7):
        for i in range(7):
            assert verify_sign_bridge(n, i)
    with pytest.raises(DomainError):
        verify_sign_bridge(-1, 0)
