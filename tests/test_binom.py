"""Tests for the generalized binomial coefficients."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from gausshyp import DomainError, binom_char, reflect_char
from gausshyp.binom import pascal_holds, reflection_holds
from oracles import brute_binom, float_binom

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)


def test_lower_zero_is_one():
    assert binom_char(7, 0) == 1
    assert binom_char(F(1, 2), 0) == 1
    assert binom_char(-3.5, 0) == 1.0


def test_half_integer_upper():
    assert binom_char(F(1, 2), 2) == F(-1, 8)


def test_negative_upper():
    assert binom_char(-3, 2) == 6
    assert binom_char(-2, 3) == -4


def test_vanishes_above_integer_upper():
    assert binom_char(3, 5) == 0
    assert binom_char(0, 1) == 0


def test_agrees_with_comb():
    for m in range(0, 41):
        for k in range(0, 13):
            expected = math.comb(m, k) if k <= m else 0
            assert binom_char(m, k) == expected


def test_float_mode():
    out = binom_char(0.5, 2)
    assert isinstance(out, float)
    assert out == pytest.approx(-0.125)


def test_exact_in_exact_out():
    assert isinstance(binom_char(3, 2), F)
    assert isinstance(binom_char(F(-5, 3), 4), F)


def test_reflection_examples():
    assert reflect_char(3, 2) == 6 == binom_char(-3, 2)
    assert reflect_char(2, 3) == -4 == binom_char(-2, 3)
    assert reflect_char(F(1, 2), 0) == 1


def test_bad_lower_index():
    with pytest.raises(DomainError):
        binom_char(3, -1)
    with pytest.raises(DomainError):
        binom_char(3, 1.5)
    with pytest.raises(DomainError):
        reflect_char(3, -2)


@seed(1998)
@given(st.one_of(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                 st.integers(-50, 50)),
       st.integers(0, 60))
@example(7, 12)            # integer m < k: zero
@example(F(50), 60)
@example(F(-49, 12), 60)
def test_matches_brute_product(m, k):
    got = binom_char(m, k)
    assert type(got) is F
    assert got == brute_binom(m, k)


@seed(1998)
@given(st.floats(min_value=-50, max_value=50), st.integers(0, 60))
@example(3.0, 5)
@example(-0.5, 60)
def test_float_char_keeps_its_double(m, k):
    got = binom_char(m, k)
    assert type(got) is float
    assert repr(got) == repr(float_binom(m, k))


@given(rationals, st.integers(0, 25))
def test_reflection_property(m, k):
    assert binom_char(-m, k) == reflect_char(m, k)
    assert reflection_holds(m, k)  # the same, on the numerators


@given(rationals, st.integers(1, 25))
def test_pascal_recurrence(m, k):
    assert binom_char(m, k) == binom_char(m - 1, k) + binom_char(m - 1, k - 1)
    assert pascal_holds(m, k)
