"""Tests for the scalar helpers: the type and value of a power, which
scalars represent an integer, and what a command-line number parses to."""

from __future__ import annotations

import math
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from gausshyp import DomainError
from gausshyp.scalar import as_integer, parse_scalar, power


@pytest.mark.parametrize("base", [2.5, -3.0, 0.1, 3, -2, True,
                                  F(3, 7), F(-5, 2), F(4)])
@pytest.mark.parametrize("exponent", [-2, 0, 3, -2.0, 3.0, F(3)])
def test_power_keeps_the_value_and_type_of_its_base(base, exponent):
    # a float base gives float(base) ** n, an exact one Fraction(base) ** n
    n = int(exponent)
    if isinstance(base, float):
        want = float(base) ** n
    else:
        want = F(base) ** n
    got = power(base, exponent)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("base,exponent,want", [
    (0, 3, F(0)), (0, 0, F(1)), (F(0), 2.0, F(0)), (0.0, 2, 0.0)])
def test_power_of_a_zero_base(base, exponent, want):
    got = power(base, exponent)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_power_rejects_a_zero_base_with_a_negative_exponent():
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        power(0, -1)


@pytest.mark.parametrize("limit", [640, 0])
def test_power_refuses_an_exact_power_past_its_bit_size(limit):
    # 64 bits a printable digit, the interpreter's default where the limit
    # is off; |n| (bl(m) - 1) judges each part m of the base, so a part 1
    # never counts, and a float base is never refused
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        cap = 64 * (limit or sys.int_info.default_max_str_digits)
        n = cap // 5  # bl(41) - 1 = 5
        assert power(F(41, 35), -n) == F(35, 41) ** n
        for base, exponent in ((F(41, 35), -n - 1), (F(41, 35), float(-n - 1)),
                               (F(35, 41), n + 1), (F(-1, 3), cap + 1)):
            with pytest.raises(DomainError, match=rf"^\({base}\)\*\*{exponent} "
                               rf"would have more than {cap} bits"):
                power(base, exponent)
        assert power(F(1, 2), cap) == F(1, 2 ** cap)
        assert power(F(-1), -(10 ** 308) - 1) == -1
        assert power(F(0), 10 ** 308) == 0
        assert power(1.5, -(10 ** 300)) == 0.0
    finally:
        sys.set_int_max_str_digits(previous)


def test_power_of_an_integer_exponent_past_the_float_range():
    # no double holds such an n: the float-range and bit-size tests decide
    # at the range's edge, and a base of size one keeps its exact power
    with pytest.raises(DomainError, match=r"^\(1/2\)\*\*3000+ would have "
                       r"more than \d+ bits"):
        power(F(1, 2), 3 * 10 ** 308)
    for base, exponent in ((F(1, 2), -3 * 10 ** 308), (F(3, 2), 10 ** 400)):
        with pytest.raises(DomainError, match=r"lies past the float range$"):
            power(base, exponent)
    for base, exponent, want in ((F(1), 10 ** 400, 1), (F(-1), 10 ** 400, 1),
                                 (F(-1), 10 ** 400 + 1, -1),
                                 (F(-1), -10 ** 400 - 1, -1)):
        got = power(base, exponent)
        assert type(got) is F and got == want
    assert [repr(power(base, exponent)) for base, exponent in (
        (0.5, 10 ** 400), (2.0, -10 ** 400), (0.0, 10 ** 400),
        (-1.0, 10 ** 400))] == ["0.0", "0.0", "0.0", "1.0"]


def test_power_rejects_a_non_integer_exponent_past_the_float_range():
    # an exact c - a - b past the float range, from a = b = 1e308 and
    # c = -1/2, raised OverflowError from float() in the Euler prefactor,
    # even at x = 0, where the base is 1
    for base in (F(1), 1.0, F(1, 2)):
        with pytest.raises(DomainError, match="^non-integer exponent must "
                           "be finite, inside the float range$"):
            power(base, F(-4 * 10 ** 308 - 1, 2))


@pytest.mark.parametrize("base", [F(10 ** 400), 10 ** 400, F(1, 10 ** 400)],
                         ids=["F(10**400)", "10**400", "F(1,10**400)"])
@pytest.mark.parametrize("exponent", [F(1, 2), 0.5, -0.5, F(-1, 3)])
def test_power_of_an_exact_base_whose_double_is_inf_or_zero(base, exponent):
    # float(base) raised OverflowError, or was 0.0 and read as no positive
    # base; the log of the exact base gives the value
    want = mpmath.power(mpmath.mpf(base.numerator) / base.denominator,
                        mpmath.mpf(exponent.numerator) / exponent.denominator
                        if isinstance(exponent, F) else exponent)
    assert abs(power(base, exponent) - want) <= 1e-12 * want


@pytest.mark.parametrize("base,message", [
    (F(2), "lies past the float range"),
    (F(1, 2), "would have more than"),
])
def test_power_message_of_an_exponent_too_long_to_print(base, message):
    # formatting the message raised ValueError past the str-digits limit
    with pytest.raises(DomainError,
                       match=rf"^\({base}\)\*\*<a number of 16610 bits> "
                             f"{message}"):
        power(base, 10 ** 5000)


def test_power_rejects_a_nonpositive_base_with_a_non_integer_exponent():
    with pytest.raises(DomainError, match="needs a positive base"):
        power(-0.5, 0.5)


def test_parse_scalar_rejects_a_word():
    with pytest.raises(DomainError, match="cannot parse number 'abc'"):
        parse_scalar("abc", False)


@pytest.mark.parametrize("value,want", [
    (0, 0), (-7, -7), (2 ** 80, 2 ** 80),
    (F(6, 2), 3), (F(-4), -4), (F(1, 2), None),
    (3.0, 3), (-0.0, 0), (1e300, int(1e300)), (2.5, None), (5e-324, None),
    (math.inf, None), (-math.inf, None), (math.nan, None),
    (np.float64(2.0), 2), (np.float64(0.5), None),
])
def test_as_integer(value, want):
    got = as_integer(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value", [True, False, "3", None, 1j])
def test_as_integer_rejects_a_non_scalar(value):
    with pytest.raises(TypeError):
        as_integer(value)
