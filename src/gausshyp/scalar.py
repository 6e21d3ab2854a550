"""Shared numeric kernel: exact rationals alongside IEEE doubles.

Exact values are ``fractions.Fraction`` (plain ``int`` counts as exact too);
float values are ordinary doubles.  Python's numeric tower already enforces
the promotion rule the library relies on: arithmetic between exact values
stays exact, and any operation touching a float yields a float.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import DomainError

Scalar = int | Fraction | float

_FLOAT_MAX_INT = int(sys.float_info.max)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def is_exact(value: Scalar) -> bool:
    """True for int/Fraction values, False for floats."""
    return not isinstance(value, float)


def as_integer(value: Scalar) -> int | None:
    """The integer a scalar exactly represents, or None.

    Floats are taken literally: 3.0 is the integer 3, 3.0000001 is not.
    """
    # float first: isinstance(value, Fraction) goes through ABCMeta; inf
    # and nan are not is_integer()
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else None
    raise TypeError(f"not a scalar: {value!r}")


def is_nonpositive_integer(value: Scalar) -> bool:
    n = as_integer(value)
    return n is not None and n <= 0


def check_index(name: str, value: int) -> None:
    """Reject anything but a nonnegative int (bool is not an index)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")


def check_finite(name: str, value: Scalar) -> None:
    """Reject a float inf or nan, and an exact value past the float range."""
    if not (math.isfinite(value) if isinstance(value, float) else
            abs(value.numerator) <= _FLOAT_MAX_INT * value.denominator):
        raise DomainError(f"{name} must be finite, inside the float range")


def check_printable(name: str, value: Scalar) -> None:
    """Reject an exact value with a numerator or denominator of more decimal
    digits than the interpreter converts to text (sys.get_int_max_str_digits,
    no limit when zero)."""
    if isinstance(value, float) or not (limit := sys.get_int_max_str_digits()):
        return
    for part in (abs(value.numerator), value.denominator):
        if part.bit_length() > 3 * limit:  # 2**(3 limit) < 10**limit
            digits = int((part.bit_length() - 1) * math.log10(2))
            while part >= 10 ** digits:
                digits += 1
            if digits > limit:
                raise DomainError(f"{name} has a {digits}-digit numerator or "
                                  f"denominator, past the {limit}-digit limit "
                                  "for printing an integer")


class _Checked:
    """Base of a namedtuple record whose __new__ checks its fields, put
    before the namedtuple: namedtuple's own _make, which _replace calls,
    skips __new__, and this one goes through it."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


def parse_scalar(text: str, exact: bool) -> Scalar:
    """Parse a command-line number.

    "p/q" is always exact; plain decimals become exact decimal fractions in
    exact mode and doubles otherwise.
    """
    text = text.strip()
    try:
        value = Fraction(text) if exact or "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}: {exc}") from None
    check_finite("number", value)
    check_printable("number", value)
    return value


def _log_abs(value: Scalar) -> float:
    """log|value| for a nonzero scalar, exact operands of any size included."""
    if isinstance(value, Fraction):
        return math.log(abs(value.numerator)) - math.log(value.denominator)
    return math.log(abs(value))


def _power_bits() -> int:
    """The bit size past which power forms no exact power: 64 bits for
    each digit of the longest integer the interpreter converts to text
    (sys.get_int_max_str_digits, or its default where that limit is off).
    At the default 4300 digits that is 275,200 bits, which (41/35)**n
    reaches in about 20 ms; a 10**308 exponent would run for ever."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return 64 * limit


#: The least _power_bits(): the interpreter takes no limit below
#: str_digits_check_threshold digits other than 0.
_POWER_BITS_LEAST = 64 * sys.int_info.str_digits_check_threshold


def power(base: Scalar, exponent: Scalar) -> Scalar:
    """base**exponent, staying exact for integer exponents on exact bases.

    Non-integer exponents require base > 0 and an exponent inside the
    float range, and go through exp(p*log(base)).  A result whose
    magnitude lies past the float range is rejected before any power is
    formed, and so is an exact power m**n of a numerator or denominator m
    where |n| (bl(m) - 1), a lower bound on its bit length, exceeds
    _power_bits().
    """
    n = as_integer(exponent)
    if n is None:
        b = float(base)
        if b <= 0.0:
            raise DomainError(f"non-integer exponent needs a positive base, got {base!r}")
        check_finite("non-integer exponent", exponent)
        log_mag = float(exponent) * math.log(b)
    else:
        # no double holds an n past the float range, so float arithmetic
        # takes it at the range's edge: a nonzero log|base| is above 1e-17
        # in size, so the product stays past the range on its sign's side
        edge = (n if abs(n) <= _FLOAT_MAX_INT
                else _FLOAT_MAX_INT if n > 0 else -_FLOAT_MAX_INT)
        if base:
            log_mag = edge * _log_abs(base)
        elif n < 0:
            raise DomainError("zero base with negative exponent")
        else:
            log_mag = -math.inf
    if log_mag > _LOG_FLOAT_MAX:
        raise DomainError(f"({base})**{exponent} lies past the float range")
    if n is None:
        return math.exp(log_mag)
    if isinstance(base, float):
        return float(base) ** edge
    # a part m of 0 or 1 keeps its size at any n; a power under the least
    # cap, as nearly all are, need not read the interpreter's limit
    bits = abs(n) * (max(base.numerator.bit_length(),
                         base.denominator.bit_length()) - 1)
    if bits > _POWER_BITS_LEAST and bits > (cap := _power_bits()):
        raise DomainError(f"({base})**{exponent} would have more than "
                          f"{cap} bits in its numerator or denominator")
    # a Fraction's power is a Fraction; an int's is made one
    return (base if isinstance(base, Fraction) else Fraction(base)) ** n
