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

_FLOAT_MAX = int(sys.float_info.max)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def is_exact(value: Scalar) -> bool:
    """True for int/Fraction values, False for floats."""
    return not isinstance(value, float)


def as_integer(value: Scalar) -> int | None:
    """The integer a scalar exactly represents, or None.

    Floats are taken literally: 3.0 is the integer 3, 3.0000001 is not.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else None
    if isinstance(value, float):
        return int(value) if math.isfinite(value) and value.is_integer() else None
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
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    elif abs(value.numerator) > _FLOAT_MAX * value.denominator:
        raise DomainError(f"{name} must lie inside the float range")


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
    return value


def _log_abs(value: Scalar) -> float:
    """log|value| for a nonzero scalar, exact operands of any size included."""
    if isinstance(value, Fraction):
        return math.log(abs(value.numerator)) - math.log(value.denominator)
    return math.log(abs(value))


def power(base: Scalar, exponent: Scalar) -> Scalar:
    """base**exponent, staying exact for integer exponents on exact bases.

    Non-integer exponents require base > 0 and go through exp(p*log(base)).
    A result whose magnitude lies past the float range is rejected before
    any power is formed.
    """
    n = as_integer(exponent)
    if n is None:
        b = float(base)
        if b <= 0.0:
            raise DomainError(f"non-integer exponent needs a positive base, got {base!r}")
        log_mag = float(exponent) * math.log(b)
    elif not base:
        if n < 0:
            raise DomainError("zero base with negative exponent")
        log_mag = -math.inf
    else:
        log_mag = n * _log_abs(base)
    if log_mag > _LOG_FLOAT_MAX:
        raise DomainError(f"({base})**{exponent} lies past the float range")
    if n is None:
        return math.exp(log_mag)
    return Fraction(base) ** n if is_exact(base) else float(base) ** n
