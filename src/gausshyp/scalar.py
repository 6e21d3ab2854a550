"""Shared numeric kernel: exact rationals alongside IEEE doubles.

Exact values are ``fractions.Fraction`` (plain ``int`` counts as exact too);
float values are ordinary doubles.  Python's numeric tower already enforces
the promotion rule the library relies on: arithmetic between exact values
stays exact, and any operation touching a float yields a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

Scalar = int | Fraction | float


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


def check_finite(name: str, value: Scalar) -> None:
    """Reject a float inf or nan; exact values are always finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


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


def power(base: Scalar, exponent: Scalar) -> Scalar:
    """base**exponent, staying exact for integer exponents on exact bases.

    Non-integer exponents require base > 0 and go through exp(p*log(base)).
    """
    n = as_integer(exponent)
    if n is not None:
        if base == 0 and n < 0:
            raise DomainError("zero base with negative exponent")
        if is_exact(base):
            return Fraction(base) ** n
        return float(base) ** n
    b = float(base)
    if b <= 0.0:
        raise DomainError(f"non-integer exponent needs a positive base, got {base!r}")
    return math.exp(float(exponent) * math.log(b))
