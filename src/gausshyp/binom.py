"""Generalized binomial coefficients with arbitrary real upper index.

``binom_char(m, k)`` is the coefficient of v**k in (1+v)**m, computed by the
running product m(m-1)...(m-k+1)/k!.  No factorials are ever formed, so
negative and fractional upper indices work the same way as integers, and
exact inputs give exact rational outputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .scalar import Scalar, is_exact


def _check_lower(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"lower index must be a nonnegative integer, got {k!r}")


def binom_char(m: Scalar, k: int) -> Scalar:
    """Coefficient of v**k in (1+v)**m: the product of (m-j+1)/j for j=1..k."""
    _check_lower(k)
    value: Scalar = Fraction(1) if is_exact(m) else 1.0
    for j in range(1, k + 1):
        value = value * (m - j + 1) / j
    return value


def reflect_char(m: Scalar, k: int) -> Scalar:
    """Upper-index reflection: (-1)**k * binom_char(m + k - 1, k).

    Equal to binom_char(-m, k) for every m and k.
    """
    _check_lower(k)
    sign = -1 if k % 2 else 1
    return sign * binom_char(m + k - 1, k)
