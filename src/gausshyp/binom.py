"""Generalized binomial coefficients with arbitrary real upper index.

``binom_char(m, k)`` is the coefficient of v**k in (1+v)**m, the falling
factorial m(m-1)...(m-k+1) over k!.  Negative and fractional upper indices
work the same way as integers.  An exact m = p/q gives the exact rational
(p)(p-q)...(p-(k-1)q) / (q**k k!), formed on integers and reduced once; a
float m gives the running product of (m-j+1)/j in doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import Scalar, check_index, is_exact


def binom_char(m: Scalar, k: int) -> Scalar:
    """Coefficient of v**k in (1+v)**m: the product of (m-j+1)/j for j=1..k."""
    check_index("lower index", k)
    if not is_exact(m):
        value = 1.0
        for j in range(1, k + 1):
            value = value * (m - j + 1) / j
        return value
    p, q = m.numerator, m.denominator
    num = 1
    for j in range(k):
        num *= p - j * q
    return Fraction(num, q ** k * math.factorial(k))


def reflect_char(m: Scalar, k: int) -> Scalar:
    """Upper-index reflection: (-1)**k * binom_char(m + k - 1, k).

    Equal to binom_char(-m, k) for every m and k.
    """
    check_index("lower index", k)
    sign = -1 if k % 2 else 1
    return sign * binom_char(m + k - 1, k)
