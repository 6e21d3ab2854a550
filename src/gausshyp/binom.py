"""Generalized binomial coefficients with arbitrary real upper index.

``binom_char(m, k)`` is the coefficient of v**k in (1+v)**m, the falling
factorial m(m-1)...(m-k+1) over k!.  Negative and fractional upper indices
work the same way as integers.  An exact m = p/q gives the exact rational
(p)(p-q)...(p-(k-1)q) / (q**k k!), formed on integers: an integer m divides
the numerator by k! exactly, any other reduces it once.  A float m gives the
running product of (m-j+1)/j in doubles.

The exact identities that ``gausshyp verify binom`` checks, reflection and
Pascal's rule, are checked here by ``reflection_holds`` and ``pascal_holds``
on those numerators over their shared denominator q**k k!.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import Scalar, check_index, is_exact


def _falling(p: int, q: int, k: int) -> int:
    """The numerator (p)(p-q)...(p-(k-1)q) of binom_char(p/q, k) over
    q**k k!."""
    num = 1
    for j in range(k):
        num *= p - j * q
    return num


def binom_char(m: Scalar, k: int) -> Scalar:
    """Coefficient of v**k in (1+v)**m: the product of (m-j+1)/j for j=1..k."""
    check_index("lower index", k)
    if not is_exact(m):
        value = 1.0
        for j in range(1, k + 1):
            value = value * (m - j + 1) / j
        return value
    p, q = m.numerator, m.denominator
    num = _falling(p, q, k)
    if q == 1:
        # k consecutive integers: their product is a multiple of k!
        return Fraction(num // math.factorial(k))
    return Fraction(num, q ** k * math.factorial(k))


def reflect_char(m: Scalar, k: int) -> Scalar:
    """Upper-index reflection: (-1)**k * binom_char(m + k - 1, k).

    Equal to binom_char(-m, k) for every m and k.
    """
    check_index("lower index", k)
    sign = -1 if k % 2 else 1
    return sign * binom_char(m + k - 1, k)


def reflection_holds(m: Scalar, k: int) -> bool:
    """binom_char(-m, k) == reflect_char(m, k) for an exact m = p/q, on the
    numerators: -m and m + k - 1 share the denominator q of m."""
    p, q = m.numerator, m.denominator
    sign = -1 if k % 2 else 1
    return _falling(-p, q, k) == sign * _falling(p + (k - 1) * q, q, k)


def pascal_holds(m: Scalar, k: int) -> bool:
    """binom_char(m, k) == binom_char(m-1, k) + binom_char(m-1, k-1) for an
    exact m = p/q and k >= 1, on the numerators over q**k k!, where the
    last term's denominator q**(k-1) (k-1)! takes the factor q k."""
    p, q = m.numerator, m.denominator
    return (_falling(p, q, k)
            == _falling(p - q, q, k) + q * k * _falling(p - q, q, k - 1))
