"""Exact scalars without number fields: the sign, normal form and key of a
scalar, and square roots of rationals as c·√m with their literals.

Every exact scalar is a Fraction, a `numberfield.Num`, or an irrational
`algebraic.AlgebraicReal` (a literal as parsed); the helpers read the last
two through their methods, so this module loads neither.  The square roots
of rationals that the report of a rational polytope prints are written
here (`format_surd`), without building a number field.
"""

from fractions import Fraction
from math import isqrt

from .numbers import format_fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def scalar_sign(x) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


def as_scalar(x):
    """Normalize to Fraction (rationals), a field element, or an irrational
    AlgebraicReal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if hasattr(x, "minpoly"):  # a Num or an AlgebraicReal
        return x.as_fraction() if x.is_rational() else x
    raise TypeError(f"not a scalar: {x!r}")


def scalar_key(x):
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return ("q", x)
    return x.key()


def surd(x):
    """(c, m) with √x = c·√m for a rational x ≥ 0 and a rational c: m is
    the numerator of x times its denominator, stripped of the squares of
    small primes, or 1 when x is a square.  m is in the square class of x
    and depends only on x."""
    x = Fraction(x)
    m, c = x.numerator * x.denominator, Fraction(1, x.denominator)
    root = isqrt(m)
    if root * root == m:
        return c * root, 1
    for p in _SMALL_PRIMES:
        while m % (p * p) == 0:
            m //= p * p
            c *= p
    return c, m


def format_surd(c: Fraction, m: int):
    """The literal of c·√m, for a rational c and an integer m that is 1 or
    no square, as `format_number` writes the element of ℚ(√m) that
    `numberfield.sqrt_over` makes of it: the minimal polynomial QX² − P of
    c²m = P/Q, and the enclosure of c·√m from √m ∈ (r/16, (r + 1)/16),
    r = ⌊√(256m)⌋, which already isolates it."""
    if m == 1 or not c:
        return "rat:" + format_fraction(c * m)
    a = c * c * m
    r = isqrt(m << 8)
    lo, hi = sorted((c * Fraction(r, 16), c * Fraction(r + 1, 16)))
    return {"minpoly": [str(-a.numerator), "0", str(a.denominator)],
            "lo": format_fraction(lo), "hi": format_fraction(hi)}


def format_sqrt(x, sign: int = 1):
    """The literal of sign·√x for a rational x ≥ 0 (see `format_surd`)."""
    c, m = surd(x)
    return format_surd(sign * c, m)
