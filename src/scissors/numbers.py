"""Exact scalars without number fields, and the number-literal wire syntax.

Every exact scalar is a Fraction, a `numberfield.Num`, or an
`algebraic.AlgebraicReal` (a literal as parsed).  A rational value is
always a Fraction: a Num and an AlgebraicReal are irrational.  The scalar
helpers read the last two through their methods, so this module loads
neither.

All JSON files use one of two forms for exact numbers:

* ``"rat:p/q"``      -- a rational with q > 0 and gcd(p, q) = 1
* ``{"minpoly": ["c0", "c1", ...], "lo": "p/q", "hi": "p/q"}``
                     -- a real algebraic number, constant coefficient first

A root of a linear factor reads as that rational, and any interval that
holds one root of the polynomial is read.  One value has one written form:
its minimal polynomial and the interval `poly.canonical_interval` derives
from (minimal polynomial, root index), whatever field the value was
computed in.  Only an algebraic literal loads `algebraic`: reading and
writing rationals and number-field elements needs none of it.  The square
roots of rationals that the report of a rational polytope prints are
written here (`format_surd`) by the same rule in closed form, and read
back (`parse_square`), without building a number field or loading `poly`.
"""

from fractions import Fraction
from math import isqrt

from .errors import ParseError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def scalar_sign(x) -> int:
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    return x.sign()


def as_scalar(x):
    """An int as a Fraction; a Fraction, a field element or a literal as it
    is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if hasattr(x, "minpoly"):  # a Num or an AlgebraicReal
        return x
    raise TypeError(f"not a scalar: {x!r}")


def scalar_key(x):
    x = as_scalar(x)
    if isinstance(x, Fraction):
        return ("q", x)
    return x.key()


def parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            p, q = text.split("/")
            q_int = int(q)
            if q_int <= 0:
                raise ParseError(f"denominator must be positive: {text!r}")
            return Fraction(int(p), q_int)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _algebraic_parts(value: dict):
    """(coefficients, lo, hi) of an algebraic literal."""
    try:
        return ([int(c) for c in value["minpoly"]],
                parse_fraction(value["lo"]), parse_fraction(value["hi"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad algebraic literal {value!r}") from exc


def parse_number(value):
    """Parse a number literal into Fraction or AlgebraicReal."""
    if isinstance(value, str):
        if value.startswith("rat:"):
            return parse_fraction(value[4:])
        raise ParseError(f"unknown number literal {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, dict):
        from .algebraic import make_algebraic

        coeffs, lo, hi = _algebraic_parts(value)
        try:
            return make_algebraic(coeffs, (lo, hi))
        except ValueError as exc:  # the interval holds no root, or several
            raise ParseError(f"bad algebraic literal {value!r}: {exc}") \
                from exc
    if isinstance(value, Fraction) or hasattr(value, "minpoly"):
        return value  # a Num or an AlgebraicReal: already parsed
    raise ParseError(f"unknown number literal {value!r}")


def parse_square(value):
    """(x², the sign of x) for the number literal x when x² is rational,
    else None.  A literal {"minpoly": [c0, 0, c2], "lo", "hi"} with c2 > 0
    and a = −c0/c2 > 0 no rational square is read here, with no number
    field: x is √a or −√a, whichever of them alone lies in (lo, hi], which
    exact rational comparisons decide, as √a is irrational.  Any other
    literal, an interval that holds both roots or neither included, goes
    through `parse_number`, as do its errors."""
    if isinstance(value, dict):
        f, lo, hi = _algebraic_parts(value)
        if len(f) == 3 and not f[1] and f[2] > 0 > f[0] and lo < hi:
            a = Fraction(-f[0], f[2])
            p, q = a.numerator, a.denominator
            if isqrt(p) ** 2 != p or isqrt(q) ** 2 != q:
                # √a ∈ (lo, hi] and −√a ∈ (lo, hi]
                up = (lo < 0 or lo * lo < a) and hi > 0 and a < hi * hi
                down = lo < 0 and a < lo * lo and (hi > 0 or hi * hi < a)
                if up != down:
                    return a, 1 if up else -1
    x = parse_number(value)
    if isinstance(x, Fraction):
        return x * x, (x > 0) - (x < 0)
    f = x.minpoly()
    if len(f) != 3 or f[1]:
        return None
    return Fraction(-f[0], f[2]), x.sign()


def one_field(values) -> list:
    """The scalars `values` written in one number field, as by
    `algebraic.lift`, which is loaded only when some value is irrational:
    a rational one comes back a Fraction."""
    values = [as_scalar(v) for v in values]
    if all(type(v) is Fraction for v in values):
        return values
    from .algebraic import lift

    return lift(values)


def format_number(x):
    """Inverse of parse_number; emits the canonical literal for a scalar."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return "rat:" + format_fraction(x)
    if hasattr(x, "minpoly"):  # a Num or an AlgebraicReal
        from .poly import canonical_interval

        f = x.minpoly()
        lo, hi = canonical_interval(f, x.root_index())
        return {
            "minpoly": [str(c) for c in f],
            "lo": format_fraction(lo),
            "hi": format_fraction(hi),
        }
    raise TypeError(f"not a scalar: {x!r}")


# -- square roots of rationals, as c·√m -----------------------------------------

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
    no square: the minimal polynomial QX² − P of c²m = P/Q, and the
    interval of `poly.canonical_interval` in closed form.  Its Cauchy bound
    B is the least power of two with B ≥ 1 + P/Q, and halving (−B, B] once
    at 0 isolates the root: (0, B] for c > 0, (−B, 0] for c < 0.  So it is
    the literal `format_number` writes of the same value, in any field."""
    if m == 1 or not c:
        return "rat:" + format_fraction(c * m)
    a = c * c * m
    top = -(-(a.numerator + a.denominator) // a.denominator)  # ⌈1 + P/Q⌉
    bound = 1 << (top - 1).bit_length()
    lo, hi = (0, bound) if c > 0 else (-bound, 0)
    return {"minpoly": [str(-a.numerator), "0", str(a.denominator)],
            "lo": f"{lo}/1", "hi": f"{hi}/1"}


def format_sqrt(x, sign: int = 1):
    """The literal of sign·√x for a rational x ≥ 0 (see `format_surd`)."""
    c, m = surd(x)
    return format_surd(sign * c, m)
