"""Rational scalars and the number-literal wire syntax.

All JSON files use one of two forms for exact numbers:

* ``"rat:p/q"``      -- a rational with q > 0 and gcd(p, q) = 1
* ``{"minpoly": ["c0", "c1", ...], "lo": "p/q", "hi": "p/q"}``
                     -- a real algebraic number, constant coefficient first

Rationals are plain ``fractions.Fraction`` everywhere inside the package.
Only an algebraic literal loads `algebraic`: reading and writing rationals
and number-field elements needs none of it.
"""

from fractions import Fraction

from .errors import ParseError


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
            x = make_algebraic(coeffs, (lo, hi))
        except ValueError as exc:  # the interval holds no root, or several
            raise ParseError(f"bad algebraic literal {value!r}: {exc}") \
                from exc
        return x.as_fraction() if x.is_rational() else x
    if isinstance(value, Fraction) or hasattr(value, "minpoly"):
        return value  # a Num or an AlgebraicReal: already parsed
    raise ParseError(f"unknown number literal {value!r}")


def one_field(values) -> list:
    """The scalars `values` written in one number field, as by
    `algebraic.lift`, which is loaded only when some value is no Fraction."""
    values = list(values)
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
        if x.is_rational():
            return "rat:" + format_fraction(x.as_fraction())
        lo, hi = x.interval()
        return {
            "minpoly": [str(c) for c in x.minpoly()],
            "lo": format_fraction(lo),
            "hi": format_fraction(hi),
        }
    raise TypeError(f"not a scalar: {x!r}")
