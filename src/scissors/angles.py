"""Angles as exact (cos, sin) pairs and decision procedures on them.

``is_rational_angle`` decides whether θ/π is rational: θ/π ∈ ℚ forces 2cosθ
to be an algebraic integer, and the degrees of the minimal polynomials Ψ_n
of 2cos(2πk/n) are φ(n)/2, so a monic minimal polynomial of degree d leaves
finitely many n to test; the root index of 2cosθ then names k.  It runs on
exact arithmetic alone, without mpmath or sympy.  ``find_angle_relations``
proposes one integer relation ∑ m_j θ_j ≡ 0 (mod π) numerically (PSLQ) and
certifies it by evaluating ∏ (cosθ_j + i·sinθ_j)^{2 m_j} exactly and checking
it equals 1; an unverified proposal is discarded, so a returned relation is
sound.  The Dehn normalization substitutes that relation and searches again.
"""

from fractions import Fraction
from math import gcd

from .algebraic import (
    as_scalar,
    lift,
    scalar_approx,
    scalar_key,
    scalar_sign,
    sqrt_nonneg,
)
from .errors import DEFAULT_HEIGHT_BOUND
from .numbers import format_number, parse_number

DEFAULT_PROPOSE_BITS = 256
MAX_PROPOSE_BITS = 4096


class AnglePair:
    """Canonical angle θ ∈ [0, π]: exact cos and sin with sin >= 0."""

    __slots__ = ("cos", "sin", "_key")

    def __init__(self, cos, sin):
        cos = as_scalar(cos)
        sin = as_scalar(sin)
        if scalar_sign(sin) < 0:
            raise ValueError("sin component must be nonnegative")
        if scalar_sign(cos * cos + sin * sin - 1) != 0:
            raise ValueError("cos^2 + sin^2 != 1")
        self.cos = cos
        self.sin = sin
        self._key = None

    @classmethod
    def from_cos(cls, cos) -> "AnglePair":
        (cos,) = lift([cos])
        return cls(cos, sqrt_nonneg(1 - cos * cos))

    def key(self):
        if self._key is None:
            self._key = scalar_key(self.cos)
        return self._key

    def __eq__(self, other):
        return isinstance(other, AnglePair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_straight(self) -> bool:
        """θ = 0 or θ = π (both vanish in the length⊗angle tensor)."""
        return scalar_sign(self.sin) == 0

    def radians(self, bits: int = 64) -> "mpmath.mpf":
        import mpmath as mp

        with mp.workprec(bits + 16):
            c = scalar_approx(self.cos, bits + 16)
            return mp.acos(mp.mpf(c.numerator) / c.denominator)

    def to_json(self):
        return {"cos": format_number(self.cos), "sin": format_number(self.sin)}

    @classmethod
    def from_json(cls, obj) -> "AnglePair":
        # cos and sin in one number field where they share one, as in the
        # polytope they were computed from
        return cls(*lift([parse_number(obj["cos"]),
                          parse_number(obj["sin"])]))

    def __repr__(self):
        return f"AnglePair(cos~{float(scalar_approx(self.cos, 40)):.6g})"


# -- cyclotomic polynomials and minimal polynomials of 2cos(2π/n) -----------

def _prime_factors(n: int) -> list:
    """[(p, e), ...] with n = ∏ p^e, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _totient(n: int) -> int:
    for p, _e in _prime_factors(n):
        n -= n // p
    return n


def _mobius(n: int) -> int:
    factors = _prime_factors(n)
    if any(e > 1 for _p, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def _cyclotomic(n: int) -> tuple:
    """Constant-first Φ_n = ∏_{d|n} (x^d − 1)^{μ(n/d)}.

    For n > 1 the exponents sum to 0, so Φ_n = ∏ (1 − x^d)^{μ(n/d)}: power
    series multiplications and divisions by 1 − x^d, truncated at φ(n).
    """
    if n == 1:
        return (-1, 1)
    size = _totient(n) + 1
    out = [1] + [0] * (size - 1)
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        if mu == 1:
            for i in range(size - 1, d - 1, -1):
                out[i] -= out[i - d]
        elif mu == -1:
            for i in range(d, size):
                out[i] += out[i - d]
    return tuple(out)


_TWO_COS_CACHE: dict = {}


def _two_cos_minpoly(n: int) -> tuple:
    """Constant-first minimal polynomial of 2cos(2π/n) over ℤ (monic)."""
    if n in _TWO_COS_CACHE:
        return _TWO_COS_CACHE[n]
    if n == 1:
        poly = (-2, 1)
    elif n == 2:
        poly = (2, 1)
    else:
        # Φ_n(z) = z^m Ψ_n(z + 1/z) with m = φ(n)/2; expand with the
        # Chebyshev-like basis p_k(x) = z^k + z^-k.
        cyc = _cyclotomic(n)
        m = (len(cyc) - 1) // 2
        # p_0 = 2, p_1 = x, p_{k+1} = x p_k - p_{k-1), as coefficient tuples
        p = [(2,), (0, 1)]
        for _ in range(2, m + 1):
            prev, cur = p[-2], p[-1]
            nxt = [0] + list(cur)
            for i, c in enumerate(prev):
                nxt[i] -= c
            p.append(tuple(nxt))
        acc = [0] * (m + 1)
        acc[0] += cyc[m]
        for j in range(1, m + 1):
            cj = cyc[m + j]
            if cj:
                for i, c in enumerate(p[j]):
                    acc[i] += cj * c
        poly = tuple(int(c) for c in acc)
    _TWO_COS_CACHE[n] = poly
    return poly


# the integer values of 2cosθ and their θ/π
_INTEGER_TWO_COS = {2: Fraction(0), 1: Fraction(1, 3), 0: Fraction(1, 2),
                    -1: Fraction(2, 3), -2: Fraction(1)}


def two_cos_minpoly(pair: AnglePair) -> tuple:
    """Constant-first minimal polynomial of 2cosθ over ℤ: primitive, with a
    positive leading coefficient."""
    two_cos = 2 * as_scalar(pair.cos)
    if isinstance(two_cos, Fraction):
        return (-two_cos.numerator, two_cos.denominator)
    return two_cos.minpoly()


def is_rational_angle(pair: AnglePair):
    """Return q = θ/π ∈ ℚ ∩ [0,1] when θ is a rational multiple of π, else None.

    Sound and complete: the totient bound makes the candidate set finite,
    and a match of the minimal polynomial with Ψ_n leaves only the choice of
    root, which the root index of 2cosθ makes exactly.
    """
    m = two_cos_minpoly(pair)
    if m[-1] != 1:
        return None  # not monic: 2cosθ is no algebraic integer
    d = len(m) - 1
    if d == 1:
        return _INTEGER_TWO_COS.get(-m[0])
    for n in range(3, 4 * d * d + 8):
        if _totient(n) != 2 * d or _two_cos_minpoly(n) != m:
            continue
        # the roots of Ψ_n are 2cos(2πj/n) for the j < n/2 prime to n, all
        # real and decreasing in j; x ↦ 2x keeps the root index of cosθ
        js = [j for j in range(1, n // 2 + 1) if gcd(j, n) == 1]
        return Fraction(2 * js[d - 1 - as_scalar(pair.cos).root_index()], n)
    return None


# -- exact complex arithmetic on the unit circle ------------------------------

class UnitComplex:
    """(re, im) with re² + im² = 1, exact scalars; enough for verification."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def from_angle(cls, pair: AnglePair) -> "UnitComplex":
        return cls(pair.cos, pair.sin)

    def conj(self) -> "UnitComplex":
        return UnitComplex(self.re, -self.im)

    def __mul__(self, other: "UnitComplex") -> "UnitComplex":
        return UnitComplex(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def square(self) -> "UnitComplex":
        return UnitComplex(2 * self.re * self.re - 1, 2 * self.re * self.im)

    def pow(self, k: int) -> "UnitComplex":
        base = self if k >= 0 else self.conj()
        k = abs(k)
        out = UnitComplex(Fraction(1), Fraction(0))
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def is_one(self) -> bool:
        return scalar_sign(self.re - 1) == 0 and scalar_sign(self.im) == 0


class IntegerRelation:
    """Certified relation ∑ m_j θ_j ≡ 0 (mod π) over a list of angles.

    Two relations are equal when their coefficients are; the witness is
    not compared.  The fields cannot be reassigned, as the hash is taken
    from the coefficients.
    """

    __slots__ = ("coefficients", "witness")

    def __init__(self, coefficients: tuple, witness: dict = None):
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "witness",
                           {} if witness is None else witness)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json(self):
        return {"coefficients": list(self.coefficients),
                "witness": self.witness}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    def __repr__(self):
        return (f"IntegerRelation(coefficients={self.coefficients!r}, "
                f"witness={self.witness!r})")


def verify_relation(angles, coefficients) -> bool:
    """Exact check of ∏ (cosθ+i·sinθ)^{2m} = 1 for the proposed relation."""
    acc = UnitComplex(Fraction(1), Fraction(0))
    for pair, m in zip(angles, coefficients):
        if m == 0:
            continue
        acc = acc * UnitComplex.from_angle(pair).square().pow(m)
    return acc.is_one()


def certified_relation(angles, coefficients):
    """Build an IntegerRelation if the exact verification passes, else None."""
    coefficients = tuple(int(m) for m in coefficients)
    if all(m == 0 for m in coefficients):
        return None
    if not verify_relation(angles, coefficients):
        return None
    witness = {
        "product": "1",
        "exponents": [2 * m for m in coefficients],
        "angles": [a.to_json() for a in angles],
    }
    return IntegerRelation(coefficients, witness)


def find_angle_relations(angles, height_bound: int = DEFAULT_HEIGHT_BOUND):
    """At most one certified relation, with |m_j| <= height_bound.

    One PSLQ proposal on the angles and π, checked exactly; a proposal that
    fails the check is made again at twice the precision, up to
    MAX_PROPOSE_BITS.  An empty result is NOT an independence proof;
    callers should carry the height bound along with any conclusion drawn
    from it.
    """
    if not angles:
        return []
    bits = DEFAULT_PROPOSE_BITS
    while True:
        rel, clean = _propose_and_verify(angles, height_bound, bits)
        if clean or bits >= MAX_PROPOSE_BITS:
            return [] if rel is None else [rel]
        bits *= 2


def _propose_and_verify(angles, height_bound, bits):
    """(relation, clean): the certified relation PSLQ proposes at `bits`,
    or None; clean is False when the proposal failed the exact check."""
    import mpmath as mp

    with mp.workprec(bits):
        vec = [a.radians(bits) for a in angles] + [mp.pi]
        maxcoeff = max(4, len(angles) + 1) * max(height_bound, 1)
        try:
            found = mp.pslq(vec, tol=mp.mpf(2) ** (-(bits * 3) // 4),
                            maxcoeff=maxcoeff, maxsteps=10000)
        except ValueError:
            found = None
    ms = found[:-1] if found else ()
    if not any(ms) or any(abs(m) > height_bound for m in ms):
        return None, True  # none, or outside the requested height
    rel = certified_relation(angles, ms)
    return rel, rel is not None
