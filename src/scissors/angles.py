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

An angle with a rational cos² (every dihedral angle of a rational polytope)
is decided from cos² alone: by Niven's theorem θ/π is rational exactly when
cos²θ ∈ {0, ¼, ½, ¾, 1}.
"""

from fractions import Fraction
from math import gcd

from .errors import DEFAULT_HEIGHT_BOUND
from .numbers import format_number
from .scalars import as_scalar, format_sqrt, scalar_key, scalar_sign, surd

DEFAULT_PROPOSE_BITS = 256
MAX_PROPOSE_BITS = 4096


class AnglePair:
    """Canonical angle θ ∈ [0, π]: exact cos and sin with sin >= 0.

    An angle with a rational cos² can be given by cos² and the sign of cos
    alone (`from_cos2`, kept in `cos2` and `cos_sign`): its key, its
    rational test, the polynomial of 2cosθ and its JSON come from those,
    and cos and sin, square roots of rationals in `numberfield`, are built
    when first read."""

    __slots__ = ("_cos", "_sin", "_key", "cos2", "cos_sign")

    def __init__(self, cos, sin):
        cos = as_scalar(cos)
        sin = as_scalar(sin)
        if scalar_sign(sin) < 0:
            raise ValueError("sin component must be nonnegative")
        if scalar_sign(cos * cos + sin * sin - 1) != 0:
            raise ValueError("cos^2 + sin^2 != 1")
        self._cos = cos
        self._sin = sin
        self._key = self.cos2 = self.cos_sign = None

    @classmethod
    def from_cos2(cls, cos2: Fraction, sign: int) -> "AnglePair":
        """The angle with cos²θ = cos2 ∈ [0, 1] and cosθ of the given sign
        (−1, 0 or 1; 0 exactly when cos2 is 0)."""
        if not 0 <= cos2 <= 1 or (sign == 0) != (cos2 == 0):
            raise ValueError("cos^2 out of [0, 1] or sign mismatch")
        pair = object.__new__(cls)
        pair._cos = pair._sin = pair._key = None
        pair.cos2, pair.cos_sign = cos2, sign
        return pair

    @classmethod
    def from_cos(cls, cos) -> "AnglePair":
        cos = as_scalar(cos)
        if isinstance(cos, Fraction):
            return cls.from_cos2(cos * cos, scalar_sign(cos))
        from .algebraic import lift, sqrt_nonneg

        (cos,) = lift([cos])
        return cls(cos, sqrt_nonneg(1 - cos * cos))

    @property
    def cos(self):
        if self._cos is None:
            from .numberfield import sqrt

            self._cos = self.cos_sign * sqrt(self.cos2)
        return self._cos

    @property
    def sin(self):
        if self._sin is None:
            from .numberfield import sqrt

            self._sin = sqrt(1 - self.cos2)
        return self._sin

    def key(self):
        """scalar_key of cos, which orders and identifies angles."""
        if self._key is None:
            if self.cos2 is None:
                self._key = scalar_key(self._cos)
            else:
                a = self.cos2
                c, m = surd(a)
                # cos is rational, or ±√(p/q), the root of index 1 or 0 of
                # qx² − p
                self._key = ("q", self.cos_sign * c) if m == 1 else \
                    ("a", (-a.numerator, 0, a.denominator),
                     int(self.cos_sign > 0))
        return self._key

    def __eq__(self, other):
        return isinstance(other, AnglePair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_straight(self) -> bool:
        """θ = 0 or θ = π (both vanish in the length⊗angle tensor)."""
        if self.cos2 is not None:
            return self.cos2 == 1
        return scalar_sign(self._sin) == 0

    def radians(self, bits: int = 64) -> "mpmath.mpf":
        import mpmath as mp

        with mp.workprec(bits + 16):
            c = self.cos
            if not isinstance(c, Fraction):
                c = c.approx(bits + 16)
            return mp.acos(mp.mpf(c.numerator) / c.denominator)

    def to_json(self):
        if self.cos2 is not None:
            return {"cos": format_sqrt(self.cos2, self.cos_sign),
                    "sin": format_sqrt(1 - self.cos2)}
        return {"cos": format_number(self._cos),
                "sin": format_number(self._sin)}

    def __repr__(self):
        return f"AnglePair(cos~{float(self.cos):.6g})"


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
    if pair.cos2 is not None:
        c, m = surd(pair.cos2)
        if m == 1:
            two_cos = 2 * pair.cos_sign * c
            return (-two_cos.numerator, two_cos.denominator)
        four = 4 * pair.cos2  # (2cosθ)² = 4cos²θ = P/Q: QX² − P
        return (-four.numerator, 0, four.denominator)
    two_cos = 2 * as_scalar(pair.cos)
    if isinstance(two_cos, Fraction):
        return (-two_cos.numerator, two_cos.denominator)
    return two_cos.minpoly()


# θ/π for the angles whose cos² is rational and θ/π too (Niven's theorem),
# by (cos²θ, sign of cosθ)
_NIVEN = {(Fraction(0), 0): Fraction(1, 2),
          (Fraction(1, 4), 1): Fraction(1, 3),
          (Fraction(1, 4), -1): Fraction(2, 3),
          (Fraction(1, 2), 1): Fraction(1, 4),
          (Fraction(1, 2), -1): Fraction(3, 4),
          (Fraction(3, 4), 1): Fraction(1, 6),
          (Fraction(3, 4), -1): Fraction(5, 6),
          (Fraction(1), 1): Fraction(0),
          (Fraction(1), -1): Fraction(1)}


def is_rational_angle(pair: AnglePair):
    """Return q = θ/π ∈ ℚ ∩ [0,1] when θ is a rational multiple of π, else None.

    Sound and complete: the totient bound makes the candidate set finite,
    and a match of the minimal polynomial with Ψ_n leaves only the choice of
    root, which the root index of 2cosθ makes exactly.  An angle given by
    its rational cos² is looked up in the table of Niven's theorem.
    """
    if pair.cos2 is not None:
        return _NIVEN.get((pair.cos2, pair.cos_sign))
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

    def __mul__(self, other: "UnitComplex") -> "UnitComplex":
        return UnitComplex(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def square(self) -> "UnitComplex":
        return UnitComplex(2 * self.re * self.re - 1, 2 * self.re * self.im)

    def pow(self, k: int) -> "UnitComplex":
        base = self if k >= 0 else UnitComplex(self.re, -self.im)
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
