"""Angles as exact cos² and sign of cos, and decision procedures on them.

Every rule reads cos²θ and the sign σ of cosθ alone; cosθ and sinθ are
square-rooted only to be written.  ``is_rational_angle`` reads
x = 2cos2θ = 4cos²θ − 2 = 2cos α, α ∈ [0, π] being 2θ or 2π − 2θ: θ/π ∈ ℚ
forces x to be an algebraic integer, one of −2 … 2 when rational (Niven),
and the degrees of the minimal polynomials Ψ_n of 2cos(2πk/n) are φ(n)/2,
so a monic minimal polynomial of degree d leaves finitely many n to test;
the root index of x then names k.  It runs on exact arithmetic alone,
without mpmath or sympy.  ``find_angle_relations`` proposes one integer
relation ∑ m_j θ_j ≡ 0 (mod π) numerically (PSLQ) and certifies it by
evaluating ∏ z_j^{m_j} exactly, z = e^{2iθ} = (2cos²θ − 1) +
2iσ√(cos²θ·sin²θ) with one square root, and checking it equals 1; an
unverified proposal is discarded, so a returned relation is sound.  The
Dehn normalization substitutes that relation and searches again.
"""

from fractions import Fraction
from math import gcd

from .errors import DEFAULT_HEIGHT_BOUND
from .numbers import (
    format_number,
    format_sqrt,
    one_field,
    scalar_key,
    scalar_sign,
    surd,
)

DEFAULT_PROPOSE_BITS = 256
MAX_PROPOSE_BITS = 4096


class AnglePair:
    """Canonical angle θ ∈ [0, π], held as cos²θ and the sign of cosθ.

    cos² is a scalar of the coordinates' field, a Fraction whenever it is
    rational.  The key, the rational test, the relation check and the
    radians read those two alone.  cos and sin ≥ 0, square roots over that
    field (`numberfield.sqrt`), are built when first read, unless the pair
    was built from them: the JSON of an angle with an irrational cos² and
    the polynomial of 2cosθ read them."""

    __slots__ = ("_cos", "_sin", "_key", "cos2", "cos_sign")

    def __init__(self, cos, sin):
        cos, sin = one_field([cos, sin])
        if scalar_sign(sin) < 0:
            raise ValueError("sin component must be nonnegative")
        cos2 = cos * cos
        if scalar_sign(cos2 + sin * sin - 1) != 0:
            raise ValueError("cos^2 + sin^2 != 1")
        self._cos = cos
        self._sin = sin
        self._key = None
        self.cos2, self.cos_sign = cos2, scalar_sign(cos)

    @classmethod
    def from_cos2(cls, cos2, sign: int) -> "AnglePair":
        """The angle with cos²θ = cos2 ∈ [0, 1] and cosθ of the given sign
        (−1, 0 or 1; 0 exactly when cos2 is 0)."""
        if scalar_sign(cos2) < 0 or scalar_sign(1 - cos2) < 0 or \
                (sign == 0) != (not cos2):
            raise ValueError("cos^2 out of [0, 1] or sign mismatch")
        pair = object.__new__(cls)
        pair._cos = pair._sin = pair._key = None
        pair.cos2, pair.cos_sign = cos2, sign
        return pair

    @classmethod
    def from_cos(cls, cos) -> "AnglePair":
        (cos,) = one_field([cos])
        pair = cls.from_cos2(cos * cos, scalar_sign(cos))
        pair._cos = cos
        return pair

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
        """(scalar_key of cos², sign of cos), which orders and identifies
        angles: by cos², an irrational one (by its minimal polynomial and
        root index) before a rational one, then by the sign of cos."""
        if self._key is None:
            self._key = (scalar_key(self.cos2), self.cos_sign)
        return self._key

    def __eq__(self, other):
        return isinstance(other, AnglePair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def acute(self):
        """(1, θ) when cos θ ≥ 0, else (−1, π − θ): ℓ ⊗ θ = −ℓ ⊗ (π − θ) in
        ℝ ⊗ ℝ/ℚπ, as ℓ ⊗ π = 0.  The supplement keeps cos² and flips the
        sign of cos, so it is exact and needs no check."""
        if self.cos_sign >= 0:
            return 1, self
        return -1, AnglePair.from_cos2(self.cos2, 1)

    def is_straight(self) -> bool:
        """θ = 0 or θ = π (both vanish in the length⊗angle tensor)."""
        return self.cos2 == 1

    def radians(self, bits: int = 64) -> "mpmath.mpf":
        """acos(σ√cos²θ), with cos² taken to 2·(bits + 16) bits so that its
        root keeps bits + 16."""
        import mpmath as mp

        prec = bits + 16
        c2 = self.cos2
        if type(c2) is not Fraction:
            c2 = c2.approx(2 * prec)
        with mp.workprec(prec):
            return mp.acos(self.cos_sign *
                           mp.sqrt(mp.mpf(c2.numerator) / c2.denominator))

    def to_json(self):
        if type(self.cos2) is Fraction:
            return {"cos": format_sqrt(self.cos2, self.cos_sign),
                    "sin": format_sqrt(1 - self.cos2)}
        return {"cos": format_number(self.cos),
                "sin": format_number(self.sin)}

    def __repr__(self):
        return f"AnglePair(cos2~{float(self.cos2):.6g}, sign={self.cos_sign})"


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


# the integer values of 2cos α and their α/π, α ∈ [0, π]: by Niven's
# theorem the only rational ones with α/π rational
_INTEGER_TWO_COS = {2: Fraction(0), 1: Fraction(1, 3), 0: Fraction(1, 2),
                    -1: Fraction(2, 3), -2: Fraction(1)}


def two_cos_minpoly(pair: AnglePair) -> tuple:
    """Constant-first minimal polynomial of 2cosθ over ℤ: primitive, with a
    positive leading coefficient."""
    if type(pair.cos2) is Fraction:
        c, m = surd(pair.cos2)
        if m == 1:
            two_cos = 2 * pair.cos_sign * c
            return (-two_cos.numerator, two_cos.denominator)
        four = 4 * pair.cos2  # (2cosθ)² = 4cos²θ = P/Q: QX² − P
        return (-four.numerator, 0, four.denominator)
    return (2 * pair.cos).minpoly()


def is_rational_angle(pair: AnglePair):
    """Return q = θ/π ∈ ℚ ∩ [0,1] when θ is a rational multiple of π, else None.

    Sound and complete, on x = 2cos2θ = 2cos α for α = 2θ when cosθ ≥ 0,
    else 2π − 2θ (see the module docstring)."""
    x = 4 * pair.cos2 - 2
    turn = _INTEGER_TWO_COS.get(x) if type(x) is Fraction else _turn(x)
    if turn is None:
        return None
    return turn / 2 if pair.cos_sign >= 0 else 1 - turn / 2


def _turn(x):
    """α/π for the α ∈ [0, π] with 2cos α = x, an irrational real algebraic
    x, when it is rational, else None: a match of x's minimal polynomial
    with Ψ_n leaves only the choice of root, which x's root index makes."""
    m = x.minpoly()
    if m[-1] != 1:
        return None  # not monic: x is no algebraic integer
    d = len(m) - 1
    for n in range(3, 4 * d * d + 8):
        if _totient(n) == 2 * d and _two_cos_minpoly(n) == m:
            # the roots of Ψ_n are 2cos(2πj/n) for the j < n/2 prime to n,
            # all real and decreasing in j
            js = [j for j in range(1, n // 2 + 1) if gcd(j, n) == 1]
            return Fraction(2 * js[d - 1 - x.root_index()], n)
    return None


# -- exact complex arithmetic on the unit circle ------------------------------

class UnitComplex:
    """(re, im) with re² + im² = 1, exact scalars; enough for verification."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def doubled(cls, pair: AnglePair) -> "UnitComplex":
        """e^{2iθ} = (2cos²θ − 1) + 2iσ√(cos²θ·sin²θ), σ the sign of cosθ:
        the angles of one rational block (m, s) multiply in ℚ(√s)."""
        from .numberfield import sqrt

        c2 = pair.cos2
        return cls(2 * c2 - 1, 2 * pair.cos_sign * sqrt(c2 * (1 - c2)))

    def __mul__(self, other: "UnitComplex") -> "UnitComplex":
        return UnitComplex(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

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
    """Exact check of ∏ e^{2imθ} = 1 for the proposed relation."""
    acc = UnitComplex(Fraction(1), Fraction(0))
    for pair, m in zip(angles, coefficients):
        if m == 0:
            continue
        acc = acc * UnitComplex.doubled(pair).pow(m)
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
