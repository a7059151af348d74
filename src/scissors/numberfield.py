"""Number fields for exact coordinates: ℚ(α) and towers of square roots.

A field is either ℚ(α), for the real root α of an irreducible integer
polynomial f in an isolating interval, or F(√r) over a field F (or over ℚ),
with r > 0 certified to be no square in F.  An element, `Num`, is a
coefficient tuple over its field's basis: (c₀, …, c_{n−1}) for Σ cᵢαⁱ in
ℚ(α), and (a, b) for a + b√r in F(√r), where a and b are scalars of F or of a
field below it.  A value that lies in a smaller field of its tower is stored
there and a rational value is a plain Fraction, so a Num is never rational
and its coefficients are unique.

+, − and × work modulo f, the zero test is exact, and the inverse in ℚ(α)
comes from the extended Euclidean algorithm on f and the element.  The sign
of a + b√r follows from the signs of a, b and a² − b²r in F; in ℚ(α) it
comes from interval evaluation at α, refined by Newton steps with a
sign-change check.  The minimal polynomial over ℚ is the first linear
relation among 1, x, x², …, so nothing is factored.  An element's identity
is its minimal polynomial and the index of its real root, which an
isolating interval from its field's enclosures fixes; it is written by
those two alone (`numbers.format_number`), so the field it was computed in
does not show on the wire.

A square root of r in F is found exactly or certified absent, once per
radicand (F(√r) is then built, up to MAX_DEGREE).  In ℚ(α), r is no square
when its norm is no rational square; otherwise the roots of t² − r in ℚ(α)
come from `algebraic.roots_in`, by a norm factored over ℤ.  Values of two
towers combine when one tower can be rebuilt over the other's field one
square root at a time.  Values whose towers do not combine are read as
literals and lifted into one field ℚ(γ) by `algebraic.lift`.  A square root
whose extension would be above MAX_DEGREE is not taken: `sqrt` raises
SizeCap.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import SizeCap
from .intvec import primitive
from .numbers import scalar_sign, surd
from .poly import _canonical_single, count_roots, root_index

# a square root of r is taken as F(√r) only when this certifies r
NONSQUARE = object()
# no field above this degree over ℚ is built: `sqrt_over` returns None for a
# square root that would need one, and `sqrt` and `algebraic.lift` raise
# SizeCap
MAX_DEGREE = 32


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def _eval(f, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _iroot(n: int, k: int) -> int:
    """⌊n^(1/k)⌋ for an integer n ≥ 0, by integer Newton steps from a
    power of two above the root, so that no float rounds a large n."""
    if k == 2:
        return isqrt(n)
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rational_root(q, k: int):
    """The real k-th root of q as a Fraction when q is the k-th power of a
    rational, else None; the nonnegative one when k is even."""
    q = Fraction(q)
    if q < 0:
        if k % 2 == 0:
            return None
        root = _rational_root(-q, k)
        return None if root is None else -root
    p, d = _iroot(q.numerator, k), _iroot(q.denominator, k)
    if p ** k == q.numerator and d ** k == q.denominator:
        return Fraction(p, d)
    return None


def _over(nums, d):
    """The integers `nums` over d in lowest terms: ints when d divides them
    all, else Fractions over one denominator."""
    g = gcd(d, *nums)
    d //= g
    if d == 1:
        return tuple([c // g for c in nums])
    return tuple([Fraction(c // g, d) for c in nums])


# -- fields --------------------------------------------------------------------

class SimpleField:
    """ℚ(α) for the real root α of f (integer, constant first) in (lo, hi)."""

    def __init__(self, f, lo, hi):
        self.f = tuple(int(c) for c in f)
        self.n = self.degree = len(self.f) - 1
        self.chain = (self, None)
        self.roots = {}  # see sqrt_over
        self._df = tuple(i * c for i, c in enumerate(self.f))[1:]
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        self._left = _sign(_eval(self.f, self._lo))  # sign of f left of α
        self._cells = {}
        # xᵏ mod f for k = n … 2n−2, and the same rows as integers over
        # one denominator (row k − n has a power of f's leading coefficient
        # up to the (k − n + 1)-th as its denominator)
        top = [Fraction(-c, self.f[-1]) for c in self.f[:-1]]
        self._fold = [top]
        for _ in range(self.n - 2):
            self._fold.append(self._times_x(self._fold[-1]))
        self._fold_den = self.f[-1] ** len(self._fold)
        self._int_fold = [[int(c * self._fold_den) for c in row]
                          for row in self._fold]

    def _times_x(self, w):
        out = [Fraction(0)] + list(w[:-1])
        if w[-1]:
            out = [o + w[-1] * c for o, c in zip(out, self._fold[0])]
        return out

    def lift(self, q):
        return (q,) + (0,) * (self.n - 1)

    def generator(self):
        return Num(self, (0, 1) + (0,) * (self.n - 2))

    def make(self, data):
        return Num(self, data) if any(data[1:]) else Fraction(data[0])

    def mul(self, u, v):
        """u·v in integers: the numerators of u and v over their common
        denominators are multiplied and folded by the integer rows of
        xᵏ mod f, then the product over its one denominator is reduced by
        one gcd; an entry is a Fraction unless the product is integral."""
        n = self.n
        du = lcm(*[a.denominator for a in u])
        dv = lcm(*[b.denominator for b in v])
        iv = [b.numerator * (dv // b.denominator) for b in v]
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(u):
            if a:
                a = a.numerator * (du // a.denominator)
                for j, b in enumerate(iv):
                    if b:
                        prod[i + j] += a * b
        d = self._fold_den
        out = [c * d for c in prod[:n]]
        for c, row in zip(prod[n:], self._int_fold):
            if c:
                for i in range(n):
                    out[i] += c * row[i]
        return _over(out, d * du * dv)

    def scale(self, u, q):
        """u·q for a rational q, coordinate by coordinate, in the form
        `mul` gives."""
        du = lcm(*[a.denominator for a in u])
        n = q.numerator
        return _over([a.numerator * (du // a.denominator) * n for a in u],
                     du * q.denominator)

    def _columns(self, u):
        """Columns of multiplication by u: u·αʲ for j < n."""
        cols = [list(u)]
        for _ in range(self.n - 1):
            cols.append(self._times_x(cols[-1]))
        return cols

    def inv(self, u):
        """u⁻¹ by the extended Euclidean algorithm on f and u: each
        remainder r is kept with an s such that s·u ≡ r (mod f), both with
        integer coefficients and divided by their common content, so no
        coefficient outgrows the subresultants.  As f is irreducible, the
        last remainder is a nonzero constant c, and u⁻¹ = s / c."""
        den = lcm(*(Fraction(c).denominator for c in u))
        r0, s0 = list(self.f), []
        # den is prime to the content of u·den: (r1, s1) is primitive
        r1, s1 = [int(c * den) for c in u], [den]
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("inverse of zero in a number field")
        while len(r1) > 1:
            lead, n1 = r1[-1], len(r1)
            while len(r0) >= n1:
                # cancel the leading term of r0 against r1·x^j
                c, j = r0[-1], len(r0) - n1
                r0 = [lead * a for a in r0]
                s0 = [lead * a for a in s0] + [0] * (j + len(s1) - len(s0))
                for i, b in enumerate(r1):
                    r0[j + i] -= c * b
                for i, b in enumerate(s1):
                    s0[j + i] -= c * b
                r0.pop()
                while r0 and not r0[-1]:
                    r0.pop()
                rs = primitive(r0 + s0, 1)
                r0, s0 = list(rs[:len(r0)]), list(rs[len(r0):])
            r0, s0, r1, s1 = r1, s1, r0, s0
        c = r1[0]
        return tuple(Fraction(s1[i], c) if i < len(s1) else Fraction(0)
                     for i in range(self.n))

    def norm(self, u) -> Fraction:
        """N(u) ∈ ℚ, the determinant of multiplication by u."""
        from .linalg import det_small
        return det_small(self._columns(u))

    def sign(self, u) -> int:
        bits = 24
        while True:
            lo, hi = self.enclose(u, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def enclose(self, u, bits: int):
        """Rational bounds on u(α) from integer Horner over the dyadic cell
        of width 2^−bits holding α; they shrink as bits grows."""
        k = self._cell(bits)
        den = lcm(*(Fraction(c).denominator for c in u))
        p = [int(c * den) for c in u]
        while len(p) > 1 and not p[-1]:
            p.pop()
        lo = hi = p[-1]
        w = 1
        for c in reversed(p[:-1]):
            w <<= bits
            ends = (lo * k, lo * (k + 1), hi * k, hi * (k + 1))
            lo, hi = min(ends) + c * w, max(ends) + c * w
        scale = den * w
        return Fraction(lo, scale), Fraction(hi, scale)

    def _cell(self, bits: int) -> int:
        """k with α in (k/2^bits, (k+1)/2^bits); the same k for every
        history of refinement, so bounds are a function of the value."""
        k = self._cells.get(bits)
        if k is None:
            while True:
                lo = self._lo
                k = (lo.numerator << bits) // lo.denominator
                if self._hi * (1 << bits) <= k + 1:
                    break
                self._narrow()
            self._cells[bits] = k
        return k

    def _narrow(self) -> None:
        """At least halve the interval around α: a Newton step from the
        midpoint, kept when f changes sign across a small dyadic interval
        around its result, else one bisection step."""
        lo, hi, f = self._lo, self._hi, self.f
        width = hi - lo
        mid = (lo + hi) / 2
        slope = _eval(self._df, mid)
        if slope:
            x = mid - _eval(f, mid) / slope
            # a step of about width²/4 on the dyadic grid
            t = 2 * (width.denominator.bit_length()
                     - width.numerator.bit_length()) + 2
            if t > 0:
                c = round(x * (1 << t))
                a, b = Fraction(c - 1, 1 << t), Fraction(c + 1, 1 << t)
                if (lo < a and b < hi and b - a <= width / 2
                        and _sign(_eval(f, a)) == self._left
                        and _sign(_eval(f, b)) == -self._left):
                    self._lo, self._hi = a, b
                    return
        if _sign(_eval(f, mid)) == self._left:
            self._lo = mid
        else:
            self._hi = mid


class QuadField:
    """F(√r) for r > 0 in F (F None for ℚ), certified to be no square in F."""

    def __init__(self, base, r):
        self.base, self.r = base, r
        self.chain = (self,) + (base.chain if base else (None,))
        self.degree = 2 * (base.degree if base else 1)
        self.roots = {}  # see sqrt_over
        self.over = {}  # see _tower_over

    @staticmethod
    def lift(x):
        return (x, 0)

    def make(self, data):
        if data[1]:
            return Num(self, data)
        return data[0] if isinstance(data[0], Num) else Fraction(data[0])

    def mul(self, u, v):
        a, b = u
        c, d = v
        if not d:
            return (a * c, b * c)
        if not b:
            return (a * c, a * d)
        return (a * c + b * d * self.r, a * d + b * c)

    @staticmethod
    def scale(u, q):
        return (u[0] * q, u[1] * q)

    def inv(self, u):
        a, b = u
        n = a * a - b * b * self.r
        return (a / n, -b / n)

    def sign(self, u) -> int:
        a, b = u
        sa, sb = scalar_sign(a), scalar_sign(b)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        # |a| against |b|·√r
        return sa * scalar_sign(a * a - b * b * self.r)

    def enclose(self, u, bits: int):
        la, ha = enclose(u[0], bits)
        lb, hb = enclose(u[1], bits)
        lr, hr = enclose(self.r, bits)
        one = 1 << bits
        ls = Fraction(isqrt(max((lr.numerator << 2 * bits) // lr.denominator,
                                0)), one)
        hs = Fraction(isqrt(-((-hr.numerator << 2 * bits)
                              // hr.denominator)) + 1, one)
        ends = (lb * ls, lb * hs, hb * ls, hb * hs)
        return la + min(ends), ha + max(ends)


# -- elements ------------------------------------------------------------------

class Num:
    """An irrational element of a number field (see the module docstring)."""

    __slots__ = ("field", "data", "_sign", "_poly", "_iv", "_index")

    def __init__(self, field, data):
        self.field = field
        self.data = data
        self._sign = self._poly = self._iv = self._index = None

    def __bool__(self):
        return True  # a Num is never zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        c = _common(self, other)
        if c is None:
            return _fallback(self, other, "__add__")
        F, u, v = c
        return F.make(tuple(a + b for a, b in zip(u, v)))

    __radd__ = __add__

    def __sub__(self, other):
        c = _common(self, other)
        if c is None:
            return _fallback(self, other, "__sub__")
        F, u, v = c
        return F.make(tuple(a - b for a, b in zip(u, v)))

    def __rsub__(self, other):
        c = _common(self, other)
        if c is None:
            return _fallback(self, other, "__rsub__")
        F, u, v = c
        return F.make(tuple(b - a for a, b in zip(u, v)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.make(self.field.scale(self.data, other))
        c = _common(self, other)
        if c is None:
            return _fallback(self, other, "__mul__")
        F, u, v = c
        return F.make(F.mul(u, v))

    __rmul__ = __mul__

    def __neg__(self):
        return Num(self.field, tuple(-a for a in self.data))

    def inverse(self):
        return self.field.make(self.field.inv(self.data))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if isinstance(other, Num):
            return self * other.inverse()
        return _fallback(self, other, "__truediv__")

    def __rtruediv__(self, other):
        return other * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        if self._sign is None:
            self._sign = self.field.sign(self.data)
        return self._sign

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False
        if isinstance(other, Num) and other.field is self.field:
            return self.data == other.data
        if hasattr(other, "key"):
            return self.key() == other.key()
        return NotImplemented

    def __hash__(self):
        return hash((self.minpoly(), self.root_index()))

    # -- identity, as for algebraic.AlgebraicReal ----------------------------

    def minpoly(self) -> tuple:
        if self._poly is None:
            self._poly = _minpoly(self)
        return self._poly

    def interval(self):
        """Rational bounds that isolate this root of the minimal polynomial,
        from an enclosure in the element's field: they fix `root_index`,
        and are not what is written (`poly.canonical_interval`)."""
        if self._iv is None:
            poly, bits = self.minpoly(), 4
            while True:
                lo, hi = enclose(self, bits)
                if count_roots(poly, lo, hi) == 1:
                    break
                bits *= 2
            self._iv = (lo, hi)
        return self._iv

    def root_index(self) -> int:
        if self._index is None:
            self._index = root_index(self.minpoly(), self.interval()[0])
        return self._index

    def key(self):
        return ("a", self.minpoly(), self.root_index())

    def approx(self, bits: int = 64) -> Fraction:
        """Rational approximation within 2**-bits."""
        width, b = Fraction(1, 1 << bits), max(bits, 16)
        while True:
            lo, hi = enclose(self, b)
            if hi - lo < width:
                return (lo + hi) / 2
            b *= 2

    def __float__(self):
        return float(self.approx(64))

    def __repr__(self):
        return f"Num(minpoly={list(self.minpoly())}, ~{float(self):.10g})"


def enclose(x, bits: int):
    """Rational bounds on a scalar at precision `bits`."""
    if isinstance(x, Num):
        return x.field.enclose(x.data, bits)
    x = Fraction(x)
    return x, x


def _flat(x, F) -> list:
    """ℚ-coordinates of a scalar of F (or below) in F's basis over ℚ."""
    if F is None:
        return [Fraction(x)]
    data = x.data if isinstance(x, Num) and x.field is F else F.lift(x)
    if isinstance(F, SimpleField):
        return [Fraction(c) for c in data]
    return _flat(data[0], F.base) + _flat(data[1], F.base)


def _minpoly(x) -> tuple:
    """Primitive integer minimal polynomial of x, positive leading
    coefficient.  The first kernel vector of the ℚ-columns 1, x, …, xⁿ has
    a 1 at the first power that depends on those before it, and only
    earlier powers besides: the monic minimal polynomial."""
    from .linalg import nullspace_sparse

    powers = [Fraction(1)]
    for _ in range(x.field.degree):
        powers.append(powers[-1] * x)
    cols = [_flat(p, x.field) for p in powers]
    rows = [{k: c[i] for k, c in enumerate(cols) if c[i]}
            for i in range(len(cols[0]))]
    vec = nullspace_sparse(rows, len(cols))[0]
    den = lcm(*(c.denominator for c in vec.values()))
    return _canonical_single([int(vec.get(k, 0) * den)
                              for k in range(max(vec) + 1)])


# -- combining towers -------------------------------------------------------

def _common(x, y):
    """x and y as coefficient data of one field, (F, u, v), or None when
    their towers do not combine (or y is no field scalar)."""
    for _ in range(3):
        if not isinstance(y, (Num, int, Fraction)) or \
                not isinstance(x, (Num, int, Fraction)):
            return None
        fx = x.field if isinstance(x, Num) else None
        fy = y.field if isinstance(y, Num) else None
        if fx is fy:
            return fx, x.data, y.data
        if fy is None or (fx is not None and fy in fx.chain):
            return fx, x.data, fx.lift(y)
        if fx is None or fx in fy.chain:
            return fy, fy.lift(x), y.data
        z = _rebase(y, fx)
        if z is not None:
            y = z
            continue
        z = _rebase(x, fy)
        if z is None:
            return None
        x = z
    return None


def _rebase(y, F):
    """y rewritten over F: a scalar of F or of a tower of square roots over
    F; None when a square root on the way would need a field above
    MAX_DEGREE."""
    if not isinstance(y, Num) or y.field in F.chain:
        return y
    over = _tower_over(y.field, F)
    if over is None:
        return None
    a, b = (_rebase(c, F) for c in y.data)
    return None if a is None or b is None else a + b * over[1]


def _tower_over(G, F):
    """G's tower rebuilt over F one square root at a time: (its top field,
    which has F in its chain, and the image of G's √r there), or None.  Kept
    per field, so that every element of G lands in the same tower."""
    if not isinstance(G, QuadField):
        return None
    if F not in G.over:
        G.over[F] = None
        if G.base in F.chain:
            top = F
        else:
            below = _tower_over(G.base, F)
            top = below[0] if below else None
        r = _rebase(G.r, F) if top is not None else None
        root = sqrt_over(top, r) if r is not None else None
        if root is not None:
            if isinstance(root, Num) and top in root.field.chain:
                top = root.field
            G.over[F] = (top, root)
    return G.over[F]


def _fallback(x, y, op):
    """x op y for values whose towers do not combine, computed in the one
    field ℚ(γ) that `algebraic.lift` puts both in, as a literal."""
    from .algebraic import as_algebraic

    # equal lengths of congruent inputs cancel without building ℚ(γ)
    if op in ("__sub__", "__rsub__") and x == y or op == "__add__" and x == -y:
        return Fraction(0)
    return getattr(as_algebraic(x), op)(as_algebraic(y))


# -- square roots ----------------------------------------------------------

def sqrt_in(F, r):
    """A square root of r > 0, a scalar of F or below, that lies in F, or
    NONSQUARE when r is certified to be no square in F."""
    if not isinstance(r, Num):
        root = _rational_root(r, 2)
        if root is not None:
            return root
        if F is None:
            return NONSQUARE
        if isinstance(F, SimpleField):
            # [ℚ(√r):ℚ] = 2 divides no odd degree
            return NONSQUARE if F.n % 2 else _root_of_square(F, r)
    elif r.field is F:
        if isinstance(F, SimpleField):
            # r = t² would make N(r) = N(t)² a rational square
            if _rational_root(F.norm(r.data), 2) is None:
                return NONSQUARE
            return _root_of_square(F, r)
        a, b = r.data
        n = sqrt_in(F.base, a * a - b * b * F.r)
        if n is NONSQUARE:
            return n  # r = t² would make its relative norm a square
        # then one of (a ± n)/2 is the square of t's first coordinate
        for h in ((a + n) / 2, (a - n) / 2):
            if scalar_sign(h) > 0:
                s = sqrt_in(F.base, h)
                if s is not NONSQUARE:
                    return F.make((s, b / (2 * s)))
        return NONSQUARE
    # r lies below F = C(√s): r is a square in F iff r or r·s is one in C
    x = sqrt_in(F.base, r)
    if x is not NONSQUARE:
        return x
    y = sqrt_in(F.base, r * F.r)
    return NONSQUARE if y is NONSQUARE else F.make((0, y / F.r))


def _root_of_square(F, r):
    """A root in ℚ(α) of t² − r, or NONSQUARE."""
    from .algebraic import roots_in

    return next(roots_in(F, (-r, 0, 1)), NONSQUARE)


def _structure_key(x):
    if isinstance(x, Num):
        return (id(x.field), tuple(_structure_key(c) for c in x.data))
    return Fraction(x)


_RATIONAL_QUADS: dict = {}


def sqrt_over(F, r):
    """The positive √r for r > 0, a scalar of F or below: a scalar of F when
    r is a square there, else an element of the extension F(√r); None when
    that extension would have a degree above MAX_DEGREE.  Over a field,
    `F.roots` keeps the outcome per radicand, tested once by `sqrt_in`."""
    if F is None:
        root = _rational_root(r, 2)
        if root is not None:
            return root
        c, m = surd(r)
        E = _RATIONAL_QUADS.get(m)
        if E is None:
            E = _RATIONAL_QUADS[m] = QuadField(None, Fraction(m))
        return Num(E, (Fraction(0), c))
    key = _structure_key(r)
    if key not in F.roots:
        root = sqrt_in(F, r)
        if root is not NONSQUARE:
            root = abs(root)
        elif 2 * F.degree <= MAX_DEGREE:
            root = Num(QuadField(F, r), (Fraction(0), Fraction(1)))
        else:
            root = None
        F.roots[key] = root
    return F.roots[key]


def sqrt(x):
    """√x for a scalar x >= 0 in its own field: an element of that field or
    of its quadratic extension.  Raises SizeCap when that extension would
    have a degree above MAX_DEGREE."""
    if not x:
        return Fraction(0)
    root = sqrt_over(x.field if isinstance(x, Num) else None, x)
    if root is None:
        raise SizeCap(f"a square root in a number field of degree above "
                      f"{MAX_DEGREE}")
    return root
