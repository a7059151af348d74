"""Exact real algebraic numbers: minimal polynomial + isolating interval.

A rational value is a plain ``Fraction`` everywhere.  An irrational value
is an element of a number field (``numberfield.Num``), or an
``AlgebraicReal``: an irrational literal, carrying a primitive irreducible
integer polynomial of degree at least 2 with positive leading coefficient,
constant term first, together with a rational interval containing exactly
one of its real roots, the form of a literal as parsed.  A root of a linear
factor reads as that rational.  ``lift`` puts the literals of one input
into one field ℚ(α), and all arithmetic on irrational values runs there:
the operators of ``AlgebraicReal`` and ``field_ops`` lift their operands,
compute in the field and return a Fraction for a rational result, else
read it back as a literal.  A literal x of the degree of ℚ(α) is first
tried as x = a + bα for rationals a and b, read off the coefficients of
the two minimal polynomials and checked exactly (`_affine`): a rational
motion or scaling of an input puts every coordinate there, and nothing is
factored.  Otherwise the one resultant of the package, taken and factored
by `factoring`, is a norm from ℚ(α) to ℚ.  It decides whether x lies in
ℚ(α), and a square root in it, by the roots in ℚ(α) of a polynomial
(`roots_in`), and grows the field when x lies outside it: it gives the
minimal polynomial of γ = x + kα, and α is recovered in ℚ(γ) exactly.
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import numberfield
from .errors import SizeCap
from .factoring import factor, resultant
from .numberfield import Num, SimpleField, _sign
# count_roots, as_scalar, scalar_key and scalar_sign are named here for
# their callers
from .numbers import as_scalar, scalar_key, scalar_sign
from .poly import (
    _diff,
    _gcd,
    _is_constant,
    _sign_at,
    _sparse,
    _strip,
    count_roots,
    root_index,
)


class NoRootInInterval(ValueError):
    pass


class MultipleRootsInInterval(ValueError):
    """The interval isolates more than one root; refine and retry."""


class DivisionByZero(ZeroDivisionError):
    pass


class NegativeSqrt(ValueError):
    pass


@lru_cache(maxsize=2048)
def _norm(f, p, k):
    """N(t) = Res_y(f(y), p(t − ky, y)), the norm of p(t − kα) from ℚ(α)
    to ℚ for a root α of f, as a coefficient tuple: the package's one
    resultant, a bivariate one over ℤ in (t, y).  Each coefficient of p is
    an integer polynomial in y, constant first, a 1-tuple when p is over
    ℤ; the roots of N are the β + kα′ for the conjugates α′ of α and the
    roots β of p with α′ for α."""
    F = {(0, e): c for e, c in enumerate(f) if c}
    G = {}
    for i, coeff in enumerate(p):
        for m, c in enumerate(coeff):
            # the terms of c·yᵐ·(t − ky)ⁱ, in t^(i−j)·y^(m+j) for j ≤ i
            for j in range(i + 1):
                e = (i - j, m + j)
                G[e] = G.get(e, 0) + c * comb(i, j) * (-k) ** j
    res = resultant(F, {e: c for e, c in G.items() if c}, 1)
    return _strip([res.get((j, 0), 0)
                   for j in range(max(res)[0] + 1 if res else 0)])


@lru_cache(maxsize=2048)
def _norm_factors(f, p, k):
    """The irreducible factors of the norm `_norm(f, p, k)`."""
    return tuple(factor(_norm(f, p, k)))


def _is_squarefree(N, degree) -> bool:
    """Whether the polynomial N has the given degree and no repeated
    factor: one gcd with N′."""
    if len(N) - 1 != degree:
        return False
    a = _sparse(N)
    return _is_constant(_gcd(a, _diff(a, 0))[0])


class AlgebraicReal:
    """An exact irrational real algebraic number, as a literal."""

    __slots__ = ("_poly", "_lo", "_hi", "_index")

    def __init__(self, poly, lo, hi):
        self._poly = tuple(int(c) for c in poly)
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        self._index = None

    # -- basic accessors ------------------------------------------------

    def minpoly(self) -> tuple:
        return self._poly

    def degree(self) -> int:
        return len(self._poly) - 1

    def interval(self):
        """The working isolating interval, which `refine` narrows; what is
        written is `poly.canonical_interval`'s."""
        return (self._lo, self._hi)

    # -- refinement ------------------------------------------------------

    def refine(self) -> None:
        """Bisect the isolating interval once."""
        lo, hi, f = self._lo, self._hi, self._poly
        mid = (lo + hi) / 2
        # irreducible of degree >= 2 has no rational roots
        if (_sign_at(f, mid.numerator, mid.denominator)
                == _sign_at(f, lo.numerator, lo.denominator)):
            self._lo = mid
        else:
            self._hi = mid

    def approx(self, bits: int = 64) -> Fraction:
        """Rational midpoint approximation within 2**-bits."""
        while self._hi - self._lo >= Fraction(1, 1 << bits):
            self.refine()
        return (self._lo + self._hi) / 2

    # -- identity --------------------------------------------------------

    def root_index(self) -> int:
        """Index of this root among the real roots of minpoly (0-based)."""
        if self._index is None:
            self._index = root_index(self._poly, self._lo)
        return self._index

    def key(self):
        return ("a", self._poly, self.root_index())

    def __hash__(self):
        return hash((self._poly, self.root_index()))

    # -- sign and comparison ----------------------------------------------

    def sign(self) -> int:
        # 0 is rational, hence no end of the interval is the value: a
        # written interval such as (0, B] or (−B, 0] needs no bisection
        while True:
            if self._lo >= 0:
                return 1
            if self._hi <= 0:
                return -1
            self.refine()

    def compare(self, other) -> int:
        """The sign of self − other.  A rational other is a point, never
        equal to self; distinct values are told apart by refining until
        the intervals separate."""
        rational = isinstance(other, (int, Fraction))
        if not rational:
            other = as_algebraic(other)
            if self._poly == other._poly:
                return _sign(self.root_index() - other.root_index())
        while True:
            lo, hi = (other, other) if rational else other.interval()
            # the values differ, so touching intervals separate them
            if self._hi <= lo:
                return -1
            if hi <= self._lo:
                return 1
            self.refine()
            if not rational:
                other.refine()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        return self.key() == other.key()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        g = [-c if i % 2 else c for i, c in enumerate(self._poly)]  # f(−x)
        if g[-1] < 0:
            g = [-c for c in g]
        return AlgebraicReal(g, -self._hi, -self._lo)

    def __add__(self, other):
        return _in_field(operator.add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _in_field(operator.sub, self, other)

    def __rsub__(self, other):
        return _in_field(operator.sub, other, self)

    def __mul__(self, other):
        return _in_field(operator.mul, self, other)

    __rmul__ = __mul__

    def inverse(self):
        coeffs = tuple(reversed(self._poly))  # minpoly of 1/x
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        while self._lo <= 0 <= self._hi:
            self.refine()
        return AlgebraicReal(coeffs, *sorted((1 / self._hi, 1 / self._lo)))

    def __truediv__(self, other):
        if scalar_sign(as_scalar(other)) == 0:
            raise DivisionByZero("division by zero")
        return _in_field(operator.truediv, self, other)

    def __rtruediv__(self, other):
        return _in_field(operator.truediv, other, self)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        (base,) = lift([self])
        out = Fraction(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return _read_back(out)

    # -- misc ---------------------------------------------------------------

    def __float__(self):
        return float(self.approx(64))

    def __repr__(self):
        return (f"AlgebraicReal(minpoly={list(self._poly)}, "
                f"~{float(self):.10g})")


def _read_back(x):
    """A rational result as its Fraction, an irrational one as a literal."""
    return x if isinstance(x, Fraction) else as_algebraic(x)


def _in_field(op, x, y):
    """op(x, y) computed in one number field, read back as a Fraction or a
    literal."""
    x, y = lift([x, y])
    return _read_back(op(x, y))


def _select_root(factors, window, operands=()):
    """The one root of the irreducible `factors` in window(), refining the
    operands, which window() reads, until no other root is left in it.
    Without operands the window is fixed and must isolate one root."""
    for _ in range(20000):
        lo, hi = window()
        total, root = 0, None
        for g in factors:
            if len(g) == 2:  # linear factor: rational root
                r = Fraction(-g[0], g[1])
                if lo <= r <= hi:
                    total, root = total + 1, r
            else:
                # count_roots uses (lo, hi]; endpoints are never roots of an
                # irreducible factor of degree >= 2
                c = count_roots(g, lo, hi)
                if c:
                    total, root = total + c, AlgebraicReal(g, lo, hi)
        if total == 1:
            return root
        if not operands:
            if total == 0:
                raise NoRootInInterval(f"no real root in [{lo}, {hi}]")
            raise MultipleRootsInInterval(
                f"{total} roots in [{lo}, {hi}]; refine the interval")
        for op in operands:
            op.refine()
    raise RuntimeError("root selection did not converge")


def as_algebraic(x) -> AlgebraicReal:
    """An irrational scalar as a literal: a Num by its minimal polynomial
    and isolating interval."""
    if isinstance(x, AlgebraicReal):
        return x
    if isinstance(x, Num):
        return AlgebraicReal(x.minpoly(), *x.interval())
    raise TypeError(f"cannot coerce {x!r} to AlgebraicReal")


def make_algebraic(coeffs, interval):
    """Canonical algebraic number: the unique root of `coeffs` in `interval`,
    a Fraction when it is the root of a linear factor, else a literal.

    The polynomial may be reducible or non-squarefree; the irreducible factor
    owning the root is selected automatically.  Raises NoRootInInterval or
    MultipleRootsInInterval when the interval does not pin down one root.
    """
    f = _strip(coeffs)
    if not f:
        raise ValueError("zero polynomial")
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    return _select_root(factor(f), lambda: (lo, hi))


def sqrt_nonneg(x):
    """Exact square root of a nonnegative scalar: a Fraction when perfect,
    else in the quadratic extension of the radicand's field; a literal is
    lifted into its field ℚ(α) first.  Raises SizeCap when the root would
    need a field above `numberfield.MAX_DEGREE`, as `lift` does."""
    (x,) = lift([x])
    if scalar_sign(x) < 0:
        raise NegativeSqrt(f"sqrt of negative value {x}")
    return numberfield.sqrt(x)


# -- scalar helpers: geometry works over Fraction | Num | AlgebraicReal ------
# as_scalar, scalar_key and scalar_sign live in `numbers`

def scalar_eq(a, b) -> bool:
    return scalar_sign(a - b) == 0


def scalar_cmp(a, b) -> int:
    return scalar_sign(a - b)


def scalar_sqrt(x):
    return sqrt_nonneg(x)


_FIELD_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": operator.truediv}


def field_ops(a, b, op: str):
    """Spec-surface dispatcher over exact field operations: the operands
    are lifted into one number field, and a result is a Fraction when it is
    rational, else a literal."""
    if op == "sqrt_nonneg":
        return _read_back(sqrt_nonneg(a))
    if op == "neg":
        (a,) = lift([a])
        return _read_back(-a)
    a, b = lift([a, b])
    if op in _FIELD_OPS:
        if op == "div" and scalar_sign(b) == 0:
            raise DivisionByZero("division by zero")
        return _read_back(_FIELD_OPS[op](a, b))
    if op == "compare":
        c = scalar_cmp(a, b)
        return "Less" if c < 0 else ("Equal" if c == 0 else "Greater")
    raise ValueError(f"unknown op {op!r}")


# -- one number field per input ------------------------------------------------
# Literals are embedded here and nowhere else.  Membership in a field tries
# the affine identity x = a + bα first; otherwise membership, square roots in
# the field and the compositum all take their roots from one norm, a
# resultant factored by `factoring.factor`.

def lift(values) -> list:
    """The scalars `values`, with every AlgebraicReal among them written
    in one number field ℚ(α).  Elements of one field ℚ(α) keep their
    field and the literals join it; elements of several fields, or of a tower
    of square roots, are read as literals first.  A literal joins the field
    as a + bα when that affine identity holds, else by a norm (`_member`);
    it grows the field only when it lies outside it, and each field is
    built once per generator (`_field`).  Raises SizeCap when it would grow
    it above `numberfield.MAX_DEGREE`."""
    values = [as_scalar(v) for v in values]
    if not any(isinstance(v, AlgebraicReal) for v in values):
        return values
    fields = {v.field for v in values if isinstance(v, Num)}
    if len(fields) > 1 or not all(isinstance(F, SimpleField) for F in fields):
        values = [as_algebraic(v) if isinstance(v, Num) else v
                  for v in values]
        fields = set()
    K = fields.pop() if fields else None
    image = {}
    for v in values:
        if not isinstance(v, AlgebraicReal) or v.key() in image:
            continue
        if K is None:
            K = _field(v)
            image[v.key()] = K.generator()
            continue
        x = _member(v, K)
        if x is None:
            n = K.n
            K, alpha, x = _compositum(K, v)
            into = _embedding(n, alpha)
            image = {j: into(y) for j, y in image.items()}
            values = [into(y) for y in values]
        image[v.key()] = x
    return [image[v.key()] if isinstance(v, AlgebraicReal) else v
            for v in values]


# one ℚ(α) per key of α (its polynomial and root index), so that values of
# one literal lifted in separate calls combine without `numberfield._fallback`
_FIELDS: dict = {}


def _field(alpha: AlgebraicReal) -> SimpleField:
    key = alpha.key()
    if key not in _FIELDS:
        _FIELDS[key] = SimpleField(alpha.minpoly(), *alpha.interval())
    return _FIELDS[key]


def _embedding(n, alpha):
    """The map that sends an element of a field ℚ(α) of degree n, given by
    its coefficients, to alpha's field: each image is a linear combination
    of the powers of alpha, whose coordinates are computed once."""
    L, power, columns = alpha.field, Fraction(1), []
    for _ in range(n):
        columns.append(power.data if isinstance(power, Num) else
                       L.lift(power))
        power = power * alpha

    def into(y):
        if not isinstance(y, Num):
            return y
        return L.make(tuple(sum(c * col[j] for c, col in zip(y.data, columns))
                            for j in range(L.n)))
    return into


def _member(x: AlgebraicReal, K):
    """x as an element of K, or None when x ∉ K.  [ℚ(x):ℚ] divides [K:ℚ]
    when x ∈ K.  The affine identity x = a + bα is tried first (`_affine`),
    which factors nothing; otherwise x is the root of its minimal polynomial
    in K that has its key (`roots_in`)."""
    if K.n % x.degree():
        return None
    if x.degree() == K.n:
        y = _affine(x, K)
        if y is not None:
            return y
    key = x.key()
    return next((y for y in roots_in(K, x.minpoly()) if y.key() == key),
                None)


@lru_cache(maxsize=256)
def _centred(f):
    """(μ, ĉ) for an integer polynomial f of degree n, constant first: μ the
    mean of its roots and ĉ the coefficients of the monic f(X + μ)/lc(f),
    whose roots have mean 0 (ĉ[n − 1] = 0), by the Taylor shift."""
    n = len(f) - 1
    mu = Fraction(-f[n - 1], n * f[n])
    c = [Fraction(v, f[n]) for v in f]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += mu * c[j + 1]
    return mu, tuple(c)


def _affine(x: AlgebraicReal, K):
    """x as a + bα in K = ℚ(α) for rationals a and b, or None.

    When x = a + bα, the minimal polynomial p of x (degree n = [K:ℚ]) is
    f = m_α moved by X ↦ a + bX.  With both centred to root mean 0 (p̂ and
    f̂), p̂(X) = bⁿ·f̂(X/b), so the first coefficient of f̂ below Xⁿ⁻¹ that
    is not 0, at Xⁿ⁻ᵏ, gives bᵏ, and a = μ_p − b·μ_f.  Each rational k-th
    root b (both signs for k even) is checked on every coefficient; a + bα
    is then a root of p, and it is x when an enclosure of it lies inside x's
    isolating interval.  An enclosure outside it means another root, and
    the next b is tried."""
    n = K.n
    mu_p, p = _centred(x.minpoly())
    mu_f, f = _centred(K.f)
    # f̂ ≠ Xⁿ, as f is irreducible of degree ≥ 2
    k = next(j for j in range(2, n + 1) if f[n - j])
    b = numberfield._rational_root(p[n - k] / f[n - k], k)
    if not b:
        return None
    lo, hi = x.interval()
    for b in (b, -b) if k % 2 == 0 else (b,):
        if any(p[n - j] != b ** j * f[n - j] for j in range(2, n + 1)):
            continue
        y = mu_p - b * mu_f + b * K.generator()
        bits = 16
        while True:
            y_lo, y_hi = numberfield.enclose(y, bits)
            if lo <= y_lo and y_hi <= hi:
                return y
            if y_hi < lo or hi < y_lo:
                break
            bits *= 2
    return None


# the norm of p over ℚ(α), a resultant, has degree [ℚ(α):ℚ]·deg p; with its
# factoring it takes about 0.7 s at degree 128 (x¹⁶ − 2 and x⁸ − 3) and
# 24 s at degree 256 (x¹⁶ − 2 and x¹⁶ − 3), on a 2-core Xeon
MAX_RESULTANT_DEGREE = 128


def _cap_resultant_degree(size):
    if size > MAX_RESULTANT_DEGREE:
        raise SizeCap(f"a resultant of degree {size} above "
                      f"{MAX_RESULTANT_DEGREE}")


def roots_in(K, p):
    """The roots in K = ℚ(α) of the squarefree polynomial p over K (its
    coefficients rational or in K, constant first), by Trager's norm method
    ("Algebraic factoring and rational function integration", SYMSAC 1976).

    For the first k whose norm N(t) of p(t − kα) is squarefree (one gcd
    with N′ tells, so no other norm is factored), the irreducible factors
    of N are the norms of those of p(t − kα) over K:
    each factor of degree [K:ℚ] is the norm of a linear one, t − kα − β,
    read off as its gcd over K with p(t − kα).  For p over ℚ, N = p^[K:ℚ] at
    k = 0, which is skipped.  Raises SizeCap when N has a degree above
    MAX_RESULTANT_DEGREE."""
    n, size = K.n, K.n * (len(p) - 1)
    _cap_resultant_degree(size)
    coords = [c.data if isinstance(c, Num) else (c,) for c in p]
    den = lcm(*(Fraction(v).denominator for c in coords for v in c))
    P = tuple(tuple(int(v * den) for v in c) for c in coords)
    alpha = K.generator()
    for k in range(0 if any(len(c) > 1 for c in P) else 1, size ** 2 + 2):
        if _is_squarefree(_norm(K.f, P, k), size):
            for g in _norm_factors(K.f, P, k):
                if len(g) == n + 1:
                    yield _common_root(g, p, -k * alpha, 1) - k * alpha
            return
    raise AssertionError("no squarefree norm found")


def _compositum(K, x: AlgebraicReal):
    """ℚ(α, x) as ℚ(γ) for γ = x + kα: (the field, α in it, x in it).

    α is a common root of m_α(X) and m_x(γ − kX), and their only one exactly
    when γ generates ℚ(α, x), which is when their gcd over ℚ(γ) is linear;
    otherwise the next k is tried.  Only finitely many k fail.  Raises
    SizeCap when ℚ(α, x) has a degree above `numberfield.MAX_DEGREE`, or the
    resultant one above MAX_RESULTANT_DEGREE."""
    n, f, h = K.n, K.f, x.minpoly()
    if lcm(n, x.degree()) > numberfield.MAX_DEGREE:
        raise SizeCap(f"a number field of degree above "
                      f"{numberfield.MAX_DEGREE}")
    _cap_resultant_degree(n * x.degree())
    alpha = as_algebraic(K.generator())
    over_q = tuple((c,) for c in h)
    for k in range(1, (n * x.degree()) ** 2 + 2):
        def window(k=k):
            (a, b), (c, d) = x.interval(), alpha.interval()
            return a + k * c, b + k * d
        # x ∉ ℚ(α), so γ is irrational
        g = _select_root(_norm_factors(f, over_q, k), window, (x, alpha))
        if g.degree() > numberfield.MAX_DEGREE:
            raise SizeCap(f"a number field of degree {g.degree()} above "
                          f"{numberfield.MAX_DEGREE}")
        L = _field(g)
        a = _common_root(f, h, L.generator(), -k)
        if a is not None:
            return L, a, L.generator() - k * a
    raise AssertionError("no primitive element found")


def _common_root(f, h, a0, a1):
    """The root of gcd(f(X), h(a0 + a1·X)) over a field when that gcd is
    linear, else None: f has rational coefficients, h's and a0, a1 are
    scalars of the field, all constant first."""
    q = [as_scalar(h[-1])]  # h(a0 + a1·X) by Horner
    for c in reversed(h[:-1]):
        q = ([a0 * q[0] + c]
             + [a0 * q[j] + a1 * q[j - 1] for j in range(1, len(q))]
             + [a1 * q[-1]])
    a, b = [Fraction(c) for c in f], q
    while b:
        r, lead = list(a), 1 / b[-1]
        while len(r) >= len(b):
            c, shift = r[-1] * lead, len(r) - len(b)
            for i, v in enumerate(b):
                r[shift + i] -= c * v
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return -a[0] / a[1] if len(a) == 2 else None
