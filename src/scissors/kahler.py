"""Kähler differentials: presented commutative algebras and field towers.

A tower is an ordered list of generators, each either transcendental or
algebraic with an irreducible minimal polynomial over the transcendental
generators before it.  Two or more algebraic generators are accepted only
when the tower is shown to be a field (`FieldTower._check_field`).  An
element is a polynomial in the algebraic generators over ℚ(t₁…tₙ), reduced
modulo their relations, and kept as one numerator over ℤ[t…, s…] and one
denominator over ℤ[t…] with no common factor and a positive leading
coefficient.  So equal elements have equal representations, and an element
is zero exactly when its numerator is.  The polynomials, their
pseudo-remainders and their exact gcd are those of `poly`.
Inverses come from rational elimination over ℚ(t…).  The universal
differential kills everything algebraic over ℚ and is determined on algebraic
generators by differentiating their minimal polynomials, so d lands in the
free module on the transcendental generators.

Tower specs, tensor entries and the relations of a presented algebra are read
by one small parser: integers, names, + - * / ^ **, parentheses and integer
exponents.  Exponents, degrees and the size of each product are capped by
DEGREE_CAP (SizeCap, exit 4).  A specialized relation is factored by
`factoring.factor`.  A presented algebra ℚ[x…]/(f…) is computed through its
reduced Gröbner basis, native on the same integer polynomials.
"""

import re
from fractions import Fraction
from itertools import islice, product
from math import gcd, prod

from .errors import ParseError, SizeCap
from .factoring import factor
from .linalg import rank_sparse, rref_sparse
from .poly import _add, _content, _diff, _gcd, _is_constant, _is_one, _mul
from .poly import _is_rational_square, _neg, _prem, _primitive, _scale
from .poly import _split, _sub

# Exponents and total degrees above DEGREE_CAP, and products of more than
# DEGREE_CAP³ term pairs or DEGREE_CAP³ coefficient bits, raise SizeCap.
DEGREE_CAP = 64


class NotExpressible(ParseError):
    """An input the tower cannot express (an input error, exit 2)."""


class NotFiniteDimensional(ParseError):
    """A presented algebra that is not finite-dimensional (exit 2)."""


def _degree(a):
    return max(map(sum, a), default=0)


def _bits(a):
    return max((c.bit_length() for c in a.values()), default=0)


def _capped_mul(a, b):
    """a·b, refused with SizeCap when the product would be too large."""
    if _degree(a) + _degree(b) > DEGREE_CAP:
        raise SizeCap(f"a polynomial of degree above {DEGREE_CAP}")
    if len(a) * len(b) > DEGREE_CAP ** 3 or \
            _bits(a) + _bits(b) > DEGREE_CAP ** 3:
        raise SizeCap(f"a product of polynomials larger than the cap "
                      f"{DEGREE_CAP}³")
    return _mul(a, b)


# -- rings of tower elements ------------------------------------------------------

_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()])")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Ring:
    """ℚ(x…)[s…]/(relations) on named generators.  With no relations these
    are rational functions, in which the relations of a tower are parsed."""

    def __init__(self, names):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self._unit = {(0,) * len(self.names): 1}
        self._relations = []  # (generator index, relation, its lc)
        self._basis = [next(iter(self._unit))]  # of the algebraic part
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        self._print_key = lambda e: tuple(e[i] for i in order)

    def _make(self, num, den, reduce=False):
        """The element num/den; den is free of the algebraic generators."""
        if not den:
            raise ZeroDivisionError("division by zero in the tower")
        if reduce:
            for i, rel, lc in self._relations:
                num, k = _prem(num, rel, i)
                for _ in range(k):
                    den = _capped_mul(den, lc)
        if not num:
            return TowerElement(self, {}, self._unit)
        _, num, den = _gcd(num, den)
        if den[max(den, key=self._print_key)] < 0:
            num, den = _neg(num), _neg(den)
        return TowerElement(self, num, den)

    def const(self, q) -> "TowerElement":
        q = Fraction(q)
        zero = next(iter(self._unit))
        return self._make({zero: q.numerator} if q else {},
                          {zero: q.denominator})

    def generator(self, name) -> "TowerElement":
        e = [0] * len(self.names)
        e[self.index[name]] = 1
        return TowerElement(self, {tuple(e): 1}, self._unit)

    def reduce(self, x) -> "TowerElement":
        """An element, int, Fraction or expression string as an element in
        normal form."""
        if isinstance(x, TowerElement) and x.ring is self:
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return self.const(x)
        if isinstance(x, str):
            return self.parse(x)
        raise NotExpressible(f"not an element of the tower: {x!r}")

    def _inverse(self, x) -> "TowerElement":
        algebraic = [i for i, _, _ in self._relations]
        if not any(e[i] for e in x.num for i in algebraic):
            return self._make(x.den, x.num)
        # solve (x.num)·y = 1 over ℚ(t…) in the monomial basis
        basis = self._basis
        at = {m: k for k, m in enumerate(basis)}
        rows = [{} for _ in basis]
        for k, m in enumerate(basis):
            col = self._make(_mul(x.num, {m: 1}), self._unit, reduce=True)
            for i, part in self._coords(col.num, algebraic).items():
                rows[at[i]][k] = self._make(part, col.den)
        rows[0][len(basis)] = self.const(1)
        pivots, reduced = rref_sparse(rows, len(basis) + 1)
        if pivots != list(range(len(basis))):
            raise NotExpressible(f"cannot invert {x}: the tower has zero "
                                 "divisors")
        out = self.const(0)
        for m, row in zip(basis, reduced):
            if len(basis) in row:
                out += row[len(basis)] * TowerElement(self, {m: 1}, self._unit)
        return out * TowerElement(self, x.den, self._unit)

    @staticmethod
    def _coords(num, algebraic):
        """num as {algebraic monomial: coefficient over ℤ[t…]}."""
        out = {}
        for e, c in num.items():
            mono = tuple(x if i in algebraic else 0 for i, x in enumerate(e))
            rest = tuple(0 if i in algebraic else x for i, x in enumerate(e))
            out.setdefault(mono, {})[rest] = c
        return out

    # -- the parser --------------------------------------------------------------

    def parse(self, text) -> "TowerElement":
        """Evaluate an expression in integers, the ring's generator names,
        + - * / ^ ** and parentheses; exponents are integers."""
        tokens, pos, end = [], 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"cannot parse {text!r}: unexpected "
                                 f"{text[pos:].strip()[:12]!r}")
            tokens.append("**" if m.group(1) == "^" else m.group(1))
            pos = m.end()
        tokens.append(None)
        parser = _Parser(self, tokens, text)
        try:
            value = parser.sum()
        except ZeroDivisionError as exc:
            raise ParseError(f"division by zero in {text!r}") from exc
        except RecursionError as exc:
            raise ParseError(f"{text[:40]!r}… is nested too deeply") from exc
        if tokens[parser.pos] is not None:
            raise ParseError(f"cannot parse {text!r}: unexpected "
                             f"{tokens[parser.pos]!r}")
        return value

    def render_poly(self, p) -> str:
        """sympy-style text: terms in lex order over the sorted names."""
        out = []
        for e, c in sorted(p.items(), key=lambda ec: self._print_key(ec[0]),
                           reverse=True):
            mono = "*".join(n if k == 1 else f"{n}**{k}"
                            for n, k in sorted(zip(self.names, e)) if k)
            body = mono if mono and abs(c) == 1 else \
                f"{abs(c)}*{mono}" if mono else str(abs(c))
            if not out:
                out.append("-" + body if c < 0 else body)
            else:
                out.append(("- " if c < 0 else "+ ") + body)
        return " ".join(out) or "0"


class _Parser:
    """Recursive descent over the tokens of one expression."""

    def __init__(self, ring, tokens, text):
        self.ring, self.tokens, self.text, self.pos = ring, tokens, text, 0

    def _take(self, *ops):
        if self.tokens[self.pos] in ops:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def sum(self):
        value = self.product()
        while (op := self._take("+", "-")) is not None:
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self):
        value = self.unary()
        while (op := self._take("*", "/")) is not None:
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        if self._take("-") is not None:
            return -self.unary()
        if self._take("+") is not None:
            return self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        if self._take("**") is None:
            return value
        exponent = self.unary()
        zero = next(iter(self.ring._unit))
        if exponent.den != self.ring._unit or any(map(any, exponent.num)):
            raise ParseError(f"exponent {exponent} in {self.text!r} is not "
                             "an integer")
        return value ** exponent.num.get(zero, 0)

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            value = self.sum()
            if self._take(")") is None:
                raise ParseError(f"cannot parse {self.text!r}: missing ')'")
            return value
        if tok is not None and tok.isdigit():
            try:
                return self.ring.const(int(tok))
            except ValueError as exc:  # more digits than int() accepts
                raise ParseError(f"integer too long in {self.text!r}") \
                    from exc
        if tok is not None and _NAME.fullmatch(tok):
            if tok not in self.ring.index:
                raise ParseError(f"unknown name {tok!r} in {self.text!r}")
            return self.ring.generator(tok)
        raise ParseError(f"cannot parse {self.text!r}: unexpected "
                         f"{'end' if tok is None else repr(tok)}")


class TowerElement:
    """An element num/den of a tower (or of a ring of rational functions)."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den):
        self.ring, self.num, self.den = ring, num, den

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            return other if other.ring is self.ring else None
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.ring._make(_add(self.num, other.num), self.den)
        return self.ring._make(
            _add(_capped_mul(self.num, other.den),
                 _capped_mul(other.num, self.den)),
            _capped_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.ring, _neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring._make(_capped_mul(self.num, other.num),
                               _capped_mul(self.den, other.den), reduce=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in the tower")
        return self * self.ring._inverse(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if abs(n) > DEGREE_CAP:
            raise SizeCap(f"an exponent above the cap {DEGREE_CAP}")
        if n == 0:
            return self.ring.const(1)
        base = out = 1 / self if n < 0 else self
        for bit in bin(abs(n))[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __str__(self):
        ring = self.ring
        num = ring.render_poly(self.num)
        if _is_one(self.den):
            return num
        den = ring.render_poly(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if len(self.den) > 1 or "*" in den.replace("**", ""):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"TowerElement({self})"


# -- field towers ------------------------------------------------------------------

class FieldTower(_Ring):
    """ℚ(t₁, …) with algebraic adjunctions, e.g. "t; s: s^2 = 1 - t^2"."""

    def __init__(self, spec: str):
        self.spec = spec.strip()
        names, relations = [], {}
        for part in self.spec.split(";"):
            part = part.strip()
            if not part:
                continue
            name, colon, eq = part.partition(":")
            name = name.strip()
            if not _NAME.fullmatch(name):
                raise ParseError(f"bad generator name {name!r} in {part!r}")
            if name in names:
                raise ParseError(f"generator {name!r} is declared twice")
            names.append(name)
            if colon:
                lhs, equals, rhs = eq.partition("=")
                if not equals:
                    raise ParseError(f"bad tower entry {part!r}")
                ring = _Ring(names)
                rel = ring.parse(lhs) - ring.parse(rhs)
                relations[name] = self._minimal_polynomial(
                    name, rel.num, [names.index(n) for n in relations])
        super().__init__(names)
        degrees = []
        for name, rel in relations.items():
            i = self.index[name]
            rel = {e + (0,) * (len(names) - len(e)): c for e, c in rel.items()}
            degrees.append((i, max(e[i] for e in rel)))
            self._relations.append((i, rel, _split(rel, i)[degrees[-1][1]]))
        if prod(d for _, d in degrees) > DEGREE_CAP:
            raise SizeCap(f"a tower of degree above {DEGREE_CAP} over its "
                          "transcendental generators")
        if len(degrees) > 1:
            self._check_field(degrees)
        self._basis = []
        for powers in product(*(range(d) for _, d in degrees)):
            e = [0] * len(names)
            for (i, _), k in zip(degrees, powers):
                e[i] = k
            self._basis.append(tuple(e))
        self.transcendentals = [n for n in names if n not in relations]
        self.algebraics = list(relations)
        self.symbols = {n: self.generator(n) for n in names}
        self._generators = {g: n for n, g in self.symbols.items()}
        self._dgen = {}

    @staticmethod
    def _minimal_polynomial(name, rel, algebraic):
        """The relation's numerator, primitive in `name`, once it is shown
        irreducible over ℚ(t…)."""
        i = len(next(iter(rel), ())) - 1
        degree = max((e[i] for e in rel), default=0)
        if degree < 1:
            raise ParseError(f"{name} does not appear in its relation")
        if any(e[j] for e in rel for j in range(i) if j in algebraic):
            raise NotExpressible(
                "nested algebraic adjunctions are not supported; rewrite "
                "the tower so each minimal polynomial uses only "
                "transcendental generators")
        _, rel = _content(rel, i)
        coeffs = _split(rel, i)
        if degree == 2:
            a, b, c = (coeffs.get(k, {}) for k in (2, 1, 0))
            if _is_rational_square(_sub(_mul(b, b), _scale(_mul(a, c), 4))):
                raise ParseError(f"relation for {name} is reducible")
        elif degree >= 3 and not _specialization_irreducible(coeffs, degree,
                                                             i):
            raise ParseError(
                f"relation for {name} is not shown irreducible: no "
                "specialization of its coefficients at small integers is "
                "irreducible of the same degree")
        return rel

    def _check_field(self, degrees):
        """Refuse two or more algebraic generators unless the tower is shown
        to be a field: by Kummer theory, no nonempty product of the quadratic
        generators' discriminants is a square in ℚ(t…), and every other
        generator has a degree coprime to the product of the others'."""
        total = prod(d for _, d in degrees)
        discs = []
        for (i, d), (_, rel, _) in zip(degrees, self._relations):
            if d == 2:
                a, b, c = (_split(rel, i).get(k, {}) for k in (2, 1, 0))
                discs.append((self.names[i],
                              _sub(_mul(b, b), _scale(_mul(a, c), 4))))
            elif gcd(d, total // d) != 1:
                raise ParseError(
                    f"the tower is not shown to be a field: the degree {d} "
                    f"of {self.names[i]} shares a factor with the product "
                    f"{total // d} of the other degrees")
        for mask in range(1, 1 << len(discs)):
            chosen = [discs[j] for j in range(len(discs)) if mask >> j & 1]
            p = self._unit
            for _, disc in chosen:
                p = _capped_mul(p, disc)
            if _is_rational_square(p):
                raise ParseError(
                    "the tower is not shown to be a field: the product of "
                    "the discriminants of "
                    f"{', '.join(n for n, _ in chosen)} is a square")

    # -- elements ---------------------------------------------------------------

    def name_of(self, g) -> str:
        """The name of a generator given as a name or as an element."""
        name = g if isinstance(g, str) else self._generators.get(g)
        if name not in self.index:
            raise NotExpressible(f"unknown generator {g}")
        return name

    # -- differentials ---------------------------------------------------------

    def _partial(self, x, i) -> TowerElement:
        dnum, dden = _diff(x.num, i), _diff(x.den, i)
        if not dden:
            return self._make(dnum, x.den)
        return self._make(
            _sub(_capped_mul(dnum, x.den), _capped_mul(x.num, dden)),
            _capped_mul(x.den, x.den))

    def dgen(self, g) -> "KahlerElement":
        """d of a generator, expressed over the transcendental dt's."""
        name = self.name_of(g)
        if name in self.transcendentals:
            return KahlerElement(self, {name: 1})
        if name not in self._dgen:
            i, rel, _ = next(r for r in self._relations
                             if r[0] == self.index[name])
            partials = [self._make(_diff(rel, j), self._unit, reduce=True)
                        for j in range(len(self.names))]
            self._dgen[name] = KahlerElement(self, {
                t: -partials[self.index[t]] / partials[i]
                for t in self.transcendentals})
        return self._dgen[name]

    def differential(self, x) -> "KahlerElement":
        """d(x) = Σ (∂x/∂g)·dg over all generators."""
        x = self.reduce(x)
        out = KahlerElement(self, {})
        for i, name in enumerate(self.names):
            part = self._partial(x, i)
            if part:
                out = out + self.dgen(name).scaled(part)
        return out

    def __repr__(self):
        return f"FieldTower({self.spec!r})"


def _specialization_irreducible(coeffs, degree, i) -> bool:
    """Whether the relation Σ coeffs[k]·s^k is irreducible at some point t
    of small integers where its leading coefficient does not vanish: then it
    is irreducible over ℚ(t) (Gauss's lemma)."""
    free = sorted({j for part in coeffs.values() for e in part
                   for j, x in enumerate(e) if x and j != i})
    values = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    points = (p for m in range(1, len(values) + 1)
              for p in product(values[:m], repeat=len(free))
              if m == 1 or values[m - 1] in p)
    for point in islice(points, 64):
        at = dict(zip(free, point))

        def value(part):
            return sum(c * prod(at[j] ** x for j, x in enumerate(e) if x)
                       for e, c in part.items())
        spec = [value(coeffs.get(k, {})) for k in range(degree + 1)]
        if spec[-1] == 0:
            continue
        factors = factor(spec)
        if len(factors) == 1 and len(factors[0]) == degree + 1:
            return True
    return False


class KahlerElement:
    """Σ f_t · dt over the transcendental generators of a tower."""

    def __init__(self, tower: FieldTower, coefficients: dict):
        self.tower = tower
        self.coefficients = {}
        for g, c in coefficients.items():
            c = tower.reduce(c)
            if c:
                self.coefficients[tower.name_of(g)] = c

    def __add__(self, other):
        out = dict(self.coefficients)
        for name, c in other.coefficients.items():
            out[name] = out[name] + c if name in out else c
        return KahlerElement(self.tower, out)

    def scaled(self, factor):
        factor = self.tower.reduce(factor)
        return KahlerElement(
            self.tower,
            {name: factor * c for name, c in self.coefficients.items()})

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        return isinstance(other, KahlerElement) and (self - other).is_zero()

    def render(self) -> str:
        if not self.coefficients:
            return "0"
        return " + ".join(f"({c})*d{name}"
                          for name, c in sorted(self.coefficients.items()))

    def to_json(self):
        return {f"d{name}": str(c)
                for name, c in sorted(self.coefficients.items())}

    def __repr__(self):
        return f"KahlerElement({self.render()})"


# -- the tensor-to-differential map -------------------------------------------

def phi_map(terms, tower: FieldTower) -> KahlerElement:
    """Σ ℓ · d(cos θ)/sin θ over formal (length, cos, sin) tower terms.

    Terms whose cos is algebraic over ℚ contribute 0 (their differential
    vanishes); these may omit the sin entry.  Otherwise sin must be a tower
    element with sin² = 1 − cos² exactly.
    """
    out = KahlerElement(tower, {})
    for term in terms:
        if len(term) == 3:
            length, cos, sin = term
        else:
            length, cos = term
            sin = None
        length = tower.reduce(length)
        cos = tower.reduce(cos)
        dcos = tower.differential(cos)
        if dcos.is_zero():
            continue
        if sin is None:
            raise NotExpressible(
                f"term with non-constant cos {cos} needs an explicit sin")
        sin = tower.reduce(sin)
        if sin * sin != 1 - cos * cos:
            raise NotExpressible("sin² != 1 − cos² in the tower")
        out = out + dcos.scaled(length / sin)
    return out


def phi_of_tensor(tensor, tower: FieldTower, embedding: dict) -> KahlerElement:
    """Adapter from a normalized length⊗angle tensor.

    embedding maps term index -> (cos expr, sin expr) tower strings; terms
    without an embedding have algebraic cos over ℚ and contribute 0.
    """
    from .algebraic import as_scalar
    terms = []
    for idx, (length, _angle) in enumerate(tensor.pairs()):
        if idx not in embedding:
            continue  # algebraic cos: d vanishes
        cos_expr, sin_expr = embedding[idx]
        length = as_scalar(length)
        if not isinstance(length, Fraction):
            raise NotExpressible(
                "irrational lengths must be embedded explicitly")
        terms.append((length, cos_expr, sin_expr))
    return phi_map(terms, tower)


# -- presented commutative algebras ------------------------------------------------
#
# Buchberger's algorithm over ℤ in grevlex, x₁ > x₂ > … (Cox, Little and
# O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2).  A basis is a list of
# (leading exponent, polynomial) pairs, each polynomial primitive with a
# positive leading coefficient, and normal forms are taken fraction-free.

# More than PAIR_CAP S-pairs reduced, or a polynomial of degree above
# DEGREE_CAP, raise SizeCap.
PAIR_CAP = DEGREE_CAP ** 2


def _grevlex(e):
    """The sort key of an exponent tuple in grevlex order."""
    return sum(e), tuple(-x for x in reversed(e))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _times(g, lead, e, c):
    """c·x^(e − lead)·g."""
    return _capped_mul(g, {tuple(y - x for x, y in zip(lead, e)): c})


def _reduce(p, basis):
    """(k, r): a positive integer k and a polynomial r ≡ k·p modulo the ideal
    of `basis`, no term of r divisible by a leading exponent of `basis`."""
    k, r, p = 1, {}, dict(p)
    while p:
        e = max(p, key=_grevlex)
        for lead, g in basis:
            if _divides(lead, e):
                q = gcd(p[e], g[lead])
                a = g[lead] // q
                p = _sub(_scale(p, a), _times(g, lead, e, p[e] // q))
                if a != 1:
                    k, r = k * a, _scale(r, a)
                break
        else:
            r[e] = p.pop(e)
    q = gcd(k, *r.values())
    return k // q, {e: c // q for e, c in r.items()}


def _groebner(polys):
    """The reduced Gröbner basis of the ideal of `polys`, in decreasing
    order of leading exponents, by Buchberger's algorithm with the product
    and chain criteria."""
    basis, pairs, reduced = [], set(), 0

    def extend(p):
        _, r = _reduce(p, basis)
        if r:
            lead = max(r, key=_grevlex)
            pairs.update((i, len(basis)) for i in range(len(basis)))
            basis.append((lead, _primitive(r, r[lead])))

    def lcm(pair):
        return tuple(map(max, basis[pair[0]][0], basis[pair[1]][0]))

    for p in polys:
        extend(p)
    while pairs:
        i, j = pair = min(pairs, key=lambda pair: _grevlex(lcm(pair)))
        pairs.remove(pair)
        (li, fi), (lj, fj), top = basis[i], basis[j], lcm(pair)
        if not any(x and y for x, y in zip(li, lj)) or any(
                _divides(lk, top) and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
                for k, (lk, _) in enumerate(basis) if k not in pair):
            continue
        reduced += 1
        if reduced > PAIR_CAP:
            raise SizeCap(f"a Gröbner basis of more than {PAIR_CAP} S-pairs")
        q = gcd(fi[li], fj[lj])
        extend(_sub(_times(fi, li, top, fj[lj] // q),
                    _times(fj, lj, top, fi[li] // q)))
    minimal = [(l, g) for n, (l, g) in enumerate(basis)
               if not any(_divides(m, l) and (m != l or k < n)
                          for k, (m, _) in enumerate(basis) if k != n)]
    out = []
    for l, g in minimal:
        _, r = _reduce(g, [b for b in minimal if b[0] != l])
        out.append((l, _primitive(r, r[l])))
    return sorted(out, key=lambda b: _grevlex(b[0]), reverse=True)


class PresentedAlgebra:
    """ℚ[x₁..x_m]/(f₁..f_r), finite-dimensional, with the standard monomials
    of its reduced Gröbner basis `groebner` as its basis."""

    def __init__(self, gens, relations):
        self.gens = list(gens)
        ring = _Ring(self.gens)
        self.relations = []
        for text in relations:
            value = ring.parse(text)
            if not _is_constant(value.den):
                raise ParseError(f"relation {text!r} is not a polynomial")
            if value.num:
                self.relations.append(value.num)
        self.groebner = _groebner(self.relations)
        leads = [lead for lead, _ in self.groebner]
        caps = []
        for i, name in enumerate(self.gens):
            powers = [e[i] for e in leads if e[i] and sum(e) == e[i]]
            if not powers:
                raise NotFiniteDimensional(
                    f"no pure power of {name} among leading terms")
            caps.append(min(powers))
        label = {e: ring.render_poly({e: 1})
                 for e in product(*map(range, caps))
                 if not any(_divides(lead, e) for lead in leads)}
        # sorted by degree, then label, so the unit comes first
        self.basis = sorted(label, key=lambda e: (sum(e), label[e]))
        self.labels = [label[e] for e in self.basis]
        self.index = {e: i for i, e in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, p) -> dict:
        """An integer polynomial's coordinates over ℚ in `basis`."""
        k, r = _reduce(p, self.groebner)
        return {self.index[e]: Fraction(c, k) for e, c in r.items()}

    def structure_algebra(self):
        """The quotient as a structure-constant algebra (unit first)."""
        from .hochschild import FiniteDimAlgebra
        table = [[self.coords(_mul({a: 1}, {b: 1})) for b in self.basis]
                 for a in self.basis]
        return FiniteDimAlgebra(self.dim, table, labels=self.labels,
                                name="presented")

    def kahler_dim(self) -> int:
        """dim_ℚ Ω¹ = m·dim(A) − rank{u·∂f_j/∂x_i : u basis, j}."""
        m = len(self.gens)
        rows = []
        for rel in self.relations:
            grads = [_diff(rel, i) for i in range(m)]
            for u in self.basis:
                row = {i * self.dim + pos: v
                       for i, grad in enumerate(grads)
                       for pos, v in self.coords(_mul({u: 1}, grad)).items()}
                if row:
                    rows.append(row)
        return m * self.dim - rank_sparse(rows, m * self.dim)


def kahler_presented(gens, relations):
    """(PresentedAlgebra, dim Ω¹) for ℚ[gens]/(relations)."""
    alg = PresentedAlgebra(gens, relations)
    return alg, alg.kahler_dim()


def hkr_degree1_check(gens, relations) -> bool:
    """dim HH₁ of the structure-constant algebra equals dim Ω¹."""
    from .hochschild import hochschild_homology
    alg, omega_dim = kahler_presented(gens, relations)
    hh1 = hochschild_homology(alg.structure_algebra(), 1)
    return hh1 == omega_dim
