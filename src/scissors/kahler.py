"""Kähler differentials: presented commutative algebras and field towers.

A tower is an ordered list of generators, each either transcendental or
algebraic with an irreducible minimal polynomial over the part of the tower
already built.  Elements are sympy expressions reduced modulo the algebraic
relations; division goes through exact linear algebra over the rational
function field.  The universal differential kills everything algebraic over
ℚ and is determined on algebraic generators by differentiating their minimal
polynomials, so d lands in the free module on the transcendental symbols.
"""

from fractions import Fraction
from tokenize import TokenError

import sympy
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

from .linalg import rank_sparse
from .numbers import ParseError

_TRANSFORMS = standard_transformations + (convert_xor,)


def _parse(text, local_dict):
    """parse_expr, with malformed text raised as ParseError."""
    try:
        return parse_expr(text, local_dict=local_dict,
                          transformations=_TRANSFORMS)
    except (SyntaxError, TokenError, TypeError) as exc:
        raise ParseError(f"cannot parse {text!r}") from exc


class NotExpressible(ParseError):
    """An input the tower cannot express (an input error, exit 2)."""


class NotFiniteDimensional(ParseError):
    """A presented algebra that is not finite-dimensional (exit 2)."""


class FieldTower:
    """ℚ(t₁, …) with algebraic adjunctions, e.g. "t; s: s^2 = 1 - t^2"."""

    def __init__(self, spec: str):
        self.spec = spec.strip()
        self.transcendentals = []
        self.algebraics = []  # (symbol, minpoly expr in lower gens + itself)
        self.symbols = {}
        for part in self.spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                name, eq = part.split(":", 1)
                name = name.strip()
                sym = sympy.Symbol(name)
                if "=" not in eq:
                    raise ParseError(f"bad tower entry {part!r}")
                lhs, rhs = eq.split("=", 1)
                known = dict(self.symbols)
                known[name] = sym
                try:
                    rel = (_parse(lhs, known) - _parse(rhs, known))
                except (ParseError, TypeError) as exc:
                    raise ParseError(f"bad tower entry {part!r}") from exc
                rel = sympy.expand(rel)
                poly = sympy.Poly(rel, sym)
                if poly.degree() < 1:
                    raise ParseError(f"{name} does not appear in its relation")
                self._check_irreducible(rel, sym)
                self.symbols[name] = sym
                self.algebraics.append((sym, rel, poly.degree()))
            else:
                name = part
                sym = sympy.Symbol(name)
                self.symbols[name] = sym
                self.transcendentals.append(sym)
        self._monomials = self._monomial_basis()

    def _check_irreducible(self, rel, sym):
        # Gauss-lemma style check: factor the defining polynomial as a
        # multivariate polynomial over ℚ and require a single factor with
        # positive degree in the new generator.  Complete for adjunctions
        # whose minimal polynomial has no earlier algebraic generators.
        uses_algebraic = any(a in rel.free_symbols
                             for a, _, _ in self.algebraics)
        _, factors = sympy.factor_list(rel)
        proper = [f for f, _ in factors
                  if sympy.Poly(f, sym).degree() >= 1]
        mults = [m for f, m in factors if sympy.Poly(f, sym).degree() >= 1]
        if len(proper) != 1 or mults != [1]:
            raise ParseError(f"relation for {sym} is reducible")
        if uses_algebraic:
            raise NotExpressible(
                "nested algebraic adjunctions are not supported; rewrite "
                "the tower so each minimal polynomial uses only "
                "transcendental generators")

    def _monomial_basis(self):
        basis = [sympy.Integer(1)]
        for sym, _rel, deg in self.algebraics:
            basis = [b * sym ** k for k in range(deg) for b in basis]
        return basis

    # -- element arithmetic -------------------------------------------------

    def parse(self, text_or_expr):
        if isinstance(text_or_expr, str):
            try:
                expr = _parse(text_or_expr, dict(self.symbols))
            except ParseError as exc:
                raise NotExpressible(
                    f"cannot parse {text_or_expr!r}") from exc
        else:
            expr = sympy.sympify(text_or_expr)
        bad = expr.free_symbols - set(self.symbols.values())
        if bad:
            raise NotExpressible(f"unknown symbols {bad}")
        return self.reduce(expr)

    def reduce(self, expr):
        """Canonical form: algebraic powers rewritten by their relations."""
        expr = sympy.together(sympy.expand(expr))
        num, den = sympy.fraction(expr)
        num = self._reduce_poly(num)
        den = self._reduce_poly(den)
        if den == 0:
            raise ZeroDivisionError("division by zero in tower")
        if num == 0:
            return sympy.Integer(0)
        quotient = self._divide(num, den)
        return quotient

    def _reduce_poly(self, expr):
        expr = sympy.expand(expr)
        for sym, rel, deg in reversed(self.algebraics):
            poly = sympy.Poly(expr, sym)
            rel_poly = sympy.Poly(rel, sym)
            expr = sympy.expand(sympy.rem(poly, rel_poly).as_expr())
        return expr

    def _coords(self, expr):
        """Coordinates of a reduced polynomial over the monomial basis."""
        rest = sympy.expand(expr)
        syms = [s for s, _, _ in self.algebraics]
        if not syms:
            return {0: sympy.cancel(rest)}
        poly = sympy.Poly(rest, *syms)
        coords = {}
        for monom, coeff in poly.terms():
            stride = 1
            pos = 0
            for (_sym, _rel, deg), power in zip(self.algebraics, monom):
                pos += stride * power
                stride *= deg
            coords[pos] = sympy.cancel(coeff)
        return coords

    def _divide(self, num, den):
        """num/den with den inverted by linear algebra over ℚ(t…)."""
        syms = [s for s, _, _ in self.algebraics]
        if not syms:
            return sympy.cancel(num / den)
        n = len(self._monomials)
        # multiplication-by-den matrix in the monomial basis
        cols = []
        for mono in self._monomials:
            prod = self._reduce_poly(sympy.expand(den * mono))
            cols.append(self._coords(prod))
        M = sympy.zeros(n, n)
        for j, col in enumerate(cols):
            for i, v in col.items():
                M[i, j] = v
        target = sympy.zeros(n, 1)
        for i, v in self._coords(self._reduce_poly(num)).items():
            target[i, 0] = v
        try:
            sol = M.LUsolve(target)
        except Exception as exc:
            raise NotExpressible(f"cannot invert {den}") from exc
        out = sympy.Integer(0)
        for i, mono in enumerate(self._monomials):
            out += sympy.cancel(sol[i, 0]) * mono
        return sympy.expand(out)

    def is_zero(self, expr) -> bool:
        return sympy.simplify(self.reduce(expr)) == 0

    def equal(self, a, b) -> bool:
        return self.is_zero(sympy.expand(a - b))

    # -- differentials ---------------------------------------------------------

    def dgen(self, sym) -> "KahlerElement":
        """d of a generator, expressed over the transcendental dt's."""
        if sym in self.transcendentals:
            return KahlerElement(self, {sym: sympy.Integer(1)})
        for s, rel, _deg in self.algebraics:
            if s == sym:
                dp_ds = sympy.diff(rel, s)
                out = KahlerElement(self, {})
                for t in self.transcendentals:
                    c = sympy.diff(rel, t)
                    if c != 0:
                        out = out + KahlerElement(
                            self, {t: self.reduce(-c / dp_ds)})
                return out
        raise NotExpressible(f"unknown generator {sym}")

    def differential(self, expr) -> "KahlerElement":
        """d(expr) = Σ (∂expr/∂g)·dg over all generators, reduced."""
        expr = self.reduce(expr)
        out = KahlerElement(self, {})
        for name, sym in self.symbols.items():
            part = sympy.diff(expr, sym)
            if part == 0:
                continue
            dg = self.dgen(sym)
            out = out + dg.scaled(self.reduce(part))
        return out

    def __repr__(self):
        return f"FieldTower({self.spec!r})"


class KahlerElement:
    """Σ f_t · dt over the transcendental generators of a tower."""

    def __init__(self, tower: FieldTower, coefficients: dict):
        self.tower = tower
        self.coefficients = {}
        for sym, c in coefficients.items():
            c = tower.reduce(c)
            if not tower.is_zero(c):
                self.coefficients[sym] = c

    def __add__(self, other):
        out = dict(self.coefficients)
        for sym, c in other.coefficients.items():
            out[sym] = out.get(sym, sympy.Integer(0)) + c
        return KahlerElement(self.tower, out)

    def scaled(self, factor):
        return KahlerElement(
            self.tower,
            {sym: factor * c for sym, c in self.coefficients.items()})

    def __neg__(self):
        return self.scaled(sympy.Integer(-1))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        return isinstance(other, KahlerElement) and (self - other).is_zero()

    def render(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for sym in sorted(self.coefficients, key=str):
            c = sympy.simplify(self.coefficients[sym])
            parts.append(f"({c})*d{sym}")
        return " + ".join(parts)

    def to_json(self):
        return {f"d{sym}": str(sympy.simplify(c))
                for sym, c in sorted(self.coefficients.items(), key=str)}

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
        length = tower.parse(length) if not isinstance(length, (int, Fraction)) \
            else sympy.Rational(length)
        cos = tower.parse(cos)
        dcos = tower.differential(cos)
        if dcos.is_zero():
            continue
        if sin is None:
            raise NotExpressible(
                f"term with non-constant cos {cos} needs an explicit sin")
        sin = tower.parse(sin)
        if not tower.is_zero(sin * sin - (1 - cos * cos)):
            raise NotExpressible("sin² != 1 − cos² in the tower")
        inv_sin = tower.reduce(1 / sin)
        out = out + dcos.scaled(tower.reduce(length * inv_sin))
    return out


def phi_of_tensor(tensor, tower: FieldTower, embedding: dict) -> KahlerElement:
    """Adapter from a normalized length⊗angle tensor.

    embedding maps term index -> (cos expr, sin expr) tower strings; terms
    without an embedding have algebraic cos over ℚ and contribute 0.
    """
    from .algebraic import as_scalar
    terms = []
    for idx, (length, _angle) in enumerate(tensor.terms):
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

class PresentedAlgebra:
    """ℚ[x₁..x_m]/(f₁..f_r), finite-dimensional, via a Gröbner basis."""

    def __init__(self, gens, relations):
        self.gens = [sympy.Symbol(g) if isinstance(g, str) else g
                     for g in gens]
        local = {str(g): g for g in self.gens}
        self.relations = []
        for rel in relations:
            if isinstance(rel, str):
                rel = _parse(rel, local)
            self.relations.append(sympy.expand(rel))
        if self.relations:
            self.groebner = sympy.groebner(self.relations, *self.gens,
                                           order="grevlex")
        else:
            self.groebner = None
        self.basis = self._monomial_basis()
        self.index = {m: i for i, m in enumerate(self.basis)}

    def _leading_monomials(self):
        if self.groebner is None:
            return []
        return [sympy.Poly(g, *self.gens).LM(order="grevlex")
                for g in self.groebner.exprs]

    def _monomial_basis(self):
        lms = self._leading_monomials()
        lm_exps = [sympy.Poly(m.as_expr(), *self.gens).monoms()[0]
                   for m in lms] if lms else []
        m = len(self.gens)
        caps = []
        for i in range(m):
            cap = None
            for e in lm_exps:
                if e[i] > 0 and all(e[j] == 0 for j in range(m) if j != i):
                    cap = e[i] if cap is None else min(cap, e[i])
            if cap is None:
                raise NotFiniteDimensional(
                    f"no pure power of {self.gens[i]} among leading terms")
            caps.append(cap)

        def divisible(e, lead):
            return all(a >= b for a, b in zip(e, lead))

        out = []
        from itertools import product as iproduct
        for exps in iproduct(*(range(c) for c in caps)):
            if any(divisible(exps, lead) for lead in lm_exps):
                continue
            mono = sympy.Integer(1)
            for g, e in zip(self.gens, exps):
                mono *= g ** e
            out.append(sympy.expand(mono))
        # sort with 1 first for the structure-constant algebra
        out.sort(key=lambda mo: (sympy.Poly(mo, *self.gens).total_degree(),
                                 str(mo)))
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, expr):
        expr = sympy.expand(expr)
        if self.groebner is None:
            return expr
        return self.groebner.reduce(expr)[1]

    def coords(self, expr) -> dict:
        nf = sympy.expand(self.normal_form(expr))
        poly = sympy.Poly(nf, *self.gens)
        out = {}
        for monom, coeff in poly.terms():
            mono = sympy.Integer(1)
            for g, e in zip(self.gens, monom):
                mono *= g ** e
            mono = sympy.expand(mono)
            if mono not in self.index:
                raise NotFiniteDimensional(
                    f"normal form escapes the monomial basis: {mono}")
            out[self.index[mono]] = Fraction(coeff.p, coeff.q)
        return out

    def structure_algebra(self):
        """The quotient as a structure-constant algebra (unit first)."""
        from .hochschild import FiniteDimAlgebra
        table = []
        for a in self.basis:
            row = []
            for b in self.basis:
                row.append(self.coords(a * b))
            table.append(row)
        return FiniteDimAlgebra(self.dim, table,
                                labels=[str(mo) for mo in self.basis],
                                name="presented")

    def kahler_dim(self) -> int:
        """dim_ℚ Ω¹ = m·dim(A) − rank{u·∂f_j/∂x_i : u basis, j}."""
        m = len(self.gens)
        rows = []
        for rel in self.relations:
            grads = [sympy.diff(rel, g) for g in self.gens]
            for u in self.basis:
                row = {}
                for i, grad in enumerate(grads):
                    for pos, v in self.coords(u * grad).items():
                        col = i * self.dim + pos
                        nv = row.get(col, Fraction(0)) + v
                        if nv:
                            row[col] = nv
                        elif col in row:
                            del row[col]
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
