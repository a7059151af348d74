from fractions import Fraction

import pytest

from scissors.kahler import (
    FieldTower,
    KahlerElement,
    NotExpressible,
    NotFiniteDimensional,
    PresentedAlgebra,
    hkr_degree1_check,
    kahler_presented,
    phi_map,
)
from scissors.numbers import ParseError
from scissors.rng import SplitMix64
from oracles import tower_equal, tower_is_zero


def test_tower_parse_and_reduce():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    s, t = T.symbols["s"], T.symbols["t"]
    assert T.reduce(s ** 2) == 1 - t ** 2
    assert tower_is_zero(T, s * s + t * t - 1)


def test_tower_division():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    s = T.symbols["s"]
    inv = T.reduce(1 / s)
    assert tower_is_zero(T, inv * s - 1)


def test_tower_rejects_reducible():
    with pytest.raises(ParseError):
        FieldTower("t; s: s^2 = t^2")  # s² − t² factors


def test_tower_of_several_generators_must_be_a_field():
    # b − 2a and b + 2a are nonzero and multiply to 0 in ℚ(t)(√2)(√8), and
    # the other rejected towers fail the Kummer or the degree test
    for spec in ("t; a: a^2 = 2; b: b^2 = 8",
                 "t; a: a^2 = t; b: b^2 = 2; c: c^2 = 2*t",
                 "t; a: a^2 = 2; c: c^4 = t"):
        with pytest.raises(ParseError, match="not shown to be a field"):
            FieldTower(spec)
    for spec in ("t; a: a^2 = 2; b: b^2 = 3", "t; a: a^2 = 2; c: c^3 = t",
                 "t; u; a: a^2 = t; b: b^2 = u"):
        T = FieldTower(spec)
        x = T.parse(f"{T.algebraics[1]} - 2*a")
        assert tower_equal(T, x * (1 / x), T.parse("1"))


def test_differential_of_constants_and_algebraics():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    assert T.differential(Fraction(1, 3)).is_zero()
    # algebraic over ℚ dies: adjoin r with r² = 2 in its own tower
    T2 = FieldTower("u; r: r^2 = 2")
    assert T2.differential(T2.symbols["r"]).is_zero()
    assert not T2.differential(T2.symbols["u"]).is_zero()


def test_euler_identity():
    # s·ds + t·dt = 0 in the circle tower
    T = FieldTower("t; s: s^2 = 1 - t^2")
    s, t = T.symbols["s"], T.symbols["t"]
    lhs = T.differential(s).scaled(s) + T.differential(t).scaled(t)
    assert lhs.is_zero()


def test_ds_formula():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    s, t = T.symbols["s"], T.symbols["t"]
    ds = T.differential(s)
    want = KahlerElement(T, {t: T.reduce(-t / s)})
    assert ds == want


def test_phi_formula_single_term():
    # ℓ⊗θ with cos θ = t ↦ (ℓ/s)·dt
    T = FieldTower("t; s: s^2 = 1 - t^2")
    t = T.symbols["t"]
    out = phi_map([(1, "t", "s")], T)
    want = KahlerElement(T, {t: T.reduce(1 / T.symbols["s"])})
    assert out == want


def test_phi_algebraic_cos_vanishes():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    out = phi_map([(5, "1/3")], T)
    assert out.is_zero()


def test_phi_requires_consistent_sin():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    with pytest.raises(NotExpressible):
        phi_map([(1, "t", "t")], T)


def test_presented_x_squared():
    alg, omega = kahler_presented(["x"], ["x**2"])
    assert alg.dim == 2
    assert omega == 1


def test_presented_x_cubed():
    alg, omega = kahler_presented(["x"], ["x**3"])
    assert alg.dim == 3
    assert omega == 2


def test_presented_separable():
    alg, omega = kahler_presented(["x"], ["x**2 - 2"])
    assert alg.dim == 2
    assert omega == 0


def test_presented_gaussian():
    alg, omega = kahler_presented(["x"], ["x**2 + 1"])
    assert omega == 0


def test_presented_multivariate():
    # relations 2x dx, 2y dy, x dy + y dx have rank 3 inside A·dx ⊕ A·dy
    alg, omega = kahler_presented(["x", "y"], ["x**2", "x*y", "y**2"])
    assert alg.dim == 3  # 1, x, y
    assert omega == 3


def test_not_finite_dimensional():
    with pytest.raises(NotFiniteDimensional):
        kahler_presented(["x", "y"], ["x*y"])


def test_hkr_corpus():
    # the corpus of `verify hkr`; each reduced basis is also sympy's
    import sympy

    corpus = [
        (["x"], ["x**2"]),
        (["x"], ["x**3"]),
        (["x"], ["x**2 - 2"]),
        (["x"], ["x**2 + 1"]),
        (["x"], ["x**4"]),
        (["x"], ["x**2 - x"]),
        (["x", "y"], ["x**2", "x*y", "y**2"]),
    ]
    for gens, rels in corpus:
        assert hkr_degree1_check(gens, rels), (gens, rels)
        syms = sympy.symbols(gens)
        ideal = [sympy.sympify(r, locals=dict(zip(gens, syms))) for r in rels]
        assert _monic(PresentedAlgebra(gens, rels).groebner) == \
            _sympy_monic(sympy.groebner(ideal, *syms, order="grevlex")), rels


def test_structure_algebra_roundtrip():
    alg = PresentedAlgebra(["x"], ["x**2 - x"])  # ℚ×ℚ
    A = alg.structure_algebra()
    assert A.dim == 2
    from scissors.hochschild import hochschild_homology_table
    assert hochschild_homology_table(A, 1) == [2, 0]


# -- Gröbner bases against sympy ------------------------------------------------

def _monic(basis):
    """A basis of (lead, integer polynomial) pairs as monic polynomials."""
    return {frozenset((e, Fraction(c, p[lead])) for e, c in p.items())
            for lead, p in basis}


def _sympy_monic(basis):
    """A sympy Gröbner basis in grevlex as monic polynomials."""
    import sympy

    out = set()
    for g in basis.polys:
        lc = sympy.Rational(g.LC(order="grevlex"))
        out.add(frozenset((e, Fraction(str(sympy.Rational(c) / lc)))
                          for e, c in g.as_dict().items()))
    return out


def test_reduced_bases_match_sympy_on_zero_dimensional_ideals():
    # n or n + 1 random polynomials in 1-3 variables, each vanishing at one
    # seeded integer point, so the ideal is never the unit ideal; sympy says
    # which are zero-dimensional, and they are most
    import sympy

    from scissors.kahler import _groebner

    zero_dimensional = 0
    for case in range(150):
        rng = SplitMix64.stream(2601, case)
        n = 1 + case % 3
        xs = sympy.symbols(f"x:{n}")
        point = [rng.randint(-2, 2) for _ in range(n)]
        polys = []
        for _ in range(n + rng.randint(0, 1)):
            expr = 0
            for _ in range(rng.randint(2, 4)):
                mono = 1
                for _ in range(rng.randint(1, 3 if n < 3 else 2)):
                    i = rng.randint(0, n - 1)
                    mono *= xs[i] - point[i]
                expr += (rng.randint(-3, 3) or 1) * mono
            p = sympy.Poly(expr, *xs)
            if not p.is_zero:
                polys.append({e: int(c) for e, c in p.as_dict().items()})
        theirs = sympy.groebner([sympy.Poly.from_dict(p, *xs) for p in polys],
                                *xs, order="grevlex")
        zero_dimensional += theirs.is_zero_dimensional
        assert _monic(_groebner(polys)) == _sympy_monic(theirs), case
    assert zero_dimensional >= 120


def test_groebner_caps_raise_size_cap(monkeypatch):
    from scissors import kahler
    from scissors.errors import SizeCap

    # the S-polynomial of x⁴⁰y and xy⁴⁰ has degree 80
    with pytest.raises(SizeCap):
        PresentedAlgebra(["x", "y"], ["x^40*y - 1", "x*y^40 - 1"])
    # (x², xy) and (xy, y²) are the two S-pairs that neither criterion drops
    monkeypatch.setattr(kahler, "PAIR_CAP", 2)
    assert PresentedAlgebra(["x", "y"], ["x^2", "x*y", "y^2"]).dim == 3
    monkeypatch.setattr(kahler, "PAIR_CAP", 1)
    with pytest.raises(SizeCap):
        PresentedAlgebra(["x", "y"], ["x^2", "x*y", "y^2"])


def test_presented_algebra_rejects_a_rational_function():
    with pytest.raises(ParseError):
        PresentedAlgebra(["x"], ["1/x"])
    # a constant denominator only scales the relation
    assert PresentedAlgebra(["x"], ["x^2/2 - 1"]).labels == ["1", "x"]


# -- seeded properties against sympy -------------------------------------------

# (spec, relation as an expression that vanishes in the tower)
_TOWERS = [
    ("t; s: s^2 = 1 - t^2", "s**2 + t**2 - 1"),
    ("t; u; s: s^2 = t^2 + u", "s**2 - t**2 - u"),
    ("t; c: c^3 = t + 2", "c**3 - t - 2"),
    ("t; u; c: t*c^3 = u - c", "t*c**3 + c - u"),
]


def _oracle(spec, relation):
    """The tower, and sympy's view of it: a quotient of polynomials is a
    pair (P, Q) of sympy Polys with the algebraic generator first, and it
    vanishes when the pseudo-remainder of P by the relation does."""
    import sympy

    T = FieldTower(spec)
    syms = {name: sympy.Symbol(name) for name in T.names}
    gens = [syms[name] for name in T.algebraics + T.transcendentals]
    rel = sympy.Poly(sympy.sympify(relation, locals=syms), *gens)

    def poly(text):
        return sympy.Poly(sympy.sympify(text, locals=syms), *gens)

    def vanishes(pq):
        return pq[0].prem(rel).is_zero

    def rendered(x):
        """Our rendering of x, read by sympy."""
        num, den = sympy.fraction(sympy.sympify(str(x), locals=syms))
        return poly(num), poly(den)

    return T, poly, vanishes, rendered


def _random_poly(rng, T, terms=3):
    parts = []
    for _ in range(rng.randint(1, terms)):
        coeff = rng.randint(-3, 3) or 1
        mono = [f"{name}**{rng.randint(0, 2 if name in T.transcendentals else 3)}"
                for name in T.names]
        parts.append("*".join([str(coeff)] + mono))
    return " + ".join(parts)


def _random_element(rng, T, poly, vanishes):
    """((P, Q), element) of a random quotient P/Q, nonzero in the tower."""
    one = poly("1")
    while True:
        num, den = _random_poly(rng, T), _random_poly(rng, T, 2)
        if not vanishes((poly(num), one)) and not vanishes((poly(den), one)):
            return (poly(num), poly(den)), T.parse(f"({num})/({den})")


@pytest.mark.parametrize("spec,relation", _TOWERS)
def test_tower_arithmetic_matches_sympy(spec, relation):
    T, poly, vanishes, rendered = _oracle(spec, relation)

    def minus(a, b):
        return a[0] * b[1] - b[0] * a[1], a[1] * b[1]

    for case in range(6):
        rng = SplitMix64.stream(1101, case)
        (xq, x), (yq, y) = (_random_element(rng, T, poly, vanishes)
                            for _ in range(2))
        for ours, want in ((x, xq),
                           (x + y, (xq[0] * yq[1] + yq[0] * xq[1],
                                    xq[1] * yq[1])),
                           (x * y, (xq[0] * yq[0], xq[1] * yq[1])),
                           (x / y, (xq[0] * yq[1], xq[1] * yq[0])),
                           (1 / y, (yq[1], yq[0]))):
            # the rendered normal form is the value sympy computes
            assert vanishes(minus(rendered(ours), want)), (spec, case, ours)
            # and it is reduced: each algebraic degree below its relation's
            assert all(e[i] < max(r[i] for r in rel) for e in ours.num
                       for i, rel, _lc in T._relations)
        assert (1 / y) * y == 1
        # is_zero: a multiple of the relation vanishes, a perturbation not
        vanishing = f"({x})*({relation})"
        assert tower_is_zero(T, vanishing) and vanishes((poly(relation) * xq[0], xq[1]))
        assert not tower_is_zero(T, f"{vanishing} + 1")
        assert not tower_is_zero(T, x) and not vanishes(xq)
        assert (x == y) == vanishes(minus(xq, yq))
        assert tower_is_zero(T, x - x * y / y)


@pytest.mark.parametrize("spec,relation", _TOWERS)
def test_differential_is_a_derivation(spec, relation):
    T, poly, vanishes, _rendered = _oracle(spec, relation)
    # d kills the relation: Σ ∂f/∂g · dg = 0
    rel = poly(relation)
    total = KahlerElement(T, {})
    for name, gen in zip(T.algebraics + T.transcendentals, rel.gens):
        total = total + T.dgen(name).scaled(
            T.parse(str(rel.diff(gen).as_expr())))
    assert total.is_zero()
    for case in range(5):
        rng = SplitMix64.stream(1202, case)
        (_, x), (_, y) = (_random_element(rng, T, poly, vanishes)
                          for _ in range(2))
        dx, dy = T.differential(x), T.differential(y)
        assert T.differential(x * y) == dx.scaled(y) + dy.scaled(x)
        assert T.differential(x / y) == \
            (dx.scaled(y) - dy.scaled(x)).scaled(1 / (y * y))
        assert T.differential(x + 3) == dx
        # every rendered coefficient parses back to the same element
        for image in (dx, T.differential(x / y)):
            for key, text in image.to_json().items():
                assert T.parse(text) == image.coefficients[key[1:]]
        assert T.parse(str(x)) == x


def test_circle_euler_identity_on_random_points():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    s, t = T.symbols["s"], T.symbols["t"]
    assert (T.differential(s).scaled(s) + T.differential(t).scaled(t)).is_zero()
    for case in range(10):
        rng = SplitMix64.stream(1303, case)
        f = T.parse(_random_poly(rng, T))
        # d(f)·s = ∂f/∂t·s·dt − ∂f/∂s·t·dt, from s·ds = −t·dt
        lhs = T.differential(f).scaled(s)
        rhs = KahlerElement(T, {t: T._partial(f, 0) * s - T._partial(f, 1) * t})
        assert lhs == rhs


def test_reducible_relations_are_rejected():
    for case in range(10):
        rng = SplitMix64.stream(1404, case)
        a = f"({rng.randint(-3, 3)}*t**2 + {rng.randint(-3, 3)}*t + " \
            f"{rng.randint(-3, 3)})"
        b = f"({rng.randint(-3, 3)}*t + {rng.randint(1, 3)})"
        for rel in (f"(s - {a})*(s - {b})", f"(s - {a})*(s**2 - {b})",
                    f"(s**2 + {b})*(s**2 - {a})", f"({b})*(s - {a})**2"):
            with pytest.raises(ParseError):
                FieldTower(f"t; s: {rel} = 0")
    # irreducible ones of the same shapes are accepted
    for rel in ("s**2 - t", "s**3 - t - 2", "t*s**3 + s - 1", "s**2 - 2*t**2"):
        FieldTower(f"t; s: {rel} = 0")


def test_gcd_paths_agree_with_sympy():
    # the evaluation gcd, the remainder-sequence gcd it falls back on and
    # sympy's gcd agree on products with a random common factor
    import sympy

    from scissors.poly import _gcd, _heuristic_gcd, _mul, _prs_gcd

    gens = sympy.symbols("t u v")

    def random_poly(rng):
        out = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in gens)
            out[e] = out.get(e, 0) + (rng.randint(-5, 5) or 1)
        return {e: c for e, c in out.items() if c} or {(0, 0, 0): 1}

    # in case 39 the gcd is tu²v(3t − 5uv); with ξ below 2·min‖·‖ + 2 the
    # evaluation gcd returns tu²v alone
    for case in range(40):
        rng = SplitMix64.stream(1505, case)
        common, a, b = (random_poly(rng) for _ in range(3))
        A, B = _mul(common, a), _mul(common, b)
        g, qa, qb = _gcd(A, B)
        assert _mul(g, qa) == A and _mul(g, qb) == B
        assert _prs_gcd(A, B) == g
        heuristic = _heuristic_gcd(A, B)
        assert heuristic is None or heuristic[0] == g
        want = sympy.Poly(sympy.gcd(*(
            sympy.Poly.from_dict(p, *gens).as_expr() for p in (A, B))), *gens)
        assert want.as_dict() == g


def test_gcd_keeps_a_factor_the_evaluation_point_hides():
    # numerator and denominator share tu²v(3t − 5uv): the element has one
    # representation only if the gcd keeps the factor 3t − 5uv
    T = FieldTower("t; u; v")
    x = T.parse("(15*t^3*u^2*v - 25*t^2*u^3*v^2)/(15*t^2*u^3*v^3 "
                "- 9*t^3*u^2*v^2 + 5*t*u^3*v^2 - 3*t^2*u^2*v)")
    assert x == T.parse("(-5*t)/(3*t*v + 1)")
