from fractions import Fraction
from itertools import permutations

import pytest

from scissors.algebraic import (
    AlgebraicReal,
    DivisionByZero,
    MultipleRootsInInterval,
    NegativeSqrt,
    NoRootInInterval,
    as_scalar,
    field_ops,
    lift,
    make_algebraic,
    scalar_key,
    scalar_sign,
    sqrt_nonneg,
)
from scissors.errors import SizeCap
from scissors.numbers import (
    ParseError,
    format_fraction,
    format_number,
    parse_number,
)


def bisection_root(coeffs, lo, hi, steps=80):
    """Independent oracle: plain interval bisection on the polynomial."""
    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    slo = ev(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (ev(mid) > 0) == (slo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_make_sqrt2():
    x = make_algebraic([-2, 0, 1], (1, 2))
    assert x.minpoly() == (-2, 0, 1)
    assert isinstance(x, AlgebraicReal)


def test_make_rational_collapses():
    # the root of a linear factor, alone or in a product, is its Fraction
    x = make_algebraic([-1, 3], (0, 1))
    assert type(x) is Fraction and x == Fraction(1, 3)
    y = make_algebraic([2, -7, 3], (0, 1))  # (3x − 1)(x − 2)
    assert type(y) is Fraction and y == Fraction(1, 3)


def test_make_golden_ratio_bracketed():
    # oracle: bisection isolates the root; 8/5 < phi < 13/8
    phi = make_algebraic([-1, -1, 1], (1, 2))
    approx = bisection_root([-1, -1, 1], 1, 2)
    assert Fraction(8, 5) < approx < Fraction(13, 8)
    assert phi.compare(Fraction(8, 5)) > 0
    assert phi.compare(Fraction(13, 8)) < 0


def test_make_reducible_resolves():
    # (x^2-2)(x-5) with interval [1,2] picks x^2-2
    x = make_algebraic([10, -2, -5, 1], (1, 2))
    assert x.minpoly() == (-2, 0, 1)


def test_make_errors():
    with pytest.raises(NoRootInInterval):
        make_algebraic([-2, 0, 1], (5, 6))
    with pytest.raises(MultipleRootsInInterval):
        make_algebraic([-2, 0, 1], (-2, 2))


def test_sqrt2_squared_is_two():
    r = make_algebraic([-2, 0, 1], (1, 2))
    two = r * r
    assert type(two) is Fraction and two == 2
    assert type(r ** 2) is Fraction and r ** 2 == 2


def test_additive_inverse():
    r = make_algebraic([-2, 0, 1], (1, 2))
    z = r + (-r)
    assert type(z) is Fraction and z == 0


def test_compare_sqrt2_vs_7_5():
    # oracle: 49/25 < 2 exactly
    assert Fraction(49, 25) < 2
    r = make_algebraic([-2, 0, 1], (1, 2))
    assert field_ops(r, Fraction(7, 5), "compare") == "Greater"


def test_field_inverse_and_identity():
    r = make_algebraic([-2, 0, 1], (1, 2))
    one = r * r.inverse()
    assert type(one) is Fraction and one == 1
    with pytest.raises(DivisionByZero):
        field_ops(r, Fraction(0), "div")
    with pytest.raises(DivisionByZero):
        r / 0


def test_sqrt_nonneg():
    assert sqrt_nonneg(Fraction(9, 4)) == Fraction(3, 2)
    s = sqrt_nonneg(Fraction(2))
    assert not isinstance(s, Fraction)
    assert (s * s) == 2
    with pytest.raises(NegativeSqrt):
        sqrt_nonneg(Fraction(-1))
    # sqrt of an algebraic: sqrt(sqrt(2)) ** 4 == 2
    r = make_algebraic([-2, 0, 1], (1, 2))
    q = sqrt_nonneg(r)
    assert (q * q * q * q) == 2


def test_sqrt_above_max_degree_is_a_size_cap():
    # the square root of the generator of ℚ(2^(1/17)) needs a field of
    # degree 34, above numberfield.MAX_DEGREE, as a literal and in its field
    r = make_algebraic([-2] + [0] * 16 + [1], (1, 2))
    for x in (r, *lift([r])):
        with pytest.raises(SizeCap):
            sqrt_nonneg(x)


def test_mixed_arithmetic_with_rationals():
    r = make_algebraic([-2, 0, 1], (1, 2))
    x = (r + 1) * (r - 1)  # = 2 - 1 = 1
    assert type(x) is Fraction and x == 1
    y = Fraction(3, 2) * r / r
    assert type(y) is Fraction and y == Fraction(3, 2)


def test_sum_of_two_distinct_algebraics():
    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r3 = make_algebraic([-3, 0, 1], (1, 2))
    s = r2 + r3
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6
    t = s * s - 5
    u = t * t
    assert type(u) is Fraction and u == 24


def test_total_order_consistent_with_floats():
    # literals and Fractions sort together: a Fraction is a point that
    # AlgebraicReal.compare refines its interval away from
    vals = [
        make_algebraic([-2, 0, 1], (1, 2)),
        Fraction(3, 2),
        make_algebraic([-3, 0, 1], (-2, -1)),
        Fraction(-1),
    ]
    exact = sorted(vals)
    by_float = sorted(vals, key=float)
    assert [scalar_key(v) for v in exact] == \
        [scalar_key(v) for v in by_float]


def test_scalar_helpers():
    assert as_scalar(3) == Fraction(3)
    r = make_algebraic([-2, 0, 1], (1, 2))
    assert scalar_sign(r) == 1
    assert scalar_sign(-r) == -1
    assert scalar_sign(Fraction(0)) == 0


def test_serialize_round_trip():
    r = make_algebraic([-2, 0, 1], (1, 2))
    lit = format_number(r)
    back = parse_number(lit)
    assert back == r
    q = Fraction(-7, 3)
    assert parse_number(format_number(q)) == q


def test_parse_number_on_seeded_intervals():
    # seeded literals with 0 among the roots of p, roots on an endpoint and
    # intervals holding no root or several: a literal reads as the one root
    # of p in [lo, hi], known here from p's factors, and is rejected when
    # there is none or more than one
    from scissors.rng import SplitMix64

    def above(r, q):
        """Whether the root r exceeds the rational q, never equal to it: for
        ("sqrt", ±c), ±√c, by comparing c with q²."""
        if isinstance(r, Fraction):
            return r > q
        s, c = (1, r[1]) if r[1] > 0 else (-1, -r[1])
        return s > 0 and (q < 0 or q * q < c) or s < 0 and q < 0 and q * q > c

    seen = set()
    for case in range(300):
        rng = SplitMix64.stream(53, case)
        roots = set()  # Fractions, and ("sqrt", ±c) for ±√c
        p = [1]
        if rng.randint(0, 1):
            a = rng.randint(-3, 3)
            p, roots = [a, 1], {Fraction(-a)}
        for _ in range(rng.randint(1, 2)):
            r = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            p = _times(p, [-r.numerator, r.denominator])
            roots.add(r)
        if rng.randint(0, 1):
            c = rng.randint(2, 3)
            p = _times(p, [-c, 0, 1])
            roots |= {("sqrt", c), ("sqrt", -c)}
        lo = Fraction(rng.randint(-4, 4), 2)
        hi = lo + Fraction(rng.randint(0, 6), 2)
        lit = {"minpoly": [str(c) for c in p],
               "lo": format_fraction(lo), "hi": format_fraction(hi)}
        # [lo, hi] is closed; lo and hi are never ±√c
        held = [r for r in roots if r == lo or above(r, lo) and
                not above(r, hi)]
        if len(held) != 1:
            with pytest.raises(ParseError):
                parse_number(lit)
            seen.add("bad")
            continue
        value, (want,) = parse_number(lit), held
        if isinstance(want, Fraction):
            assert type(value) is Fraction and value == want, lit
        else:
            assert value.minpoly() == (-abs(want[1]), 0, 1), lit
            assert value.sign() == (1 if want[1] > 0 else -1), lit
        seen.add(value != 0)
    assert seen == {"bad", True, False}
    with pytest.raises(ParseError):
        parse_number({"minpoly": ["0"], "lo": "-1", "hi": "1"})


def rand_algebraic(rng):
    """A root of a random small integer polynomial, or a random rational."""
    from scissors.algebraic import count_roots
    kind = rng.randint(0, 3)
    if kind == 0:
        return rng.fraction(9, 4)
    while True:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + \
            [rng.randint(1, 6)]
        total = count_roots(tuple(coeffs), Fraction(-100), Fraction(100))
        if total == 0:
            continue
        # isolate the largest root by shrinking from above
        lo, hi = Fraction(-100), Fraction(100)
        for _ in range(200):
            if count_roots(tuple(coeffs), lo, hi) == 1:
                try:
                    return make_algebraic(coeffs, (lo, hi))
                except Exception:
                    break
            mid = (lo + hi) / 2
            if count_roots(tuple(coeffs), mid, hi) >= 1:
                lo = mid
            else:
                hi = mid
        continue


def test_field_laws_on_random_values():
    from scissors.rng import SplitMix64
    for case in range(12):
        rng = SplitMix64.stream(2024, case)
        a = rand_algebraic(rng)
        z = a + (-a)
        assert type(z) is Fraction and z == 0
        if scalar_sign(a) != 0:
            inverse = a.inverse() if isinstance(a, AlgebraicReal) else 1 / a
            one = a * inverse
            assert type(one) is Fraction and one == 1
        # serialize round trip compares Equal, in the same type
        back = parse_number(format_number(a))
        assert type(back) is type(a) and back == a


def test_order_consistency_on_random_pairs():
    from scissors.rng import SplitMix64
    vals = []
    for case in range(10):
        rng = SplitMix64.stream(2025, case)
        vals.append(rand_algebraic(rng))
    def compare(a, b):
        """AlgebraicReal.compare, with a Fraction on either side."""
        if isinstance(a, AlgebraicReal):
            return a.compare(b)
        if isinstance(b, AlgebraicReal):
            return -b.compare(a)
        return (a > b) - (a < b)

    for a in vals:
        for b in vals:
            c = compare(a, b)
            fa, fb = float(a), float(b)
            if abs(fa - fb) > 1e-9:  # floats decide only well-separated pairs
                assert c == (1 if fa > fb else -1)
            # antisymmetry always
            assert compare(b, a) == -c


def test_add_mul_agree_with_floats():
    from scissors.rng import SplitMix64
    for case in range(8):
        rng = SplitMix64.stream(2026, case)
        a = rand_algebraic(rng)
        b = rand_algebraic(rng)
        s = a + b
        p = a * b
        assert abs(float(s) - (float(a) + float(b))) < 1e-7
        assert abs(float(p) - float(a) * float(b)) < 1e-7


def test_negation_of_root_index():
    # the two roots of x^2-2: negation maps one to the other exactly
    r = make_algebraic([-2, 0, 1], (1, 2))
    n = -r
    assert n.minpoly() == (-2, 0, 1)
    assert n.sign() == -1
    assert type(n + r) is Fraction and n + r == 0


def _sympy_poly(coeffs):
    import sympy
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(coeffs)), x)


def _random_poly(rng, squarefree=True):
    """Seeded integer polynomial, constant first; with squarefree=False a
    product that repeats a random linear factor, and that factor's root."""
    while True:
        deg = rng.randint(1, 6)
        f = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2, 5))]
        if squarefree:
            if _sympy_poly(f).is_sqf:
                return tuple(f)
            continue
        g = [rng.randint(-3, 3), rng.choice((-2, 1, 3))]
        p = _sympy_poly(f) * _sympy_poly(g) ** 2
        return tuple(int(c) for c in reversed(p.all_coeffs())), \
            Fraction(-g[0], g[1])


def test_native_sturm_matches_sympy():
    # oracle: sympy's count_roots on the closed interval, with endpoints
    # that are no roots, and its isolating intervals in increasing order
    from scissors.algebraic import count_roots
    from scissors.rng import SplitMix64
    for case in range(60):
        rng = SplitMix64.stream(2027, case)
        if case % 4 == 3:
            # a repeated root r: counted in (lo, r], not in (r, hi]
            f, r = _random_poly(rng, squarefree=False)
            ref = _sympy_poly(f)
            lo, hi = r - rng.randint(1, 9), r + rng.randint(1, 9)
            if ref.eval(lo) and ref.eval(hi):
                assert count_roots(f, lo, r) == ref.count_roots(lo, r)
                assert count_roots(f, r, hi) == ref.count_roots(r, hi) - 1
            continue
        f = _random_poly(rng)
        ref = _sympy_poly(f)
        for _ in range(4):
            lo, hi = sorted((rng.fraction(40, 7), rng.fraction(40, 7)))
            if ref.eval(lo) == 0 or ref.eval(hi) == 0:
                continue
            assert count_roots(f, lo, hi) == ref.count_roots(lo, hi)
        for i, ((a, b), _mult) in enumerate(ref.intervals()):
            a, b = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))
            if a == b or ref.eval(a) == 0:
                continue  # a rational root, or an endpoint on a root
            assert AlgebraicReal(f, a, b).root_index() == i


def test_canonical_single_matches_sympy():
    from scissors.poly import _canonical_single
    from scissors.rng import SplitMix64
    for case in range(40):
        rng = SplitMix64.stream(2028, case)
        scale = rng.choice((-6, -1, 1, 4, 15))
        f = tuple(scale * c for c in _random_poly(rng)) + (0,) * (case % 3)
        _, prim = _sympy_poly(f).primitive()
        if prim.LC() < 0:
            prim = -prim
        ref = tuple(int(c) for c in reversed(prim.all_coeffs()))
        assert _canonical_single(f) == ref


# -- number-field arithmetic against sympy's minimal polynomials -------------

def _oracle_key(expr):
    """The key of the real number `expr`, a sympy expression, found without
    the package: ("q", value), or ("a", minimal polynomial, root index) from
    sympy's minimal_polynomial and the position of expr among its real
    roots."""
    import sympy

    t = sympy.Symbol("t")
    m = sympy.Poly(sympy.minimal_polynomial(expr, t), t)
    coeffs = tuple(int(c) for c in reversed(m.all_coeffs()))
    if len(coeffs) == 2:
        return ("q", Fraction(-coeffs[0], coeffs[1]))
    value = sympy.N(expr, 60)
    dist = sorted((abs(sympy.N(r, 60) - value), i)
                  for i, r in enumerate(m.real_roots()))
    assert dist[0][0] < 1e-40 and (len(dist) == 1 or dist[1][0] > 1e-20)
    return ("a", coeffs, dist[0][1])


def _oracle_sign(expr):
    """The sign of a nonzero real sympy expression."""
    import sympy
    v = sympy.N(expr, 60)
    assert abs(v) > 1e-40
    return 1 if v > 0 else -1


def _field_pairs():
    """Seeded elements of ℚ(α) for α = ∛(3/8), of ℚ(√2), and of the tower
    ℚ(α)(√(8α²)), each with field arithmetic and as a sympy expression."""
    import sympy

    from scissors.algebraic import lift
    from scissors.rng import SplitMix64

    (alpha,) = lift([make_algebraic([-3, 0, 0, 8], (0, 1))])
    ref_alpha = sympy.Rational(3, 8) ** sympy.Rational(1, 3)
    root = sqrt_nonneg(8 * alpha * alpha)
    ref_root = sympy.sqrt(8 * ref_alpha ** 2)
    out = {"cubic": [], "quadratic": [], "tower": []}
    for case in range(6):
        rng = SplitMix64.stream(2029, case)
        q = [rng.fraction(5, 4) for _ in range(4)]
        if q[1] == q[2] == 0:
            q[1] = Fraction(1)
        ref_q = [sympy.Rational(c.numerator, c.denominator) for c in q]
        out["cubic"].append((q[0] + q[1] * alpha + q[2] * alpha * alpha,
                             ref_q[0] + ref_q[1] * ref_alpha
                             + ref_q[2] * ref_alpha ** 2))
        b, ref_b = (q[3], ref_q[3]) if q[3] else (1, 1)
        out["quadratic"].append((q[0] + b * sqrt_nonneg(2),
                                 ref_q[0] + ref_b * sympy.sqrt(2)))
    for x, ref_x in out["cubic"][:2]:
        out["tower"].append((x + 3 * root, ref_x + 3 * ref_root))
    return out


def _same_value(got, ref):
    from scissors.algebraic import scalar_key
    return scalar_key(got) == scalar_key(as_scalar(ref))


def _matches(got, expr):
    from scissors.algebraic import scalar_key
    return scalar_key(got) == _oracle_key(expr)


def test_field_arithmetic_matches_resultants():
    # the reference is sympy's minimal polynomial of the same expression
    from scissors.algebraic import scalar_cmp
    pairs = _field_pairs()
    for kind, elems in pairs.items():
        for x, ref_x in elems:
            _, poly, index = _oracle_key(ref_x)
            assert x.minpoly() == poly, kind
            assert x.root_index() == index, kind
            assert x.sign() == _oracle_sign(ref_x)
            back = parse_number(format_number(x))
            assert back.minpoly() == poly
            assert back.root_index() == index
        count = 2 if kind == "tower" else len(elems)
        for i in range(count):
            (x, ref_x), (y, ref_y) = elems[i], elems[(i + 1) % len(elems)]
            assert _matches(x + y, ref_x + ref_y), kind
            assert _matches(x - y, ref_x - ref_y), kind
            assert _matches(x * y, ref_x * ref_y), kind
            assert _matches(x / y, ref_x / ref_y), kind
            assert scalar_cmp(x, y) == _oracle_sign(ref_x - ref_y), kind
            assert _same_value(x - x, Fraction(0))
    # values of the tower against values of its base field
    (t, ref_t), (x, ref_x) = pairs["tower"][0], pairs["cubic"][3]
    assert _matches(t * x, ref_t * ref_x)
    assert _matches(t - x, ref_t - ref_x)


def test_literals_of_two_fields_match_sympy():
    # literals of two fields lift into one field ℚ(γ), the degree-9 pair of
    # cubics included, and their operators agree with sympy
    import operator

    import sympy

    from scissors.algebraic import lift, scalar_key
    from scissors.numberfield import Num
    from scissors.rng import SplitMix64

    def expr(a):
        if isinstance(a, Fraction):
            return sympy.Rational(a.numerator, a.denominator)
        t = sympy.Symbol("t")
        return sympy.CRootOf(sympy.Poly(list(reversed(a.minpoly())), t),
                             a.root_index())

    pairs = []
    for case in range(8):
        rng = SplitMix64.stream(2026, case)
        pairs.append((rand_algebraic(rng), rand_algebraic(rng)))
    # √2 and √3 − √2: γ = x + α = √3 does not generate ℚ(√2, √3), so the
    # gcd has degree 2 and k = 2 is taken
    pairs.append((make_algebraic([-2, 0, 1], (1, 2)),
                  make_algebraic([1, 0, -10, 0, 1], (0, 1))))
    degrees = []
    for case, (a, b) in enumerate(pairs):
        x, y = lift([a, b])
        for lit, v in ((a, x), (b, y)):
            assert isinstance(v, Num) != isinstance(lit, Fraction)
            assert scalar_key(v) == scalar_key(lit)
        if isinstance(x, Num) and isinstance(y, Num):
            assert x.field is y.field
            degrees.append(x.field.n)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            want = _oracle_key(op(expr(a), expr(b)))
            assert scalar_key(op(a, b)) == want, (case, op)
            assert scalar_key(op(x, y)) == want, (case, op)
    assert degrees[0] == 9  # two cubics, decided by one norm of degree 9
    assert degrees[-1] == 4


def test_compositum_above_max_degree_is_capped():
    # ℚ(2^(1/5), 3^(1/7)) has degree 35 and ℚ(2^(1/6), 3^(1/6)) degree 36,
    # both above numberfield.MAX_DEGREE = 32; ℚ(2^(1/4), 3^(1/8)) has 32;
    # for 2^(1/16) and 3^(1/16) the resultant alone would have degree 256
    from scissors.algebraic import lift
    from scissors.errors import SizeCap

    def root(n, c):
        return make_algebraic([-c] + [0] * (n - 1) + [1], (1, 2))

    for m, n in ((5, 7), (6, 6), (16, 16)):
        with pytest.raises(SizeCap):
            lift([root(m, 2), root(n, 3)])
        with pytest.raises(SizeCap):
            root(m, 2) + root(n, 3)
    x, y = lift([root(4, 2), root(8, 3)])
    assert x.field is y.field and x.field.n == 32


def test_nonsquare_certificates_agree_with_factoring():
    # a certified non-square r of a field F is no square in ℚ(r) ⊆ F, so
    # m_r(t²) is irreducible; a square x² has its root found in x's field.
    # Every radicand is decided, in fields of degree 9 to 16 too
    import sympy

    from scissors.numberfield import NONSQUARE, Num, SimpleField, sqrt_in
    from scissors.rng import SplitMix64
    t = sympy.Symbol("t")
    checked = 0

    def check(r):
        nonlocal checked
        F = r.field if isinstance(r, Num) else None
        got = sqrt_in(F, r)
        if got is NONSQUARE:
            m = r.minpoly() if isinstance(r, Num) else \
                (-r.numerator, r.denominator)
            doubled = sum(c * t ** (2 * i) for i, c in enumerate(m))
            factors = sympy.factor_list(doubled)[1]
            assert len(factors) == 1 and factors[0][1] == 1, (m, r)
            checked += 1
        else:
            assert _same_value(got * got, r)

    for elems in _field_pairs().values():
        for x, _ref in elems:
            root = sqrt_in(x.field, x * x)
            assert root is not NONSQUARE
            assert _same_value(abs(root), abs(x))
            for r in (abs(x), abs(x) + 1, 2 * abs(x), x * x):
                check(r)
    assert checked >= 20
    for n in range(9, 17):
        # x^n − 3x − 3 is irreducible (Eisenstein at 3), with a root in
        # (1, 2); in even degree the norm of 2y² is a rational square
        F = SimpleField((-3, -3) + (0,) * (n - 2) + (1,), 1, 2)
        rng = SplitMix64.stream(2032, n)
        data = [0] * n
        data[0], data[rng.randint(1, n - 1)] = rng.randint(-2, 2), 1
        y = F.make(tuple(data))
        root = sqrt_in(F, y * y)
        assert root is not NONSQUARE and _same_value(abs(root), abs(y))
        check(2 * y * y)
        check(abs(y) + rng.randint(1, 3))
    assert checked >= 36


def test_lift_reads_field_elements_back_into_their_field():
    # seeded x = Σ cᵢαⁱ with α = a^(1/n) + s, both written as literals and
    # read back: lift puts x in α's field with the coordinates c.  b^(1/n)
    # for a prime b ≠ a above n is ramified at b, so outside ℚ(α): lift
    # grows the field and keeps every value
    from scissors.algebraic import lift, scalar_key
    from scissors.numberfield import Num
    from scissors.rng import SplitMix64

    for case in range(12):
        rng = SplitMix64.stream(2033, case)
        n = rng.randint(2, 4)
        a, b = rng.choice(((5, 7), (7, 11), (11, 5), (13, 7)))
        shift = rng.fraction(3, 2)
        (alpha,) = lift([make_algebraic([-a] + [0] * (n - 1) + [1], (1, a))
                         + shift])
        c = [rng.fraction(6, 4) for _ in range(alpha.field.n)]
        c[rng.randint(1, n - 1)] = Fraction(rng.randint(1, 5), 2)
        x = alpha.field.make(tuple(c))
        lits = [parse_number(format_number(v)) for v in (alpha, x)]
        a2, x2 = lift(lits)
        assert isinstance(x2, Num) and x2.field is a2.field
        assert a2.data == (0, 1) + (0,) * (n - 2)
        assert [Fraction(v) for v in x2.data] == c
        y = make_algebraic([-b] + [0] * (n - 1) + [1], (1, b))
        a3, x3, y3 = lift(lits + [y])
        assert a3.field is x3.field is y3.field
        assert a3.field.n > n
        for lit, v in zip(lits + [y], (a3, x3, y3)):
            assert scalar_key(v) == scalar_key(lit)


def test_field_generator_refines_to_its_root():
    # a Newton step from the middle of an isolating interval can head for
    # another root; it is kept only when f changes sign across its result
    from scissors.algebraic import lift
    for coeffs, interval in (([-2, 0, 0, 1], (0, 100)),
                             ([-5, 0, 1], (1, 1000)),
                             ([-4, -24, -24, 5], (Fraction(-35, 32),
                                                  Fraction(-21, 32))),
                             ([1, -18, -23, 6], (Fraction(-5, 16),
                                                 Fraction(1, 16))),
                             ([1, 8, -14, 9], (Fraction(-3, 16),
                                               Fraction(3, 16)))):
        lit = make_algebraic(coeffs, interval)
        (alpha,) = lift([lit])
        assert abs(alpha.approx(60) - lit.approx(60)) < Fraction(1, 1 << 58)
        assert alpha.key() == lit.key()


def _sympy_factors(f):
    """sympy's irreducible factors of the squarefree part of f, each with
    a positive leading coefficient."""
    import sympy

    x = sympy.Symbol("x")
    out = []
    for g, _ in sympy.Poly(list(reversed(f)), x).sqf_part().factor_list()[1]:
        c = [int(v) for v in reversed(g.all_coeffs())]
        out.append(tuple(-v for v in c) if c[-1] < 0 else tuple(c))
    return sorted(out)


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_low_degree_factors_match_sympy():
    # `factoring.factor` against sympy's factoring of the squarefree part: seeded
    # polynomials up to degree 3, products of small linear factors, and
    # products up to degree 64 with repeated factors, a content and a
    # negative leading coefficient
    import sympy

    from scissors.factoring import factor
    from scissors.rng import SplitMix64
    x = sympy.Symbol("x")
    for case in range(300):
        rng = SplitMix64.stream(2030, case)
        if case % 2:
            f = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3))]
            f.append(rng.choice((-6, -1, 1, 2, 9)))
        else:  # products of small linear factors, repeats included
            p = sympy.Integer(rng.choice((-2, 1, 3)))
            for _ in range(rng.randint(1, 3)):
                p *= rng.randint(-5, 5) + rng.choice((-3, -1, 1, 2, 4)) * x
            f = [int(c) for c in reversed(sympy.Poly(p, x).all_coeffs())]
        assert sorted(factor(f)) == _sympy_factors(f), f
    for case in range(24):
        rng = SplitMix64.stream(2031, case)
        target = 8 + 56 * case // 23
        f = [rng.choice((-6, -2, 3))]
        while True:
            g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            g.append(rng.choice((-4, -1, 1, 2, 3)))
            times = rng.randint(1, 2) if rng.randint(0, 2) == 0 else 1
            if len(f) - 1 + times * (len(g) - 1) > target:
                break
            for _ in range(times):
                f = _times(f, g)
        assert sorted(factor(f)) == _sympy_factors(f), case
    # the minimal polynomial of √2 + √3 + √5 is irreducible, yet has
    # factors of degree ≤ 2 modulo every prime, so that only recombination
    # shows it
    sd3 = (576, 0, -960, 0, 352, 0, -40, 0, 1)
    assert factor(sd3) == [sd3] == _sympy_factors(sd3)
    assert factor(_times(sd3, [-2, 0, 1])) == \
        [(-2, 0, 1), sd3]


def _swinnerton_dyer(primes):
    """The minimal polynomial of the sum of the square roots of `primes`,
    by one resultant Res_y(y² − p, f(x − y)) per prime."""
    from math import comb

    from scissors.factoring import resultant

    f = [0, 1]
    for p in primes:
        G = {}
        for i, c in enumerate(f):
            for j in range(i + 1):
                G[(i - j, j)] = G.get((i - j, j), 0) + \
                    (-1) ** j * comb(i, j) * c
        r = resultant({(0, 2): 1, (0, 0): -p},
                      {e: c for e, c in G.items() if c}, 1)
        f = [r.get((k, 0), 0) for k in range(max(r)[0] + 1)]
    return f


def test_factoring_is_capped_and_does_not_depend_on_the_hash_seed(tmp_path):
    # the minimal polynomial of √2 + … + √13 has degree 64 and 32 factors
    # modulo every prime: its recombination passes the cap, and a literal
    # of it ends `polytope-info` in exit 4 with one line
    import json
    import os
    import subprocess
    import sys

    from scissors.errors import SizeCap
    from scissors.factoring import MAX_RECOMBINATIONS, factor

    sd6 = _swinnerton_dyer((2, 3, 5, 7, 11, 13))
    assert len(sd6) == 65
    with pytest.raises(SizeCap, match=str(MAX_RECOMBINATIONS)):
        factor(sd6)
    assert [len(g) - 1 for g in factor(_swinnerton_dyer((2, 3, 5, 7, 11)))] \
        == [32]
    lit = {"minpoly": [str(c) for c in sd6], "lo": "14", "hi": "15"}
    zero, one = "rat:0/1", "rat:1/1"
    path = tmp_path / "sd6.json"
    path.write_text(json.dumps({
        "dim": 3, "vertices": [[zero, zero, zero], [lit, zero, zero],
                               [zero, one, zero], [zero, zero, one]],
        "cells": [[0, 1, 2, 3]]}))
    proc = subprocess.run([sys.executable, "-m", "scissors.cli",
                           "polytope-info", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    # the same factors in the same order under other hash seeds
    cases = [_swinnerton_dyer((2, 3, 5, 7)),
             _times(_times([3, -1, 2], [1, 1, 0, 1]), [-5, 0, 0, 2]),
             _times([-2, 0, 1], [-2, 0, 0, 1])]
    code = ("import sys\n"
            "from scissors.factoring import factor\n"
            f"print([factor(f) for f in {cases!r}])\n")
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == repr([factor(f) for f in cases])


def test_field_inverse_by_euclid_matches_linear_solve():
    # u·u⁻¹ = 1 in ℚ(α) of degree 2–9, and the inverse equals the solution
    # of the linear system u·v = 1, solved by sparse rational elimination
    from scissors.linalg import rref_sparse
    from scissors.numberfield import SimpleField
    from scissors.rng import SplitMix64

    def solve(cols, rhs):
        n = len(cols)
        rows = [{j: Fraction(cols[j][i]) for j in range(n) if cols[j][i]}
                for i in range(n)]
        for i, r in enumerate(rhs):
            if r:
                rows[i][n] = Fraction(r)
        pivots, reduced = rref_sparse(rows, n + 1)
        assert pivots == list(range(n))
        return [row.get(n, Fraction(0)) for row in reduced]

    for n in range(2, 10):
        # Eisenstein at 3: x^n − 3x − 3 is irreducible, one positive root
        f = (-3, -3) + (0,) * (n - 2) + (1,)
        lo = next(k for k in range(1, 5)
                  if sum(c * k ** i for i, c in enumerate(f)) < 0
                  <= sum(c * (k + 1) ** i for i, c in enumerate(f)))
        F = SimpleField(f, lo, lo + 1)
        one = F.lift(Fraction(1))
        for case in range(5):
            rng = SplitMix64.stream(4100 + n, case)
            u = tuple(rng.fraction(20, 9) for _ in range(n))
            if not any(u[1:]):
                continue
            v = F.inv(u)
            assert F.mul(u, v) == one
            assert list(v) == solve(F._columns(u), one)
            x = F.make(u)
            assert x * x.inverse() == 1


def _fraction_mul(F, u, v):
    """The product in ℚ(α) term by term in Fractions, reduced by the
    Fraction rows of xᵏ mod f (the arithmetic the integer product
    replaced)."""
    n = F.n
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    out = prod[:n]
    for c, row in zip(prod[n:], F._fold):
        for i in range(n):
            out[i] += c * row[i]
    return tuple(out)


def test_field_mul_matches_fraction_product():
    # seeded fields of degree 2–9 with non-monic f, so that the folding
    # rows have denominators, on factors with zero, integral and
    # fractional coefficients
    from scissors.numberfield import SimpleField
    from scissors.rng import SplitMix64

    for n in range(2, 10):
        rng = SplitMix64.stream(4200, n)
        f = tuple(rng.randint(-9, 9) for _ in range(n)) + \
            (rng.choice((-5, -3, -2, 2, 4, 7)),)
        F = SimpleField(f, 0, 1)
        for case in range(6):
            u, v = ([rng.fraction(30, 12) if rng.randint(0, 3) else 0
                     for _ in range(n)] for _ in range(2))
            if case == 0:
                u = [int(c) for c in u]
                v = [int(c) for c in v]
            got, want = F.mul(tuple(u), tuple(v)), _fraction_mul(F, u, v)
            assert got == want, (n, case)
            # ints when the whole product is integral, else Fractions
            assert {type(c) for c in got} in ({int}, {Fraction})


def test_surd_literals_match_the_field_elements():
    # `numbers.format_surd` writes c·√m as `format_number` writes the
    # element of ℚ(√m) that `numberfield.sqrt` builds: seeded radicands,
    # some with the square of a prime past the small ones stripped
    from scissors.numberfield import sqrt
    from scissors.numbers import format_number
    from scissors.numbers import format_sqrt, format_surd, surd
    from scissors.rng import SplitMix64

    rng = SplitMix64.stream(2503, 0)
    for _ in range(300):
        x = Fraction(rng.randint(0, 400), rng.randint(1, 60))
        if rng.randint(0, 3) == 0:
            x *= rng.choice((53, 61, 97)) ** 2
        sign = rng.choice((-1, 1))
        assert format_sqrt(x, sign) == format_number(sign * sqrt(x)), x
        if x:
            c, m = surd(x)
            k = rng.fraction(30, 7)
            assert format_surd(k * c, m) == \
                format_number(k * c * sqrt(Fraction(m))), (x, k)


def test_rational_root_is_exact_on_huge_powers():
    # `numberfield._rational_root` against the k-th powers it must invert,
    # with numerators far beyond a float's range, and against non-powers
    from scissors.numberfield import _iroot, _rational_root
    from scissors.rng import SplitMix64

    rng = SplitMix64.stream(4040, 0)
    for case in range(120):
        k = rng.randint(2, 7)
        digits = rng.choice((1, 5, 40, 320))
        r = Fraction(rng.randint(-10 ** digits, 10 ** digits),
                     rng.randint(1, 10 ** rng.randint(1, digits)))
        q = r ** k
        assert _rational_root(q, k) == (abs(r) if k % 2 == 0 else r), case
        if r:
            assert _rational_root(2 * q, k) is None, case
            assert _rational_root(q * Fraction(2 ** k + 1, 2 ** k), k) is None
        n = q.numerator * q.numerator + rng.randint(0, 1 << 64)
        root = _iroot(n, k)
        assert root ** k <= n < (root + 1) ** k, case
    assert _rational_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert _rational_root(-4, 2) is None and _rational_root(-16, 4) is None
    assert _rational_root(0, 5) == 0 and _rational_root(1, 7) == 1


def _roots_in_oracle(lits, lifted):
    """Each irrational literal's element as `roots_in` gives it, called
    directly in the field `lift` chose: the root of its minimal polynomial
    there that has its key.  Returns that field."""
    from scissors.algebraic import roots_in
    from scissors.numberfield import Num

    K = next(v.field for v in lifted if isinstance(v, Num))
    for lit, got in zip(lits, lifted):
        if isinstance(lit, Fraction):
            assert got == lit
            continue
        want = next(y for y in roots_in(K, lit.minpoly())
                    if y.key() == lit.key())
        assert isinstance(got, Num) and got.field is K, lit
        assert got.data == want.data, lit
    return K


def _place(points, rng):
    """The points moved by a signed permutation, a 3-4-5 rotation in a
    coordinate plane, a rational scale and a rational translation."""
    perm = rng.choice(list(permutations(range(3))))
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    a, b = rng.choice(((0, 1), (1, 2), (0, 2)))
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    scale = rng.choice((-1, 1)) * Fraction(rng.randint(1, 9),
                                           rng.randint(1, 7))
    shift = [rng.fraction(6, 5) for _ in range(3)]
    out = []
    for p in points:
        q = [signs[i] * p[perm[i]] for i in range(3)]
        out.append(tuple(scale * sum((rot[i][j] * q[j] for j in range(3)),
                                     Fraction(0)) + shift[i]
                         for i in range(3)))
    return out


def _literal_sets():
    """Point sets in E³ over one field each: the tetrahedron of volume 1
    in ℚ(∛(3/8)), the hexagon prism in ℚ(√3), and seeded cubic and
    quartic sets, mostly a + bα with a few rational coordinates and a
    few a + bα + cα², which no affine identity reaches.  The first literal
    of each set generates the field that `lift` builds."""
    from scissors.geom import prism
    from scissors.geom.convex import (
        regular_tetrahedron,
        scaled_simplices,
    )
    from oracles import regular_hexagon
    from scissors.rng import SplitMix64

    def vertices(poly):
        table = poly.chain.table
        return [table.point(i) for i in range(len(table.points))], poly

    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    sets = {"tetra_vol1": vertices(scaled_simplices(regular_tetrahedron(), s)),
            "prism_hex": vertices(prism(regular_hexagon(1), 1))}
    # Eisenstein cubics and quartics, each with a root in (1, 2)
    polys = {3: ([3, 0, -3, 1], [-2, 0, 0, 1], [-2, -2, 0, 1]),
             4: ([-2, -2, 0, 0, 1], [-2, 0, 0, 0, 1], [-2, 0, -2, 0, 1])}
    for n, fs in polys.items():
        for case in range(2):
            rng = SplitMix64.stream(4041 + n, case)
            (alpha,) = lift([make_algebraic(rng.choice(fs), (1, 2))])
            points = []
            for _ in range(4):
                p = []
                for _ in range(3):
                    c = rng.fraction(5, 4)
                    # the first literal, the field's generator, is affine
                    kind = rng.randint(0, 5) if points or p else 1
                    if kind:
                        c += rng.choice((-3, -1, 1, 2)) * alpha / \
                            rng.randint(1, 3)
                    if kind == 5:
                        c += alpha * alpha / 2
                    p.append(c)
                points.append(tuple(p))
            sets[f"deg{n}-{case}"] = points, None
    return sets


def test_lift_of_placed_literals_matches_roots_in():
    # metamorphic: each literal set, placed three times by a seeded
    # rational motion and scale, lifts to the elements `roots_in` gives as
    # the oracle, in one field of the set's degree
    from scissors.numberfield import Num
    from scissors.rng import SplitMix64

    for name, (points, _) in _literal_sets().items():
        degree = max(v.field.degree for p in points for v in p
                     if isinstance(v, Num))
        for case in range(3):
            rng = SplitMix64.stream(4043, case)
            placed = _place(points, rng) if case else points
            lits = [parse_number(format_number(c)) for p in placed for c in p]
            lifted = lift(lits)
            K = _roots_in_oracle(lits, lifted)
            assert K.n == degree, (name, case)


def test_reading_placed_inputs_factors_no_norm():
    # the tetrahedron of volume 1 and the hexagon prism, as written and
    # rationally placed, are read without one norm: every coordinate is
    # a + bα in the first literal's field
    import json

    from scissors.algebraic import _norm_factors
    from scissors.geom.convex import transformed
    from scissors.io import polytope_from_json, polytope_to_json
    from scissors.rng import SplitMix64

    for name, (_, poly) in _literal_sets().items():
        if poly is None:
            continue
        rng = SplitMix64.stream(4044, 0)
        R = [(Fraction(3, 5), Fraction(-4, 5), 0),
             (Fraction(4, 5), Fraction(3, 5), 0), (0, 0, Fraction(-7, 3))]
        for shape in (poly, transformed(poly, R, shift=(
                rng.fraction(6, 5), rng.fraction(6, 5), 1))):
            text = json.dumps(polytope_to_json(shape))
            before = _norm_factors.cache_info()
            read = polytope_from_json(json.loads(text))
            after = _norm_factors.cache_info()
            assert (after.hits, after.misses) == \
                (before.hits, before.misses), name
            assert read.volume() == shape.volume()


def test_affine_image_on_another_root_falls_back():
    # in the cyclic cubic field of x³ − 3x + 1 every root is a polynomial
    # in α, so each lies in ℚ(α): β and 2β + 1 for another root β pass the
    # coefficient check with b = 1 and b = 2, but α and 1 + 2α are other
    # roots of their polynomials, and `roots_in` must be asked
    from scissors.numberfield import Num

    f = [1, -3, 0, 1]
    alpha = make_algebraic(f, (1, 2))
    for lo, hi in ((0, 1), (-2, -1)):
        beta = make_algebraic(f, (lo, hi))
        for x in (beta, 2 * beta + 1, 1 - beta / 3):
            lits = [alpha, parse_number(format_number(x))]
            lifted = lift(lits)
            K = _roots_in_oracle(lits, lifted)
            assert K.n == 3 and isinstance(lifted[1], Num)
            assert abs(lifted[1].approx(60) - x.approx(60)) < \
                Fraction(1, 1 << 58)


def test_literals_outside_the_affine_identity_still_lift():
    # √3 against ℚ(√2): b² = 3/2 has no rational root, so the compositum
    # of degree 4 is built as before; √2 in ℚ(2^(1/4)) has a lower degree
    # and is found as α² by `roots_in`
    from scissors.algebraic import scalar_key

    root2, root3 = (make_algebraic([-m, 0, 1], (1, 2)) for m in (2, 3))
    a, b = lift([root2, root3])
    assert a.field is b.field and a.field.n == 4
    assert (scalar_key(a), scalar_key(b)) == \
        (scalar_key(root2), scalar_key(root3))
    fourth = make_algebraic([-2, 0, 0, 0, 1], (1, 2))
    g, r = lift([fourth, root2])
    assert g.field is r.field and g.field.n == 4
    assert r == g * g and scalar_key(r) == scalar_key(root2)



def test_a_rational_result_is_always_a_fraction():
    # seeded operands from the literals of two fields, ℚ(√3) of the hexagon
    # prism and a cubic field, with sympy as the oracle: over every
    # `field_ops` op, every operator of AlgebraicReal and of Num, and
    # make_algebraic and parse_number of reducible polynomials, a result is
    # a Fraction exactly when it is rational, has the oracle's key, and no
    # irrational result equals a Fraction; AlgebraicReal.compare against
    # seeded Fractions agrees with the oracle's order
    import operator
    from math import floor

    import sympy

    from scissors.numberfield import Num
    from scissors.rng import SplitMix64

    t = sympy.Symbol("t")
    rng = SplitMix64.stream(4510, 0)
    keys = {}

    def literal(x):
        return parse_number(format_number(x))

    def expr(x):
        """x as a sympy number, a literal by its polynomial and interval."""
        if isinstance(x, Fraction):
            return sympy.Rational(x.numerator, x.denominator)
        poly = sympy.Poly(list(reversed(x.minpoly())), t)
        return sympy.CRootOf(poly, poly.count_roots(None, x.interval()[0]))

    def check(got, ref, what):
        """got is the real number ref, a Fraction exactly when ref is
        rational."""
        if ref not in keys:
            keys[ref] = _oracle_key(ref)
        want = keys[ref]
        assert (type(got) is Fraction) == (want[0] == "q"), what
        assert scalar_key(got) == want, what
        if want[0] == "q":
            return
        assert isinstance(got, (AlgebraicReal, Num)), what
        # seeded Fractions, two of them within 2⁻⁴⁰ of ref
        value = sympy.N(ref, 60)
        k = floor(value * 2 ** 40)
        for q in (Fraction(0), rng.fraction(9, 5), Fraction(k, 2 ** 40),
                  Fraction(k + 1, 2 ** 40)):
            assert got != q and q != got and not got == q, what
            if isinstance(got, AlgebraicReal):
                order = 1 if value > expr(q) else -1
                assert got.compare(q) == order, (what, q)
                assert (got < q) == (order < 0) == (q > got), (what, q)

    sets = _literal_sets()
    pools = [[literal(c) for p in sets[name][0] for c in p
              if not isinstance(c, Fraction)]
             for name in ("prism_hex", "deg3-0")]
    binary = {"add": operator.add, "sub": operator.sub,
              "mul": operator.mul, "div": operator.truediv}
    seen = set()
    for case in range(12):
        pool, other = pools[case // 6], pools[1 - case // 6]
        a = rng.choice(pool)
        q = rng.fraction(5, 3) or Fraction(1)
        # another literal of the same field or of the other one, or a
        # rational motion of a, so that about half the results are rational
        b = [rng.choice(pool), rng.choice(other), literal(a + q),
             literal(q - a), literal(q * a), literal(q / a)][case % 6]
        ra, rb = expr(a), expr(b)
        x, y = lift([a, b])
        for name, op in binary.items():
            ref = op(ra, rb)
            check(op(a, b), ref, (case, name, "literal"))
            check(field_ops(a, b, name), ref, (case, name, "field_ops"))
            check(op(x, y), ref, (case, name, "Num"))
            seen.add(keys[ref][0])
            # a literal against a Fraction, on either side
            check(op(a, q), op(ra, expr(q)), (case, name, "right"))
            check(op(q, a), op(expr(q), ra), (case, name, "left"))
        diff = keys[ra - rb]
        assert field_ops(a, b, "compare") == (
            "Equal" if diff == ("q", 0) else
            "Greater" if sympy.N(ra - rb, 60) > 0 else "Less"), case
        check(-a, -ra, (case, "neg"))
        check(field_ops(a, None, "neg"), -ra, (case, "neg"))
        check(a.inverse(), 1 / ra, (case, "inverse"))
        for n in (0, 2, -2):
            check(a ** n, ra ** n, (case, "pow", n))
        if case % 6 == 0 and scalar_sign(a) > 0:
            check(field_ops(a, None, "sqrt_nonneg"), sympy.sqrt(ra),
                  (case, "sqrt"))
    assert seen == {"q", "a"}
    for r in (Fraction(9, 4), Fraction(2), Fraction(0)):
        check(field_ops(r, None, "sqrt_nonneg"), sympy.sqrt(expr(r)),
              (r, "sqrt"))
    # reducible polynomials: a root of the linear factor reads as its
    # Fraction, a root of the other factor as a literal; each interval is
    # a dyadic cell of width 2⁻²⁰ around one root
    for case in range(6):
        r = rng.fraction(5, 3)
        f = _sympy_poly(rng.choice(pools[case % 2]).minpoly()) * \
            _sympy_poly([-r.numerator, r.denominator])
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        for root in f.real_roots():
            k = floor(sympy.N(root * 2 ** 20, 30))
            lo, hi = Fraction(k, 2 ** 20), Fraction(k + 1, 2 ** 20)
            assert f.count_roots(lo, hi) == 1
            text = {"minpoly": [str(c) for c in coeffs],
                    "lo": format_fraction(lo), "hi": format_fraction(hi)}
            for got in (make_algebraic(coeffs, (lo, hi)),
                        parse_number(text)):
                check(got, root, (case, lo))
