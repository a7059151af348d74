from fractions import Fraction

import pytest

from scissors.algebraic import (
    AlgebraicReal,
    DivisionByZero,
    MultipleRootsInInterval,
    NegativeSqrt,
    NoRootInInterval,
    as_scalar,
    field_ops,
    make_algebraic,
    scalar_sign,
    sqrt_nonneg,
)
from scissors.numbers import format_number, parse_number


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
    assert not x.is_rational()


def test_make_rational_collapses():
    x = make_algebraic([-1, 3], (0, 1))
    assert x.is_rational() and x.as_fraction() == Fraction(1, 3)


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
    assert two.is_rational() and two.as_fraction() == 2


def test_additive_inverse():
    r = make_algebraic([-2, 0, 1], (1, 2))
    z = r + (-r)
    assert z.is_rational() and z.as_fraction() == 0


def test_compare_sqrt2_vs_7_5():
    # oracle: 49/25 < 2 exactly
    assert Fraction(49, 25) < 2
    r = make_algebraic([-2, 0, 1], (1, 2))
    assert field_ops(r, Fraction(7, 5), "compare") == "Greater"


def test_field_inverse_and_identity():
    r = make_algebraic([-2, 0, 1], (1, 2))
    one = r * r.inverse()
    assert one.is_rational() and one.as_fraction() == 1
    with pytest.raises(DivisionByZero):
        field_ops(r, AlgebraicReal.from_fraction(0), "div")


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


def test_mixed_arithmetic_with_rationals():
    r = make_algebraic([-2, 0, 1], (1, 2))
    x = (r + 1) * (r - 1)  # = 2 - 1 = 1
    assert x.is_rational() and x.as_fraction() == 1
    y = Fraction(3, 2) * r / r
    assert y == Fraction(3, 2)


def test_sum_of_two_distinct_algebraics():
    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r3 = make_algebraic([-3, 0, 1], (1, 2))
    s = r2 + r3
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6
    t = s * s - 5
    u = t * t
    assert u.is_rational() and u.as_fraction() == 24


def test_total_order_consistent_with_floats():
    vals = [
        make_algebraic([-2, 0, 1], (1, 2)),
        AlgebraicReal.from_fraction(Fraction(3, 2)),
        make_algebraic([-3, 0, 1], (-2, -1)),
        AlgebraicReal.from_fraction(Fraction(-1)),
    ]
    exact = sorted(vals)
    by_float = sorted(vals, key=float)
    assert [v.key() for v in exact] == [v.key() for v in by_float]


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


def rand_algebraic(rng):
    """A root of a random small integer polynomial, or a random rational."""
    from scissors.algebraic import count_roots
    kind = rng.randint(0, 3)
    if kind == 0:
        return AlgebraicReal.from_fraction(rng.fraction(9, 4))
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
        assert z.is_rational() and z.as_fraction() == 0
        if a.sign() != 0:
            one = a * a.inverse()
            assert one.is_rational() and one.as_fraction() == 1
        # serialize round trip compares Equal
        from scissors.numbers import format_number, parse_number
        back = parse_number(format_number(a))
        from scissors.algebraic import as_algebraic
        assert as_algebraic(back) == a


def test_order_consistency_on_random_pairs():
    from scissors.rng import SplitMix64
    vals = []
    for case in range(10):
        rng = SplitMix64.stream(2025, case)
        vals.append(rand_algebraic(rng))
    for a in vals:
        for b in vals:
            c = a.compare(b)
            fa, fb = float(a), float(b)
            if abs(fa - fb) > 1e-9:  # floats decide only well-separated pairs
                assert c == (1 if fa > fb else -1)
            # antisymmetry always
            assert b.compare(a) == -c


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
    assert (n + r).as_fraction() == 0


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
    from scissors.algebraic import _canonical_single
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
