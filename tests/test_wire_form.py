"""One written form per number.  A literal's interval comes from its value
alone: `poly.canonical_interval` of (minimal polynomial, root index), and
`numbers.format_surd` in closed form for a square root of a rational.  So
writing, reading and writing again gives the same text, equal values print
the same text whatever field or (c, m) split they come from, and a sum of
Dehn tensors prints the same in either order.  Every draw is seeded with
`SplitMix64`."""

import json
from fractions import Fraction

import pytest

from scissors.algebraic import as_algebraic, lift, make_algebraic
from scissors.factoring import factor
from scissors.errors import ParseError
from scissors.numberfield import sqrt, sqrt_over
from scissors.numbers import (
    format_fraction,
    format_number,
    format_surd,
    one_field,
    parse_number,
    parse_square,
)
from scissors.poly import canonical_interval, count_roots, root_index
from scissors.rng import SplitMix64


def _literal(f, lo, hi):
    return {"minpoly": [str(c) for c in f], "lo": format_fraction(lo),
            "hi": format_fraction(hi)}


def _canonical_literal(f, index):
    return _literal(f, *canonical_interval(tuple(f), index))


def _isolating(f, index, rng):
    """Another interval that isolates the root: the canonical one cut a
    seeded number of times at points off the dyadic grid."""
    lo, hi = canonical_interval(tuple(f), index)
    for _ in range(rng.randint(0, 6)):
        t = lo + (hi - lo) * Fraction(rng.randint(1, 96), 97)
        if count_roots(f, lo, t):
            hi = t
        else:
            lo = t
    return lo, hi


def _irreducible(rng, degree):
    """A seeded irreducible integer polynomial of the given degree with a
    real root, primitive with a positive leading coefficient."""
    while True:
        f = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 5)]
        factors = factor(f)
        if len(factors) == 1 and len(factors[0]) == degree + 1:
            g = factors[0]
            if count_roots(g, Fraction(-100), Fraction(100)):
                return g


def _real_roots(f):
    return count_roots(f, Fraction(-(1 << 40)), Fraction(1 << 40))


def test_canonical_interval_follows_its_rule():
    # (lo, hi] lies on the dyadic grid of (−B, B], B the least power of two
    # with B ≥ 1 + max |cᵢ|/cₙ, holds the root of the given index alone,
    # and is the first such: its parent on the grid holds another root
    for case in range(120):
        rng = SplitMix64.stream(4701, case)
        f = _irreducible(rng, rng.randint(2, 4))
        bound = 1
        while bound < 1 + Fraction(max(map(abs, f[:-1])), f[-1]):
            bound *= 2
        for index in range(_real_roots(f)):
            lo, hi = canonical_interval(f, index)
            width = hi - lo
            halvings = 2 * bound / width
            assert halvings.denominator == 1 and \
                not halvings.numerator & (halvings.numerator - 1), (f, index)
            assert (lo + bound) % width == 0 and hi <= bound, (f, index)
            assert count_roots(f, lo, hi) == 1, (f, index)
            assert root_index(f, lo) == index, (f, index)
            if width < 2 * bound:
                p_lo = lo - (lo + bound) % (2 * width)
                assert count_roots(f, p_lo, p_lo + 2 * width) >= 2, (f, index)


def test_surd_closed_form_is_the_canonical_interval():
    # `format_surd` against the general rule and against a literal of the
    # same value read with another interval: 240 seeded c·√m, some radicands
    # with the square of a prime past the small ones left in
    seen = set()
    for case in range(240):
        rng = SplitMix64.stream(4702, case)
        while True:
            m = rng.randint(2, 500)
            if int(m ** 0.5) ** 2 != m:
                break
        if rng.randint(0, 3) == 0:
            m *= rng.choice((53, 61, 97)) ** 2
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                     rng.randint(1, 9))
        a = c * c * m
        f = (-a.numerator, 0, a.denominator)
        want = format_surd(c, m)
        assert want == _canonical_literal(f, int(c > 0)), (c, m)
        other = make_algebraic(f, _isolating(f, int(c > 0), rng))
        assert format_number(other) == want, (c, m)
        assert format_number(c * sqrt(Fraction(m))) == want, (c, m)
        seen.add(c > 0)
    assert seen == {True, False}


def _tower_value(rng):
    """A seeded irrational element of a tower of square roots, or of ℚ(α)
    for a cubic α."""
    kind = rng.randint(0, 3)
    q = rng.fraction(5, 4)
    k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    if kind == 0:  # in ℚ(√r)
        return q + k * sqrt(Fraction(rng.choice((2, 3, 5, 6, 7, 10))))
    if kind == 1:  # in ℚ(√2)(√r)
        s = sqrt(Fraction(2))
        return q + k * sqrt_over(s.field, Fraction(rng.choice((3, 5, 7))))
    if kind == 2:  # √(a + b√2), of degree 4
        s = sqrt(Fraction(2))
        return k * sqrt(Fraction(rng.randint(2, 5)) + rng.choice((-1, 1)) * s)
    (alpha,) = lift([make_algebraic([-3, 0, 0, 8], (0, 1))])
    return q + k * alpha + rng.fraction(3, 2) * alpha * alpha


def test_write_read_write_is_a_fixed_point():
    # over square roots of rationals, literals of degree 2 to 4 read with
    # any isolating interval, reducible ones included, and tower values:
    # the text depends on the value, not on its field, its interval, or the
    # refining that reading, signs and lifting do
    kinds = set()
    for case in range(150):
        rng = SplitMix64.stream(4703, case)
        kind = case % 3
        if kind == 0:
            c = rng.fraction(20, 6) or Fraction(1)
            text = format_surd(c, rng.choice((2, 3, 5, 77, 216293)))
        elif kind == 1:
            f = _irreducible(rng, rng.randint(2, 4))
            index = rng.randint(0, _real_roots(f) - 1)
            lo, hi = _isolating(f, index, rng)
            g, r = f, rng.randint(-5, 5)
            if rng.randint(0, 1) and not lo <= r <= hi:
                # (X − r)·f, times 2, read as the same value
                g = [-2 * r * f[0]] + [2 * (b - r * a)
                                       for a, b in zip(f[1:], f)] + [2 * f[-1]]
            text = format_number(parse_number(_literal(g, lo, hi)))
            assert text == _canonical_literal(f, index), (f, index)
        else:
            x = _tower_value(rng)
            if isinstance(x, Fraction):
                continue
            text = format_number(x)
            assert text == format_number(as_algebraic(x)), x
        kinds.add(kind)
        y = parse_number(text)
        assert format_number(y) == text, text
        y.sign()
        y.approx(96)
        assert format_number(y) == text, text
        (z,) = one_field([y])
        assert format_number(z) == text, text
        assert format_number(-(-z)) == text, text
    assert kinds == {0, 1, 2}


def test_equal_values_print_the_same_text():
    # across (c, m) splits, fields and literals of one value
    assert format_surd(Fraction(1), 216293) == format_surd(Fraction(53), 77)
    s2 = sqrt(Fraction(2))
    half_root77 = format_surd(Fraction(1, 2), 77)
    assert format_number(sqrt(Fraction(77)) / 2) == half_root77
    assert format_number(sqrt_over(s2.field, Fraction(77)) / 2) == half_root77
    assert format_number(make_algebraic([-77, 0, 4], (4, 5))) == half_root77
    assert format_number(make_algebraic([-77, 0, 4], (0, 100))) == \
        half_root77
    # ∛(3/8) as literals of two intervals, as the generator of ℚ(α), and in
    # the field ℚ(γ) of degree 6 that adding √2 grows
    cubic = [make_algebraic([-3, 0, 0, 8], iv)
             for iv in ((0, 1), (Fraction(7, 10), Fraction(3, 4)))]
    (alpha,) = lift([cubic[0]])
    grown, _ = lift([cubic[1], make_algebraic([-2, 0, 1], (1, 2))])
    assert grown.field.n == 6
    texts = {json.dumps(format_number(v))
             for v in (*cubic, alpha, grown, as_algebraic(grown))}
    assert len(texts) == 1
    # the same √2, written over ℚ(√2), over ℚ(√3)(√2) and as a literal
    s3 = sqrt(Fraction(3))
    assert format_number(s2) == format_surd(Fraction(1), 2) == \
        format_number(sqrt_over(s3.field, Fraction(2)))


def test_tensor_add_json_is_commutative():
    # D(A) + D(B) and D(B) + D(A) are equal and print the same, for the two
    # parts of each of the 25 dissection cases at seed 303, rational and
    # scaled by ∛(3/8): a square class is named by the least radicand of
    # its members, whatever their order, and a length's text depends on its
    # value alone
    from scissors.dehn import dehn_invariant, tensor_add
    from scissors.geom.convex import (
        convex_polytope_3d,
        scaled_simplices,
        split_convex_points_3d,
    )
    from scissors.suites import (
        random_box_corners,
        random_cutting_plane,
        random_tet_corners,
    )

    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    for case in range(25):
        rng = SplitMix64.stream(303, case)
        corners = random_box_corners(rng) if case % 2 == 0 \
            else random_tet_corners(rng)
        parts = split_convex_points_3d(corners,
                                       random_cutting_plane(rng, corners))
        a, b = map(convex_polytope_3d, parts)
        for pair in ((a, b), (scaled_simplices(a, s), scaled_simplices(b, s))):
            da, db = map(dehn_invariant, pair)
            ab, ba = tensor_add(da, db), tensor_add(db, da)
            assert ab == ba, case
            assert json.dumps(ab.to_json()) == json.dumps(ba.to_json()), case


def test_parse_square_agrees_with_parse_number():
    # the reader of x² and the sign of x against `parse_number`, whose value
    # squared in a number field is the oracle: literals that are irrational,
    # rational squares, reducible, quartic, negative or not primitive, and
    # intervals that miss the root, hold both roots, or have lo = hi or
    # lo > hi

    outcomes = set()
    for case in range(400):
        rng = SplitMix64.stream(4705, case)
        a = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        if rng.randint(0, 3) == 0:
            a *= a
        k = rng.choice((1, 1, 2, -1))
        f = [-k * a.numerator, 0, k * a.denominator]
        if rng.randint(0, 4) == 0:  # X⁴ − a
            f[1:1] = [0, 0]
        elif rng.randint(0, 4) == 0:  # (X − r)·f
            r = rng.randint(-3, 3)
            f = [-r * f[0], f[0] - r * f[1], f[1] - r * f[2], f[2]]
        lo = Fraction(rng.randint(-24, 24), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(-2, 24), rng.randint(1, 4))
        lit = _literal(f, lo, hi)
        try:
            x = parse_number(lit)
        except ParseError:
            with pytest.raises(ParseError):
                parse_square(lit)
            outcomes.add("error")
            continue
        square = x * x
        want = (square, (x > 0) - (x < 0)) \
            if isinstance(square, Fraction) else None
        assert parse_square(lit) == want, lit
        outcomes.add("rational" if isinstance(x, Fraction) else
                     "square" if want else "other")
    assert outcomes == {"error", "rational", "square", "other"}
