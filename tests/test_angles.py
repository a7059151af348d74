import math
from fractions import Fraction

import pytest
import sympy

from scissors.algebraic import (
    AlgebraicReal,
    count_roots,
    lift,
    make_algebraic,
    sqrt_nonneg,
)
from scissors.angles import (
    AnglePair,
    IntegerRelation,
    find_angle_relations,
    is_rational_angle,
    verify_relation,
    _two_cos_minpoly,
)


def angle_from_cos(q):
    return AnglePair.from_cos(q)


def test_anglepair_validates():
    with pytest.raises(ValueError):
        AnglePair(Fraction(1, 2), Fraction(1, 2))
    a = AnglePair.from_cos(Fraction(1, 2))
    assert a.sin == sqrt_nonneg(Fraction(3, 4))


def test_two_cos_minpolys_against_sympy():
    # oracle: sympy.minimal_polynomial of 2cos(2π/n)
    x = sympy.Symbol("x")
    for n in (1, 2, 3, 4, 5, 6, 7, 12):
        ours = _two_cos_minpoly(n)
        ref = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), x)
        assert list(ours) == [int(c) for c in sympy.Poly(ref, x).all_coeffs()[::-1]]


def test_cyclotomic_and_totient_against_sympy():
    from scissors.angles import _cyclotomic, _totient
    x = sympy.Symbol("x")
    for n in range(1, 201):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert _cyclotomic(n) == tuple(int(c) for c in ref)
        assert _totient(n) == sympy.totient(n)


def test_rational_angle_pi_over_3():
    a = angle_from_cos(Fraction(1, 2))
    assert is_rational_angle(a) == Fraction(1, 3)


def test_rational_angle_pi_over_4():
    c = make_algebraic([-2, 0, 4], (0, 1))  # sqrt(2)/2
    a = angle_from_cos(c)
    assert is_rational_angle(a) == Fraction(1, 4)


def test_rational_angle_pi_over_5():
    # cos(π/5) = (1+sqrt5)/4: root of 4x^2-2x-1 in (0,1)
    c = make_algebraic([-1, -2, 4], (Fraction(1, 2), 1))
    assert is_rational_angle(angle_from_cos(c)) == Fraction(1, 5)


def _cos_of_turn(j, n):
    """cos(2πj/n) exactly: the root of Ψ_n next to its float value, halved."""
    psi = _two_cos_minpoly(n)
    if len(psi) == 2:
        return Fraction(-psi[0], 2 * psi[1])
    x = Fraction(2 * math.cos(2 * math.pi * j / n))
    lo, hi = x - Fraction(1, 10**9), x + Fraction(1, 10**9)
    assert count_roots(psi, lo, hi) == 1
    (two_cos,) = lift([AlgebraicReal(psi, lo, hi)])
    return two_cos / 2


def test_rational_angle_by_root_index():
    # every θ = 2πj/n in (0, π) with n <= 30, cos of degree up to 14
    for n in range(3, 31):
        for j in range(1, (n + 1) // 2):
            if math.gcd(j, n) == 1:
                pair = angle_from_cos(_cos_of_turn(j, n))
                assert is_rational_angle(pair) == Fraction(2 * j, n), (j, n)
    assert is_rational_angle(angle_from_cos(Fraction(1, 3))) is None
    # 2cosθ = √(4/3) has the minimal polynomial 3x² − 4, not monic
    assert is_rational_angle(
        angle_from_cos(sqrt_nonneg(Fraction(1, 3)))) is None


def test_irrational_angle_arccos_one_third():
    # oracle: minimal polynomial of 2cosθ = 2/3 is 3x-2, not monic
    a = angle_from_cos(Fraction(1, 3))
    assert is_rational_angle(a) is None


def test_irrational_angle_sqrt2_over_3():
    c = make_algebraic([-2, 0, 9], (0, 1))  # sqrt(2)/3: 2c has minpoly 9x^2-8
    assert is_rational_angle(angle_from_cos(c)) is None


def test_endpoints():
    assert is_rational_angle(angle_from_cos(Fraction(1))) == 0
    assert is_rational_angle(angle_from_cos(Fraction(-1))) == 1
    assert is_rational_angle(angle_from_cos(Fraction(0))) == Fraction(1, 2)


def test_relation_theta_plus_pi_minus_theta():
    # {θ, π-θ} for cosθ = 1/3 → relation (1, 1)
    t = angle_from_cos(Fraction(1, 3))
    s = angle_from_cos(Fraction(-1, 3))
    rels = find_angle_relations([t, s], height_bound=10)
    assert rels, "expected the θ + (π-θ) = π relation"
    assert verify_relation([t, s], rels[0].coefficients)
    # the relation lattice contains (1,1): some returned generator is ±(1,1)
    # or an integer multiple chain reducing to it; at minimum (1,1) verifies:
    assert verify_relation([t, s], (1, 1))


def test_relation_double_angle():
    # oracle: cos(2θ1) = 2(1/9) - 1 = -7/9 so 2θ1 + θ2 = π
    t1 = angle_from_cos(Fraction(1, 3))
    t2 = angle_from_cos(Fraction(7, 9))
    assert verify_relation([t1, t2], (2, 1))
    rels = find_angle_relations([t1, t2], height_bound=10)
    assert rels
    found = {tuple(map(abs, r.coefficients)) for r in rels}
    assert (2, 1) in found


def test_single_irrational_angle_no_relation():
    t = angle_from_cos(Fraction(1, 3))
    assert find_angle_relations([t], height_bound=50) == []


def test_unverifiable_junk_is_rejected():
    t1 = angle_from_cos(Fraction(1, 3))
    t2 = angle_from_cos(Fraction(1, 5))
    assert not verify_relation([t1, t2], (1, 1))
    assert not verify_relation([t1, t2], (3, -2))


def test_every_returned_relation_reverifies():
    angles = [angle_from_cos(Fraction(1, 3)), angle_from_cos(Fraction(-1, 3)),
              angle_from_cos(Fraction(7, 9))]
    for rel in find_angle_relations(angles, height_bound=12):
        assert isinstance(rel, IntegerRelation)
        assert verify_relation(angles, rel.coefficients)


def test_integer_relation_compares_and_hashes_its_coefficients():
    a = IntegerRelation((1, -2), {"angles": []})
    b = IntegerRelation((1, -2))
    assert a == b and hash(a) == hash(b) and b.witness == {}
    assert a != IntegerRelation((2, -1)) and a != (1, -2)
    # the hash is taken from the coefficients, so they stay as built
    for name in ("coefficients", "witness"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.coefficients == (1, -2) and len({a, b}) == 1


def test_rational_angle_detected_via_relations():
    # π/3 alone: 3θ = π is a (certifiable) relation
    t = angle_from_cos(Fraction(1, 2))
    assert verify_relation([t], (3,))
