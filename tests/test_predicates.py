"""Properties of the integer homogeneous predicate kernel on seeded points.

Each predicate is checked against the plain Fraction arithmetic it stands
for: affine determinants, the cofactor expansion, segment interpolation and
the coordinate mean.  The closed-form cofactor routines are also checked
against the generic Laplace expansion they replace, on big integers,
Fractions and elements of the number field ℚ(∛(3/8)).
"""

from fractions import Fraction
from math import gcd

import pytest

from scissors.algebraic import lift, make_algebraic, scalar_sign, sqrt_nonneg
from scissors.geom import from_homog
from scissors.geom.predicates import (
    apply_functional,
    centroid,
    cut_point,
    hdet,
    hyperplane,
    orient,
    plane_key,
    side,
)
from scissors.linalg import det_small, primitive
from scissors.rng import SplitMix64

CASES = 40


def sign(x):
    return (x > 0) - (x < 0)


def rand_point(rng, dim, bound):
    """Homogeneous integer point: coordinates in [-bound, bound], weight >= 1."""
    return tuple(rng.randint(-bound, bound) for _ in range(dim)) + \
        (rng.randint(1, 100),)


def streams(dim, bound):
    for case in range(CASES):
        yield SplitMix64.stream(7000 + 10 * dim + (bound > 10), case)


def on_segment_strictly(c, a, b):
    """c = a + t(b − a) for some 0 < t < 1 (affine points, a != b)."""
    i = next(i for i in range(len(a)) if a[i] != b[i])
    t = (c[i] - a[i]) / (b[i] - a[i])
    return 0 < t < 1 and all(c[j] - a[j] == t * (b[j] - a[j])
                             for j in range(len(a)))


@pytest.mark.parametrize("bound", [3, 10 ** 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orient_is_sign_of_affine_determinant(dim, bound):
    zeros = 0
    for rng in streams(dim, bound):
        pts = [rand_point(rng, dim, bound) for _ in range(dim + 1)]
        aff = [from_homog(p) for p in pts]
        edges = [[v[i] - aff[0][i] for i in range(dim)] for v in aff[1:]]
        assert orient(pts) == sign(det_small(edges))
        zeros += orient(pts) == 0
    if bound == 10 ** 12:
        assert zeros == 0


@pytest.mark.parametrize("bound", [3, 10 ** 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hyperplane_is_cofactor_expansion(dim, bound):
    for rng in streams(dim, bound):
        pts = [rand_point(rng, dim, bound) for _ in range(dim)]
        func = hyperplane(pts)
        for p in pts:
            assert apply_functional(func, p) == 0
        for _ in range(3):
            q = rand_point(rng, dim, bound)
            value = apply_functional(func, q)
            assert value == hdet(pts + [q])
            assert side(func, q) == sign(value)


@pytest.mark.parametrize("bound", [3, 10 ** 12])
def test_hyperplane_through_a_direction_of_weight_zero(bound):
    # the plane through a and b parallel to d, as in the overlap check of
    # Polytope.validate: a weight-0 point is a direction
    for rng in streams(3, bound):
        a, b = rand_point(rng, 3, bound), rand_point(rng, 3, bound)
        d = rand_point(rng, 3, bound)[:3] + (0,)
        func = hyperplane([a, b, d])
        for p in (a, b, tuple(x + y for x, y in zip(a, d))):
            assert apply_functional(func, p) == 0
        for _ in range(3):
            q = rand_point(rng, 3, bound)
            assert apply_functional(func, q) == hdet([a, b, d, q])


@pytest.mark.parametrize("bound", [3, 10 ** 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cut_point_lies_inside_segment_on_plane(dim, bound):
    cuts = 0
    for rng in streams(dim, bound):
        func = hyperplane([rand_point(rng, dim, bound) for _ in range(dim)])
        a = rand_point(rng, dim, bound)
        alpha = apply_functional(func, a)
        if alpha == 0:
            continue
        for _ in range(20):
            b = rand_point(rng, dim, bound)
            beta = apply_functional(func, b)
            if sign(beta) == -sign(alpha):
                break
        else:
            continue
        c = cut_point(alpha, beta, a, b)
        assert gcd(*c) == 1
        assert c[-1] > 0
        assert apply_functional(func, c) == 0
        assert on_segment_strictly(from_homog(c), from_homog(a),
                                   from_homog(b))
        cuts += 1
    assert cuts >= CASES // 2


@pytest.mark.parametrize("bound", [3, 10 ** 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_centroid_is_fraction_mean(dim, bound):
    for rng in streams(dim, bound):
        pts = [rand_point(rng, dim, bound)
               for _ in range(rng.randint(1, dim + 2))]
        aff = [from_homog(p) for p in pts]
        mean = tuple(sum((v[i] for v in aff), Fraction(0)) / len(aff)
                     for i in range(dim))
        c = centroid(pts)
        assert c[-1] > 0
        assert from_homog(c) == mean


@pytest.mark.parametrize("bound", [3, 10 ** 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hnormalize_is_idempotent(dim, bound):
    # a homogeneous point is normalized by primitive(p, p[-1])
    def hnormalize(p):
        return primitive(p, p[-1])

    for rng in streams(dim, bound):
        p = rand_point(rng, dim, bound)
        k = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
        q = hnormalize(tuple(k * x for x in p))
        assert hnormalize(q) == q
        assert q == hnormalize(p)
        assert q[-1] > 0 and gcd(*q) == 1
        assert from_homog(q) == from_homog(p)


# -- the closed forms against the generic Laplace expansion -----------------

def laplace_det(rows):
    """Determinant by Laplace expansion along the first row, building every
    minor: the generic routine the closed forms replace."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for col in range(k):
        minor = [[r[j] for j in range(k) if j != col] for r in rows[1:]]
        term = rows[0][col] * laplace_det(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def laplace_hyperplane(points):
    """Signed cofactors of the n points along a symbolic last row."""
    n1 = len(points[0])
    out = []
    for col in range(n1):
        minor = laplace_det([[p[j] for j in range(n1) if j != col]
                             for p in points])
        out.append(minor if (n1 - 1 + col) % 2 == 0 else -minor)
    return tuple(out)


def laplace_orient(points):
    """Sign of the determinant with the weight column moved first."""
    return scalar_sign(laplace_det([[p[-1], *p[:-1]] for p in points]))


def scalar_kinds():
    """name -> draw per kind of entry: draw(rng) gives one scalar."""
    (alpha,) = lift([make_algebraic([-3, 0, 0, 8], (0, 1))])  # ∛(3/8)

    def field_element(rng):
        a, b, c = (rng.fraction(6, 4) for _ in range(3))
        return a + b * alpha + c * alpha * alpha

    return {
        "int": lambda rng: rng.randint(-10 ** 12, 10 ** 12),
        "fraction": lambda rng: rng.fraction(10 ** 6, 10 ** 3),
        "field": field_element,
    }


KINDS = scalar_kinds()
each_kind = pytest.mark.parametrize("draw", list(KINDS.values()),
                                    ids=list(KINDS))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@each_kind
def test_closed_forms_match_laplace_expansion(draw, k):
    for case in range(12):
        rng = SplitMix64.stream(7100 + 10 * k, case)
        rows = [tuple(draw(rng) for _ in range(k)) for _ in range(k)]
        det = hdet(rows)
        assert det == laplace_det(rows)
        if k == 1:
            continue
        head, q = rows[:-1], rows[-1]
        func = hyperplane(head)
        assert func == laplace_hyperplane(head)
        assert apply_functional(func, q) == det
        assert all(scalar_sign(apply_functional(func, p)) == 0 for p in head)
        assert orient(rows) == laplace_orient(rows)
        swapped = [rows[1], rows[0], *rows[2:]]
        assert orient(swapped) == -orient(rows)


@each_kind
def test_closed_forms_vanish_on_dependent_rows(draw):
    # a last row in the span of the others: every size gives 0
    for k in (2, 3, 4):
        for case in range(3):
            rng = SplitMix64.stream(7200 + k, case)
            head = [tuple(draw(rng) for _ in range(k)) for _ in range(k - 1)]
            c = [rng.randint(-5, 5) for _ in head]
            q = tuple(sum((ci * p[j] for ci, p in zip(c, head)), 0)
                      for j in range(k))
            assert scalar_sign(hdet(head + [q])) == 0
            assert orient(head + [q]) == 0


def test_sizes_above_e3_raise():
    with pytest.raises(ValueError):
        hdet([[int(i == j) for j in range(5)] for i in range(5)])
    with pytest.raises(ValueError):
        hyperplane([tuple(int(i == j) for j in range(5)) for i in range(4)])


def test_plane_key_names_proportional_functionals_alike():
    # integer, rational and irrational multiples of one functional share a
    # key; a functional off the plane, or of another plane, does not
    root2 = sqrt_nonneg(2)
    for rng in streams(3, 50):
        f = hyperplane([rand_point(rng, 3, 50) for _ in range(3)])
        if not any(f):
            continue
        key = plane_key(f)
        assert key == primitive(f)
        k = rng.randint(1, 9) * rng.choice((-1, 1))
        assert plane_key(tuple(k * c for c in f)) == key
        assert plane_key(tuple(Fraction(c, 7 * k) for c in f)) == key
        moved = tuple(root2 * c for c in f)
        assert plane_key(moved) == key
        assert plane_key(tuple(-c for c in moved)) == key
        g = f[:-1] + (f[-1] + 1,)
        assert plane_key(g) != key
        assert plane_key(tuple(root2 * c for c in g)) != key
        # an irrational plane: the quotients are not all rational
        h = f[:-1] + (f[-1] + root2,)
        assert plane_key(h) == plane_key(tuple(Fraction(k, 3) * c for c in h))
        assert plane_key(h) != key
