"""Properties of the integer homogeneous predicate kernel on seeded points.

Each predicate is checked against the plain Fraction arithmetic it stands
for: affine determinants, the cofactor expansion, segment interpolation and
the coordinate mean.
"""

from fractions import Fraction
from math import gcd

import pytest

from scissors.geom import from_homog
from scissors.geom.predicates import (
    apply_functional,
    centroid,
    cut_point,
    hdet,
    hyperplane,
    orient,
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
