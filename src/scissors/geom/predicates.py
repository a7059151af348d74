"""Integer homogeneous geometry predicates.

Points with rational coordinates are handled as integer homogeneous tuples
(x_1, ..., x_n, w) with w > 0; all predicates are exact big-integer signs.

The kernel has one closed-form cofactor routine per size the package uses,
E¹ to E³.  `hyperplane` of n points in Eⁿ is (−w, x) in E¹, the cross
product in E², and in E³ the four cofactors expanded from the six 2×2
minors of the last two points, each computed once (as in Shewchuk's
orient3d).  `hdet` of a k × k matrix is the cofactor row of its first
k − 1 rows applied to the last, and `orient` is (−1)ⁿ times the sign of
`hdet` of the points as given.  The formulas use only +, − and ×, so they
are exact on Fraction and every other exact scalar as well.  `cut_point`
and `plane_key` divide integer entries by their content, so a cut point
made from earlier cut points is no bigger than the planes that define it.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from ..intvec import primitive
from ..numbers import as_scalar, scalar_key, scalar_sign

# named in benchmark provenance records (perfbench/worker.py)
KERNEL = "pure"


def hyperplane(points):
    """Functional vanishing on the span of n ≤ 3 homogeneous points in Eⁿ.

    Coefficients are the signed cofactors along a symbolic extra row, so
    apply_functional(hyperplane(pts), q) == hdet(pts + [q]) for every q.
    """
    n = len(points)
    if n == 3:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = points
        m01 = b0 * c1 - b1 * c0
        m02 = b0 * c2 - b2 * c0
        m03 = b0 * c3 - b3 * c0
        m12 = b1 * c2 - b2 * c1
        m13 = b1 * c3 - b3 * c1
        m23 = b2 * c3 - b3 * c2
        return (a2 * m13 - a1 * m23 - a3 * m12,
                a0 * m23 - a2 * m03 + a3 * m02,
                a1 * m03 - a0 * m13 - a3 * m01,
                a0 * m12 - a1 * m02 + a2 * m01)
    if n == 2:
        (a0, a1, a2), (b0, b1, b2) = points
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if n == 1:
        x, w = points[0]
        return (-w, x)
    raise ValueError("only E¹ to E³")


def hdet(rows):
    """Determinant of a k × k matrix, k ≤ 4: the cofactor row of its first
    k − 1 rows applied to the last."""
    if len(rows) == 1:
        return rows[0][0]
    return apply_functional(hyperplane(rows[:-1]), rows[-1])


def orient(points):
    """Orientation sign of n+1 homogeneous points in Eⁿ.

    For positive weights it is the sign of the affine determinant
    det(p_1 - p_0, ..., p_n - p_0), that of the matrix with the weight
    column first.  Moving that column first is a cyclic shift of the n+1
    columns, so the sign of the points as given is multiplied by (−1)ⁿ.
    """
    s = scalar_sign(hdet(points))
    return -s if len(points) % 2 == 0 else s


def apply_functional(func, point):
    return sum(map(mul, func, point))


def side(func, point):
    v = apply_functional(func, point)
    return (v > 0) - (v < 0)


def plane_key(func):
    """A hashable name of the plane of a functional, the same for every
    functional proportional to it, or None for the zero functional: its
    entries divided by the first nonzero one, as scalar keys, or, when
    those quotients are rational, as the primitive integer vector they
    span, which `primitive` gives an integer functional directly."""
    if all([type(c) is int for c in func]):
        return primitive(func) if any(func) else None
    lead = next((c for c in func if scalar_sign(c)), None)
    if lead is None:
        return None
    func = [as_scalar(as_scalar(c) / lead) for c in func]
    if not all([type(c) is Fraction for c in func]):
        return tuple(map(scalar_key, func))
    den = lcm(*[c.denominator for c in func])
    return primitive([c.numerator * (den // c.denominator) for c in func])


def cut_point(alpha, beta, a, b):
    """Intersection of segment ab with the functional's zero set.

    alpha = L(a), beta = L(b) must have strictly opposite signs and the
    weights of a and b be positive; returns a homogeneous point on the open
    segment with positive weight, divided by its content when its entries
    are integers (so its size is fixed by the planes that define it, not by
    the cuts that led to it).
    """
    # the weight β·w_a − α·w_b is positive when α < 0 < β; keeping it
    # positive lets the raw sign of a functional give a vertex's side
    if scalar_sign(alpha) > 0:
        alpha, beta, a, b = beta, alpha, b, a
    p = tuple([beta * ai - alpha * bi for ai, bi in zip(a, b)])
    if all(type(c) is int for c in p):
        return primitive(p, 1)
    return p


def centroid(points):
    """Homogeneous centroid (equal-weight average) of homogeneous points."""
    n1 = len(points[0])
    w = 1
    for p in points:
        w *= p[-1]
    coords = []
    for i in range(n1 - 1):
        s = 0
        for p in points:
            s += p[i] * (w // p[-1])
        coords.append(s)
    coords.append(len(points) * w)
    return primitive(coords, coords[-1])
