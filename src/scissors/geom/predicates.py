"""Integer homogeneous geometry predicates.

Points with rational coordinates are handled as integer homogeneous tuples
(x_1, ..., x_n, w) with w > 0; all predicates are exact big-integer signs.
The cofactor formulas (`hdet`, `hyperplane`) use only +, − and ×, so they
are exact on Fraction and other exact scalar entries as well.
"""

from ..linalg import primitive

# named in benchmark provenance records (perfbench/worker.py)
KERNEL = "pure"


def det2(a, b, c, d):
    return a * d - b * c


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det4(m):
    r0, r1, r2, r3 = m
    total = 0
    sign = 1
    for col in range(4):
        sub = [
            [r1[j] for j in range(4) if j != col],
            [r2[j] for j in range(4) if j != col],
            [r3[j] for j in range(4) if j != col],
        ]
        if r0[col]:
            total += sign * r0[col] * det3(sub)
        sign = -sign
    return total


def hdet(rows):
    """Determinant of a k x k integer matrix, k <= 4."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return det2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if k == 3:
        return det3(rows)
    if k == 4:
        return det4(rows)
    raise ValueError("only sizes <= 4")


def orient(points):
    """Orientation sign of n+1 homogeneous points in dimension n.

    Weight column moved first so the sign matches the affine determinant
    det(p_1 - p_0, ..., p_n - p_0) for positive weights.
    """
    d = hdet([[p[-1], *p[:-1]] for p in points])
    return (d > 0) - (d < 0)


def hyperplane(points):
    """Integer functional vanishing on the span of n homogeneous points in Eⁿ.

    Coefficients are the signed cofactors along a symbolic extra row, so
    apply(hyperplane(pts), q) == hdet(rows=pts+[q]) for every q.
    """
    n1 = len(points[0])
    # expansion along the last row of the matrix [points; q]:
    # det = sum_col (-1)^{(n1-1)+col} q[col] * minor(col)
    out = []
    for col in range(n1):
        sub = [[p[j] for j in range(n1) if j != col] for p in points]
        out.append((-1) ** ((n1 - 1) + col) * hdet(sub))
    return tuple(out)


def apply_functional(func, point):
    s = 0
    for a, b in zip(func, point):
        s += a * b
    return s


def side(func, point):
    v = apply_functional(func, point)
    return (v > 0) - (v < 0)


def cut_point(alpha, beta, a, b):
    """Intersection of segment ab with the functional's zero set.

    alpha = L(a), beta = L(b) must have strictly opposite signs; returns a
    normalized homogeneous point on the open segment.
    """
    p = tuple(beta * ai - alpha * bi for ai, bi in zip(a, b))
    return primitive(p, p[-1])


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
