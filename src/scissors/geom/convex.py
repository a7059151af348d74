"""Convex polytope construction: brute-force exact hulls and stock shapes.

Hulls are only needed for rational vertex sets (random generators, plane
splits of boxes and tetrahedra, the octahedron); the facet loop is cubic in
the number of points, which is fine at those sizes.  Facet polygons are
fan-triangulated and the solid is coned from a vertex, so the resulting
dissection is conforming (no hanging interfaces between cells).
"""

from fractions import Fraction

from ..algebraic import lift
from ..linalg import primitive
from . import (
    InvalidPolytope,
    Polytope,
    Simplex,
    SimplexChain,
    VertexTable,
    from_homog,
    make_point,
    to_homog,
)
from . import predicates as hp


def _facet_planes_3d(hpts):
    planes = {}
    n = len(hpts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                func = hp.hyperplane([hpts[i], hpts[j], hpts[k]])
                if not any(func):
                    continue
                canon = primitive(func)
                if canon in planes or _neg(canon) in planes:
                    continue
                sides = [hp.side(func, p) for p in hpts]
                if all(s <= 0 for s in sides):
                    planes[canon] = func
                elif all(s >= 0 for s in sides):
                    planes[_neg(canon)] = _neg(func)
    return list(planes.values())


def _neg(func):
    return tuple(-c for c in func)


def _order_cycle_3d(pts_h, func):
    """Order coplanar homogeneous points into a convex cycle, normal outward.

    The outward side is where func is positive (hull points all have
    func <= 0).
    """
    # drop the coordinate in which the plane normal is largest
    normal = func[:3]
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]

    def project(p):
        return (p[keep[0]], p[keep[1]], p[3])

    pts2 = [project(p) for p in pts_h]
    # only corners: a point inside the facet, or inside an edge that the
    # fans of both facets at it need not split alike, is no fan vertex
    corners = _corners_2d(pts2)
    pts_h = [pts_h[i] for i in corners]
    pts2 = [pts2[i] for i in corners]
    cycle = [pts_h[i] for i in _angular_order_2d(pts2, hp.centroid(pts2))]
    # orient the cycle so the induced normal points to the positive side
    for a in range(len(cycle)):
        b, cc = (a + 1) % len(cycle), (a + 2) % len(cycle)
        tri = [cycle[a], cycle[b], cycle[cc]]
        probe = hp.hyperplane(tri)
        s = _cycle_normal_agrees(probe, func)
        if s != 0:
            if s < 0:
                cycle.reverse()
            break
    return cycle


def _cycle_normal_agrees(probe, func) -> int:
    # both functionals vanish on the plane; compare normal directions
    for i in range(3):
        if probe[i] != 0 and func[i] != 0:
            return (1 if (probe[i] > 0) == (func[i] > 0) else -1)
    return 0


def _fan(dim, cycle, apex=()):
    """Cells fanning a convex cycle from its first vertex, each coned from
    the apex vertices; Polytope drops the degenerate ones and orients the
    rest."""
    return [(1, Simplex(dim, apex + (cycle[0], cycle[t], cycle[t + 1])))
            for t in range(1, len(cycle) - 1)]


def convex_polytope_3d(points, name: str = "") -> Polytope:
    """Conforming tetrahedralization of the hull of rational points in E³."""
    pts = [make_point(p) for p in points]
    if not all(len(p) == 3 for p in pts):
        raise ValueError("need 3D points")
    hpts = [to_homog(p) for p in dict.fromkeys(pts)]
    planes = _facet_planes_3d(hpts)
    if not planes:
        raise InvalidPolytope("points not full-dimensional")
    apex = hpts[0]
    tets = []
    for func in planes:
        if hp.apply_functional(func, apex) == 0:
            continue  # cone over facets not containing the apex
        on = [p for p in hpts if hp.apply_functional(func, p) == 0]
        cycle = [from_homog(q) for q in _order_cycle_3d(on, func)]
        tets.extend(_fan(3, cycle, (from_homog(apex),)))
    return Polytope(SimplexChain(3, tets), name=name)


def convex_polygon_2d(points, name: str = "") -> Polytope:
    """Fan triangulation of the convex hull of rational points in E²."""
    hpts = [to_homog(p) for p in dict.fromkeys(make_point(p) for p in points)]
    c = hp.centroid(hpts)
    verts = [hpts[i] for i in _corners_2d(hpts)]
    if len(verts) < 3:
        raise InvalidPolytope("points not full-dimensional")
    cycle = [from_homog(verts[i]) for i in _angular_order_2d(verts, c)]
    return Polytope(SimplexChain(2, _fan(2, cycle)), name=name)


def _corners_2d(hpts):
    """Indices, in input order, of the corners of the hull of distinct
    homogeneous points in E² (weights positive): points inside the hull or
    inside one of its edges are left out."""
    def towards(a, b):
        return (b[0] * a[2] - a[0] * b[2], b[1] * a[2] - a[1] * b[2])

    def within(k, i, j):  # k, collinear with i and j, lies in [i, j]
        ik, ij = towards(hpts[i], hpts[k]), towards(hpts[i], hpts[j])
        jk, ji = towards(hpts[j], hpts[k]), towards(hpts[j], hpts[i])
        return (ik[0] * ij[0] + ik[1] * ij[1] >= 0
                and jk[0] * ji[0] + jk[1] * ji[1] >= 0)

    corners = set()
    n = len(hpts)
    for i in range(n):
        for j in range(i + 1, n):
            func = hp.hyperplane([hpts[i], hpts[j]])
            sides = [hp.side(func, p) for p in hpts]
            if not (all(t <= 0 for t in sides) or all(t >= 0 for t in sides)):
                continue
            if all(within(k, i, j) for k in range(n) if sides[k] == 0):
                corners.update((i, j))
    return sorted(corners)


def _angular_order_2d(hpts, c):
    """Indices of homogeneous points in E² sorted by exact angle around the
    homogeneous point c, starting from the direction of the positive x-axis."""
    def half_and_cross(a):
        ax = a[0] * c[2] - c[0] * a[2]
        ay = a[1] * c[2] - c[1] * a[2]
        upper = (ay > 0) or (ay == 0 and ax > 0)
        return upper, ax, ay

    def less(i, j):
        ui, xi, yi = half_and_cross(hpts[i])
        uj, xj, yj = half_and_cross(hpts[j])
        if ui != uj:
            return ui  # upper half first
        return xi * yj - xj * yi > 0

    order = []
    for i in range(len(hpts)):
        lo = 0
        while lo < len(order) and less(order[lo], i):
            lo += 1
        order.insert(lo, i)
    return order


def polygon_from_cycle(points, name: str = "") -> Polytope:
    """Fan triangulation of an explicitly ordered convex polygon (any scalars)."""
    cycle = [make_point(p) for p in points]
    return Polytope(SimplexChain(2, _fan(2, cycle)), name=name)


def split_convex_points_3d(points, func):
    """Vertex sets of the two halves of a convex solid cut by a functional.

    `points` are the rational vertices of the solid (its hull); `func` is an
    integer homogeneous functional.  Cut points are produced on all hull
    edges crossed by the plane.
    """
    pts = [make_point(p) for p in points]
    hpts = [to_homog(p) for p in pts]
    planes = _facet_planes_3d(hpts)
    edges = set()
    for f in planes:
        on = [i for i, p in enumerate(hpts) if hp.apply_functional(f, p) == 0]
        # edges of the facet: consecutive in the cycle
        cyc = _order_cycle_3d([hpts[i] for i in on], f)
        index_of = {hpts[i]: i for i in on}
        m = len(cyc)
        for t in range(m):
            a, b = index_of[cyc[t]], index_of[cyc[(t + 1) % m]]
            edges.add((min(a, b), max(a, b)))
    vals = [hp.apply_functional(func, p) for p in hpts]
    side_a = [pts[i] for i, v in enumerate(vals) if v >= 0]
    side_b = [pts[i] for i, v in enumerate(vals) if v <= 0]
    for (i, j) in edges:
        if (vals[i] > 0 and vals[j] < 0) or (vals[i] < 0 and vals[j] > 0):
            cut = from_homog(hp.cut_point(vals[i], vals[j], hpts[i], hpts[j]))
            side_a.append(cut)
            side_b.append(cut)
    return side_a, side_b


# -- stock shapes ------------------------------------------------------------------

def box(lo, hi, name: str = "box") -> Polytope:
    """Axis-aligned box [lo, hi] in E³ via its hull."""
    lo = make_point(lo)
    hi = make_point(hi)
    corners = []
    for mx in range(8):
        corners.append(tuple(hi[i] if (mx >> i) & 1 else lo[i]
                             for i in range(3)))
    return convex_polytope_3d(corners, name=name)


def unit_cube() -> Polytope:
    return box((0, 0, 0), (1, 1, 1), name="unit cube")


def tetrahedron(a, b, c, d, name: str = "tetra") -> Polytope:
    s = Simplex(3, tuple(make_point(p) for p in (a, b, c, d)))
    return Polytope(SimplexChain(3, [(1, s)]), name=name)


def regular_tetrahedron(scale=Fraction(1), name: str = "regular tetra"):
    """Regular tetrahedron on (±1, ±1, ±1) alternating corners, scaled."""
    base = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    pts = [tuple(scale * Fraction(c) for c in p) for p in base]
    return tetrahedron(*pts, name=name)


def regular_octahedron(name: str = "regular octahedron") -> Polytope:
    """The octahedron on the points ±eᵢ: edge length √2, volume 4/3."""
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return convex_polytope_3d(pts, name=name)


def _image(p: Polytope, extra, move, name: str) -> Polytope:
    """The image of p under `move`, called once per vertex as
    move(coordinates, extra) on the vertex's coordinates and the scalars
    `extra`, all lifted into one number field; the cells keep their order."""
    t = p.chain.table
    points = list(map(t.point, range(len(t.keys))))
    flat = iter(lift(list(extra) + [x for v in points for x in v]))
    extra = [next(flat) for _ in extra]
    table = VertexTable()
    ids = [table.add(move([next(flat) for _ in v], extra)) for v in points]
    cells = [(c, tuple([ids[i] for i in v])) for c, v in p.chain.ids]
    return Polytope(SimplexChain.from_ids(p.dim, table, cells), name=name,
                    validate=False)


def scaled_simplices(p: Polytope, factor) -> Polytope:
    """Polytope scaled about the origin by an exact positive factor."""
    return _image(p, [factor], lambda v, e: tuple(x * e[0] for x in v),
                  f"{p.name} scaled")


def transformed(p: Polytope, matrix, shift=None) -> Polytope:
    """Image of a polytope under an exact affine map (matrix rows)."""
    dim = p.dim
    shift = list(shift) if shift is not None else [0] * dim

    def move(v, e):  # e: the matrix entries row by row, then the shift
        return tuple(sum((e[i * dim + j] * v[j] for j in range(dim)),
                         start=Fraction(0)) + e[dim * dim + i]
                     for i in range(dim))

    return _image(p, [x for r in matrix for x in r] + shift, move,
                  f"{p.name} moved")
