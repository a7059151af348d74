from fractions import Fraction
from math import lcm

import pytest

from scissors.algebraic import lift, make_algebraic, scalar_sign, sqrt_nonneg
from scissors.angles import is_rational_angle
from scissors.geom import (
    DimensionMismatch,
    GeometryError,
    PointOnBoundary,
    Polytope,
    Simplex,
    SimplexChain,
    VertexTable,
    boundary,
    dihedral_edges,
    make_point,
    orientation_sign,
    prism,
    signed_indicator,
    simplex,
    simplex_volume,
    to_homog,
    vertex_key,
)
from scissors.geom.convex import (
    _corners_2d,
    box,
    convex_polygon_2d,
    convex_polytope_3d,
    regular_octahedron,
    regular_tetrahedron,
    transformed,
    unit_cube,
)
from scissors.rng import SplitMix64
from oracles import regular_hexagon, right_triangle, unit_square


def det3_oracle(rows):
    # independent cofactor expansion for the volume examples
    (a, b, c), (d, e, f), (g, h, i) = [list(map(Fraction, r)) for r in rows]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_one_point_in_every_rational_form_gets_one_key_and_id():
    # a tuple of Fractions takes the direct path; ints, a list and a
    # rational AlgebraicReal are normalized first, to the same key
    q = (Fraction(1, 2), Fraction(3), Fraction(-2, 3))
    forms = [q, (make_algebraic([-1, 2], (0, 1)), 3, Fraction(-2, 3)),
             [Fraction(1, 2), 3, Fraction(-4, 6)]]
    assert make_point(q) is q
    table = VertexTable()
    for p in forms:
        assert make_point(p) == q
        assert vertex_key(make_point(p)) == vertex_key(p) == ((1, 2), (3, 1),
                                                             (-2, 3))
        assert table.add(make_point(p)) == table.add(p) == 0
    assert table.add((3, 1, 2)) == 1
    assert table.add((Fraction(3), Fraction(1), Fraction(2))) == 1


def test_irrational_coordinate_keys_through_coord_id(monkeypatch):
    import scissors.geom as geom

    (r,) = lift([sqrt_nonneg(2)])
    seen = []
    coord_id = geom._coord_id

    def counted(c):
        seen.append(c)
        return coord_id(c)

    monkeypatch.setattr(geom, "_coord_id", counted)
    assert vertex_key(make_point((r, 1))) == (r.key(), (1, 1))
    assert seen == [r, Fraction(1)]
    seen.clear()
    vertex_key((Fraction(1), Fraction(2)))
    assert seen == []
    for bad in [(Fraction(1), "a"), (1, 1.5), [Fraction(1), None]]:
        with pytest.raises(TypeError):
            make_point(bad)


def test_unit_corner_simplex_volume():
    s = simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert simplex_volume(s) == Fraction(1, 6)


def test_repeated_vertex_is_degenerate():
    s = simplex(3, (0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 1))
    assert simplex_volume(s) == 0
    assert orientation_sign(s) == 0


def test_alternating_corner_tetra_volume():
    verts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    s = simplex(3, *verts)
    rows = [[verts[i][j] - verts[0][j] for j in range(3)] for i in (1, 2, 3)]
    expected = det3_oracle(rows) / 6
    assert simplex_volume(s) == expected
    assert abs(expected) == Fraction(8, 3)


def test_orientation_transposition():
    assert orientation_sign(simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert orientation_sign(simplex(3, (0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1))) == -1
    assert orientation_sign(simplex(2, (0, 0), (1, 1), (2, 2))) == 0


def test_boundary_of_triangle():
    tri = simplex(2, (0, 0), (1, 0), (0, 1))
    faces = boundary(SimplexChain(2, [(1, tri)]))
    want = {
        ((1, 0), (0, 1)): 1,
        ((0, 0), (0, 1)): -1,
        ((0, 0), (1, 0)): 1,
    }
    got = {tuple(tuple(int(c) for c in v) for v in s.vertices): c
           for c, s in faces}
    assert got == want


def test_boundary_squared_random():
    rng = SplitMix64.stream(11, 0)
    for _ in range(10):
        verts = [tuple(rng.fraction(8, 3) for _ in range(3)) for _ in range(4)]
        ch = SimplexChain(3, [(1, simplex(3, *verts))])
        assert boundary(boundary(ch)).is_zero()


def test_volume_sign_under_permutations():
    s = simplex(3, (0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5))
    v = simplex_volume(s)
    swapped = simplex(3, (2, 0, 0), (0, 0, 0), (0, 3, 0), (0, 0, 5))
    assert simplex_volume(swapped) == -v
    even = simplex(3, (0, 3, 0), (0, 0, 0), (2, 0, 0), (0, 0, 5))
    assert simplex_volume(even) == v


def test_cube_volume_and_facets():
    c = unit_cube()
    assert c.volume() == 1
    assert len(c.chain) in (5, 6)  # hull cone of the cube


def test_cube_dihedral_angles():
    c = unit_cube()
    edges = dihedral_edges(c)
    right = [e for e in edges if scalar_sign(e.angle.cos) == 0]
    flat = [e for e in edges if e.angle.is_straight()]
    assert len(right) + len(flat) == len(edges)
    # total length of right-angle edges = 12 (unit edges, possibly split)
    total = sum((e.length for e in right), start=Fraction(0))
    assert total == 12


def test_regular_tetra_dihedral():
    t = regular_tetrahedron()
    edges = dihedral_edges(t)
    assert len(edges) == 6
    # the polytope computes its edges once and keeps them
    assert t.edges() == edges
    assert t.edges() is t.edges()
    for e in edges:
        assert e.angle.cos == Fraction(1, 3)
        assert e.length * e.length == 8


def test_regular_octahedron_dihedral():
    o = regular_octahedron()
    edges = dihedral_edges(o)
    per_angle = {}
    for e in edges:
        per_angle.setdefault(e.angle.key(), []).append(e)
    # 12 outer edges with cos θ = −1/3; interior flat edges allowed
    sharp = [e for es in per_angle.values() for e in es
             if e.angle.cos == Fraction(-1, 3)]
    assert len(sharp) == 12
    for e in sharp:
        assert e.length * e.length == 2


def test_prism_unit_square_is_cube():
    p = prism(unit_square(), 1)
    assert p.volume() == 1
    edges = dihedral_edges(p)
    for e in edges:
        assert e.angle.is_straight() or scalar_sign(e.angle.cos) == 0


def test_prism_right_triangle_volume():
    p = prism(right_triangle(1, 1), 2)
    assert p.volume() == 1


def test_prism_hexagon_volume():
    # oracle: area of the regular hexagon, side 1, is 3√3/2
    p = prism(regular_hexagon(1), 1)
    v = p.volume()
    s3 = sqrt_nonneg(Fraction(3))
    assert scalar_sign(v - s3 * Fraction(3, 2)) == 0


def test_cube_root_scaling_keeps_signs_and_scales_volumes():
    # every vertex has one homogeneous point: integers when rational, the
    # coordinates with weight 1 otherwise.  Under x ↦ ∛(3/8)·x a seeded
    # rational simplex keeps its orientation and its volume scales by
    # ∛(3/8)^dim (3/8 in E³); a chain keeps its signed indicator at the
    # scaled sample points, PointOnBoundary included; and a mixed simplex,
    # some vertices rational and some irrational, has the sign of its
    # all-irrational scaled copy
    (s,) = lift([make_algebraic([-3, 0, 0, 8], (0, 1))])

    def scaled(pts):
        return tuple(tuple(s * c for c in p) for p in pts)

    def indicator(chain, x):
        try:
            return signed_indicator(chain, x)
        except PointOnBoundary:
            return "on boundary"

    signs, mixed, hits = set(), set(), set()
    factor = 1
    for dim in (1, 2, 3):
        factor = factor * s
        for case in range(6):
            rng = SplitMix64.stream(1901 + dim, case)
            cells = [tuple(tuple(rng.fraction(4, 2) for _ in range(dim))
                           for _ in range(dim + 1)) for _ in range(3)]
            for pts in cells:
                a, b = Simplex(dim, pts), Simplex(dim, scaled(pts))
                assert orientation_sign(b) == orientation_sign(a)
                assert scalar_sign(simplex_volume(b)
                                   - factor * simplex_volume(a)) == 0
                m = pts[:1] + scaled(pts[1:])
                sign = orientation_sign(Simplex(dim, m))
                assert sign == orientation_sign(Simplex(dim, scaled(m)))
                signs.add(orientation_sign(a))
                mixed.add(sign)
            coeffs = [1, -2, 1]
            chain = SimplexChain(dim, [(c, Simplex(dim, pts))
                                       for c, pts in zip(coeffs, cells)])
            image = SimplexChain(dim, [(c, Simplex(dim, scaled(pts)))
                                       for c, pts in zip(coeffs, cells)])
            for _ in range(6):
                x = tuple(rng.fraction(4, 2) for _ in range(dim))
                got = indicator(chain, x)
                assert indicator(image, tuple(s * c for c in x)) == got
                hits.add(got)
    assert factor == Fraction(3, 8)
    assert {1, -1} <= signs and {1, -1} <= mixed
    assert len(hits - {0}) >= 2  # the samples hit cells, not only misses


def test_signed_indicator_cube():
    c = unit_cube()
    # generic interior / exterior points (off every facet hyperplane)
    assert signed_indicator(
        c.chain, (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))) == 1
    assert signed_indicator(c.chain, (2, 3, 5)) == 0
    with pytest.raises(PointOnBoundary):
        signed_indicator(c.chain, (Fraction(1, 2), Fraction(1, 2), 0))


def test_convex_polygon_hull():
    pts = [(0, 0), (4, 0), (4, 3), (0, 3), (1, 1), (2, 2)]
    poly = convex_polygon_2d(pts)
    assert poly.volume() == 12


def test_convex_polytope_octahedron_volume():
    o = regular_octahedron()
    assert o.volume() == Fraction(4, 3)


def test_transformed_volume_invariance():
    # 3-4-5 rotation about z: exact rational orthogonal matrix
    R = [(Fraction(3, 5), Fraction(-4, 5), 0),
         (Fraction(4, 5), Fraction(3, 5), 0),
         (0, 0, 1)]
    c = unit_cube()
    rc = transformed(c, R, shift=(1, 2, 3))
    assert rc.volume() == 1
    angles_a = sorted(e.angle.key() for e in dihedral_edges(c))
    angles_b = sorted(e.angle.key() for e in dihedral_edges(rc))
    assert angles_a == angles_b


def test_transformed_reflection_keeps_dihedrals():
    M = [(-1, 0, 0), (0, 1, 0), (0, 0, 1)]
    t = regular_tetrahedron()
    rt = transformed(t, M)
    assert rt.volume() == t.volume()
    assert sorted(e.angle.key() for e in dihedral_edges(rt)) == \
        sorted(e.angle.key() for e in dihedral_edges(t))


def test_algebraic_rotation_dihedrals():
    # rotation by π/4: entries √2/2, exercising the generic scalar path
    r = make_algebraic([-2, 0, 4], (0, 1))  # √2/2
    R = [(r, -r, 0), (r, r, 0), (0, 0, 1)]
    t = regular_tetrahedron()
    rt = transformed(t, R)
    assert scalar_sign(rt.volume() - t.volume()) == 0
    for e in dihedral_edges(rt):
        assert e.angle.cos == Fraction(1, 3)


def test_convex_dihedral_angles_are_proper():
    rng = SplitMix64.stream(5, 0)
    pts = [tuple(rng.fraction(6, 2) for _ in range(3)) for _ in range(7)]
    try:
        p = convex_polytope_3d(pts)
    except Exception:
        pytest.skip("degenerate random configuration")
    for e in dihedral_edges(p):
        if e.angle.is_straight():
            continue  # interior facet-subdivision edges
        assert scalar_sign(e.angle.sin) > 0


def test_box_dimension_checks():
    with pytest.raises(DimensionMismatch):
        simplex_volume(simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0)))


def test_rational_angle_of_cube_edges():
    c = unit_cube()
    for e in dihedral_edges(c):
        q = is_rational_angle(e.angle)
        assert q in (Fraction(1, 2), Fraction(1))


def test_hull_cells_skip_points_inside_facets_and_edges():
    # a pyramid of volume 2 over a base quadrilateral that holds one point
    # inside it and one inside an edge; cone it from every point in turn
    pts = [(0, 0, 1), (0, 1, 0), (2, 1, 0), (3, 1, 3), (1, 1, 3),
           (2, 1, 2), (1, 1, 0)]
    corners = set(pts[:5])
    for i in range(len(pts)):
        p = convex_polytope_3d(pts[i:] + pts[:i])
        assert p.volume() == 2
        used = {v for _, s in p.chain for v in s.vertices}
        assert used <= {make_point(v) for v in corners | {pts[i]}}
    square = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 2, 1), (1, 1, 1), (0, 2, 1)]
    assert _corners_2d(square) == [0, 2, 3, 5]


def _sat_axes(pa, pb, dim):
    """Every candidate separating axis of the cells with vertices pa and
    pb: the facet normals of each, then in E³ the cross products of their
    edges."""
    from scissors.geom import _cross3, _sub
    if dim == 1:
        return [(1,)]
    axes = []
    if dim == 2:
        for pts in (pa, pb):
            for i in range(3):
                e = _sub(pts[(i + 1) % 3], pts[i])
                axes.append((-e[1], e[0]))
        return axes
    for pts in (pa, pb):
        for i in range(4):
            tri = [pts[j] for j in range(4) if j != i]
            axes.append(_cross3(_sub(tri[1], tri[0]), _sub(tri[2], tri[0])))
    ea = [_sub(pa[j], pa[i]) for i in range(4) for j in range(i + 1, 4)]
    eb = [_sub(pb[j], pb[i]) for i in range(4) for j in range(i + 1, 4)]
    axes.extend(_cross3(u, v) for u in ea for v in eb)
    return axes


def _sat_interval(points, axis):
    values = [sum(a * c for a, c in zip(axis, p)) for p in points]
    lo = hi = values[0]
    for v in values[1:]:
        if scalar_sign(v - lo) < 0:
            lo = v
        if scalar_sign(v - hi) > 0:
            hi = v
    return lo, hi


def _sat_overlap(pa, pb, dim):
    """The separating-axis test that `Polytope.validate` used before its
    plane-sign check: the interiors of the cells meet unless their
    intervals on some nonzero axis share at most an end point."""
    for axis in _sat_axes(pa, pb, dim):
        if all(scalar_sign(a) == 0 for a in axis):
            continue
        la, ha = _sat_interval(pa, axis)
        lb, hb = _sat_interval(pb, axis)
        if scalar_sign(ha - lb) <= 0 or scalar_sign(hb - la) <= 0:
            return False
    return True


def _overlap(pa, pb):
    """The plane-sign check of `Polytope.validate` on two cells."""
    from scissors.geom import _disjoint, _facet_planes
    a, b = (tuple(map(to_homog, pts)) for pts in (pa, pb))
    return not _disjoint(a, b, _facet_planes(a), _facet_planes(b))


def _shifted(pts, d):
    return tuple(tuple(a + b for a, b in zip(p, d)) for p in pts)


def _random_cell(rng, dim):
    while True:
        pts = tuple(tuple(rng.fraction(6, 3) for _ in range(dim))
                    for _ in range(dim + 1))
        if orientation_sign(Simplex(dim, pts)) != 0:
            return pts


def test_overlap_check_agrees_with_the_separating_axis_test():
    # the plane-sign check of validate against the separating-axis test it
    # replaced, on integer-scaled points and on points with their own
    # weights; the first cases also on weight-1 algebraic points, and
    # against the --exact-strict refinement of the two-cell chain
    from scissors.geom.refine import chain_covers_once

    def covered_once(cells, dim):
        # each cell positively oriented
        return chain_covers_once(SimplexChain(dim, [
            (orientation_sign(s), s) for s in
            (Simplex(dim, tuple(map(make_point, pts))) for pts in cells)]))

    verdicts = {}
    pairs = 0
    for dim in (1, 2, 3):
        move = (sqrt_nonneg(2) / 3,) + (0,) * (dim - 1)
        for case in range(540):
            rng = SplitMix64.stream(71, 1000 * dim + case)
            pa, other = _random_cell(rng, dim), _random_cell(rng, dim)
            centroid = tuple(sum(c) / (dim + 1) for c in zip(*pa))
            # the cell through one facet of A and its last vertex mirrored
            # in that facet's centroid: the two meet only in that facet
            facet = pa[:-1]
            mid = tuple(sum(c) / dim for c in zip(*facet))
            touching = facet + (tuple(2 * m - v for m, v in
                                      zip(mid, pa[-1])),)
            nested = tuple(tuple((c + v) / 2 for c, v in zip(centroid, p))
                           for p in pa)
            small = tuple(rng.fraction(2, 3) for _ in range(dim))
            far = (Fraction(13),) + (Fraction(0),) * (dim - 1)
            for kind, pb, want in (("touching", touching, False),
                                   ("nested", nested, True),
                                   ("translated", _shifted(pa, small), None),
                                   ("disjoint", _shifted(pa, far), False),
                                   ("random", other, None),
                                   ("identical", pa, True)):
                # both cells scaled to integers by one w, as the SAT had them
                w = lcm(*(c.denominator for p in pa + pb for c in p))
                ia, ib = (tuple(tuple(int(c * w) for c in p) for p in pts)
                          for pts in (pa, pb))
                got = _sat_overlap(ia, ib, dim)
                assert _overlap(ia, ib) == got, (kind, pa, pb)
                assert _overlap(pa, pb) == got, (kind, pa, pb)
                assert want is None or got == want, (kind, pa, pb)
                pairs += 1
                verdicts.setdefault((dim, kind), set()).add(got)
                if case >= 25:
                    continue
                moved = _shifted(pa, move), _shifted(pb, move)
                assert _overlap(*moved) == got, (kind, moved)
                pairs += 1
                for cells in ((pa, pb), moved):
                    assert covered_once(cells, dim) == (not got), (kind, cells)
    assert pairs >= 10_000
    # the seeded translations and random pairs hit both verdicts
    for dim in (1, 2, 3):
        for kind in ("translated", "random"):
            assert verdicts[dim, kind] == {False, True}, (dim, kind)


def _overlap_raised(dim, cells) -> bool:
    """Whether building the polytope of the cells raises "overlapping
    interiors"."""
    try:
        Polytope(SimplexChain(dim, [(1, simplex(dim, *c)) for c in cells]))
    except GeometryError as exc:
        return "overlapping interiors" in str(exc)
    return False


def test_overlap_verdict_is_kept_by_isometries():
    # metamorphic: whether validate finds overlapping cells in a seeded set
    # of two to four cells, each drawn or placed against the first, does not
    # change under a signed permutation, a 3-4-5 rotation or a translation,
    # rational or by √2/3; unless a cell repeats, it is the verdict of the
    # refinement of the chain
    from scissors.geom.refine import chain_covers_once

    seen = set()
    for dim in (2, 3):
        root = sqrt_nonneg(2) / 3
        for case in range(60):
            rng = SplitMix64.stream(72, 100 * dim + case)
            a = _random_cell(rng, dim)
            centroid = tuple(sum(c) / (dim + 1) for c in zip(*a))
            edge = tuple((y - x) / 3 for x, y in zip(a[0], a[1]))
            cells = [a]
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(("touching", "overlapping", "nested",
                                   "disjoint", "random"))
                if kind == "touching":
                    i = rng.randint(0, dim)
                    facet = a[:i] + a[i + 1:]
                    mid = tuple(sum(c) / dim for c in zip(*facet))
                    cells.append(facet + (tuple(2 * m - v for m, v in
                                                zip(mid, a[i])),))
                elif kind == "overlapping":
                    cells.append(_shifted(a, edge))
                elif kind == "nested":
                    cells.append(tuple(tuple((c + v) / 2 for c, v in
                                             zip(centroid, p)) for p in a))
                elif kind == "random":
                    cells.append(_random_cell(rng, dim))
                else:
                    cells.append(_shifted(a, (Fraction(9 * len(cells)),)
                                          + (Fraction(0),) * (dim - 1)))
            if case % 6 == 5:
                cells.append(a)  # a repeated cell, refused before overlap
            got = _overlap_raised(dim, cells)
            perm = list(range(dim))
            for i in range(dim - 1, 0, -1):
                j = rng.randint(0, i)
                perm[i], perm[j] = perm[j], perm[i]
            signs = [rng.choice((-1, 1)) for _ in range(dim)]
            i = rng.randint(0, dim - 1)
            j = (i + rng.randint(1, dim - 1)) % dim

            def rotated(p):
                q = list(p)
                q[i] = (3 * p[i] - 4 * p[j]) / 5
                q[j] = (4 * p[i] + 3 * p[j]) / 5
                return tuple(q)

            shift = tuple(rng.fraction(6, 3) for _ in range(dim))
            for image in (
                    lambda p: tuple(s * p[k] for s, k in zip(signs, perm)),
                    rotated,
                    lambda p: tuple(x + y for x, y in zip(p, shift)),
                    lambda p: (p[0] + root,) + p[1:]):
                moved = [tuple(map(image, c)) for c in cells]
                assert _overlap_raised(dim, moved) == got, (dim, case)
            if len(set(cells)) == len(cells):
                chain = SimplexChain(dim, [(1, simplex(dim, *c))
                                           for c in cells])
                chain = SimplexChain(dim, [(orientation_sign(s), s)
                                           for _, s in chain])
                assert got == (not chain_covers_once(chain)), (dim, case)
                seen.add((dim, got))
    assert seen == {(2, False), (2, True), (3, False), (3, True)}
