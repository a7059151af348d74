from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import permutations, product
from math import gcd

import pytest

from scissors.algebraic import lift, make_algebraic, sqrt_nonneg
from scissors.errors import RefinementTooLarge
from scissors.geom import (
    InvalidPolytope,
    Polytope,
    Simplex,
    SimplexChain,
    boundary_facets,
    make_point,
    predicates as hp,
    simplex,
)
from scissors.geom.convex import (
    box,
    convex_polygon_2d,
    convex_polytope_3d,
    split_convex_points_3d,
    tetrahedron,
    transformed,
    unit_cube,
)
from scissors.geom import refine
from scissors.geom.refine import (
    chain_covers_once,
    chain_vanishes,
    phi_boundary_chain,
    phi_boundary_check,
    refinement_pieces,
    split_simplex,
    verify_dissection,
    _group_by_plane,
    _refine_cell,
)
from scissors.intvec import primitive
from scissors.rng import SplitMix64
from scissors.numbers import scalar_sign
from scissors.suites import (
    random_box_corners,
    random_cutting_plane,
    random_tet_corners,
)


def test_split_simplex_volume_preserved():
    # splitting pieces partition the tetra: volumes sum, pairwise disjoint
    tet = ((0, 0, 0, 1), (6, 0, 0, 1), (0, 6, 0, 1), (0, 0, 6, 1))
    func = (1, 1, 1, -3)  # plane x+y+z=3 cuts strictly through
    pieces = split_simplex(tet, func)
    assert len(pieces) >= 2
    from scissors.geom.predicates import hdet

    def vol6(pts):
        rows = [[p[3], p[0], p[1], p[2]] for p in pts]
        d = hdet(rows)
        w = 1
        for p in pts:
            w *= p[3]
        return Fraction(d, w)

    assert sum(vol6(p) for p in pieces) == vol6(tet)


def test_cube_standard_split_verifies():
    whole = unit_cube()
    # cut by the plane x = 1/2 using hull machinery
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    a_pts, b_pts = split_convex_points_3d(corners, (2, 0, 0, -1))
    a = convex_polytope_3d(a_pts, name="left half")
    b = convex_polytope_3d(b_pts, name="right half")
    assert a.volume() + b.volume() == 1
    assert verify_dissection(whole, [a, b])


def test_missing_piece_fails():
    whole = unit_cube()
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    a_pts, b_pts = split_convex_points_3d(corners, (2, 0, 0, -1))
    a = convex_polytope_3d(a_pts)
    assert not verify_dissection(whole, [a])


def test_volume_mismatch_shortcut():
    whole = unit_cube()
    part = tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not verify_dissection(whole, [part])


def test_wrong_cover_same_volume_fails():
    # same volume but shifted: volumes agree, measure does not
    whole = unit_cube()
    shifted = box((3, 0, 0), (4, 1, 1))
    assert whole.volume() == shifted.volume()
    assert not verify_dissection(whole, [shifted])


def test_triangle_barycentric_subdivision_verifies():
    # refinement oracle in E²: triangle vs its 6 barycentric pieces
    a, b, c = (0, 0), (4, 0), (0, 4)
    tri = Polytope(SimplexChain(2, [(1, simplex(2, a, b, c))]))
    ab = (2, 0)
    ac = (0, 2)
    bc = (2, 2)
    g = (Fraction(4, 3), Fraction(4, 3))
    small = []
    for (u, v) in [(a, ab), (ab, b), (b, bc), (bc, c), (c, ac), (ac, a)]:
        small.append(Polytope(SimplexChain(2, [(1, simplex(2, u, v, g))])))
    assert verify_dissection(tri, small)


def test_phi_boundary_standard_cases():
    assert phi_boundary_check(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
    # interior point: splits the big simplex into four
    assert phi_boundary_check(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
         (Fraction(1, 8), Fraction(1, 8), Fraction(1, 8))], 3)
    # quadrilateral diagonal case in E²
    assert phi_boundary_check([(0, 0), (1, 0), (0, 1), (1, 1)], 2)


def test_phi_boundary_random_rational():
    for case in range(12):
        rng = SplitMix64.stream(99, case)
        dim = 2 if case % 2 == 0 else 3
        pts = [tuple(rng.fraction(8, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        assert phi_boundary_check(pts, dim)


def test_phi_boundary_keys_int_list_and_fraction_points_alike():
    # the points reach the vertex table as given: int, list and Fraction
    # coordinates, and a point repeated in another form, give the same ids,
    # keys and homogeneous points, so the same verdicts
    for case in range(24):
        rng = SplitMix64.stream(404, case)
        dim = case % 3 + 1
        pts = [[rng.randint(-4, 4) for _ in range(dim)]
               for _ in range(dim + 2)]
        if case % 4 == 0:
            pts[-1] = pts[0]
        forms = ([tuple(map(Fraction, p)) for p in pts],
                 [tuple(p) for p in pts],
                 [list(p) for p in pts],
                 [tuple(Fraction(c) if k % 2 else c for k, c in enumerate(p))
                  for p in pts])
        seen = set()
        for form in forms:
            chain = phi_boundary_chain(form, dim)
            table = chain.table
            flipped = SimplexChain.from_ids(
                dim, table, [(-c, t) if k == 0 else (c, t)
                             for k, (c, t) in enumerate(chain.ids)])
            seen.add((tuple(chain.ids), tuple(table.keys),
                      tuple(map(table.homog, range(len(table.keys)))),
                      phi_boundary_check(form, dim), chain_vanishes(flipped)))
        assert len(seen) == 1, case
        assert next(iter(seen))[3]


def test_chain_vanishes_trivial():
    s = simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    ch = SimplexChain(3, [(1, s), (-1, s)])
    assert chain_vanishes(ch)
    assert not chain_vanishes(SimplexChain(3, [(1, s)]))


def _negate_first(chain):
    (c, s), *rest = list(chain)
    return SimplexChain(chain.dim_ambient, [(-c, s)] + rest)


def _phi_chains(dim, shift=None, cases=6):
    """Seeded φ-boundary chains in E^dim; `shift` moves one coordinate."""
    for case in range(cases):
        rng = SplitMix64.stream(71 + dim, case)
        pts = [tuple(rng.fraction(8, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        if shift is not None:
            pts[0] = (pts[0][0] + shift,) + pts[0][1:]
        yield phi_boundary_chain([make_point(p) for p in pts], dim)


def test_phi_boundary_chains_vanish_until_negated():
    for dim in (1, 2, 3):
        for chain in _phi_chains(dim):
            assert chain_vanishes(chain)
            assert not chain_vanishes(_negate_first(chain))


def test_phi_boundary_chains_vanish_with_algebraic_coordinate():
    # irrational vertices with weight 1 beside integer ones
    shift = sqrt_nonneg(2) / 3
    for dim in (1, 2):
        for chain in _phi_chains(dim, shift, cases=4):
            assert chain_vanishes(chain)
            assert not chain_vanishes(_negate_first(chain))


def test_chain_covers_once_hull_triangulation():
    rng = SplitMix64.stream(17, 0)
    hull = convex_polytope_3d(
        [tuple(rng.fraction(6, 2) for _ in range(3)) for _ in range(8)])
    assert chain_covers_once(hull.chain)
    (_, s), *rest = list(hull.chain)
    assert not chain_covers_once(SimplexChain(3, [(2, s)] + rest))
    moved = Simplex(3, tuple((x + Fraction(1, 7), y, z)
                             for x, y, z in s.vertices))
    assert not chain_covers_once(
        SimplexChain(3, list(hull.chain) + [(-1, moved)]))


def _dissection_case(case):
    """Whole, part A and part B of dissection-suite case `case` at seed 303."""
    rng = SplitMix64.stream(303, case)
    corners = (random_box_corners(rng) if case % 2 == 0
               else random_tet_corners(rng))
    a_pts, b_pts = split_convex_points_3d(
        corners, random_cutting_plane(rng, corners))
    return [convex_polytope_3d(p) for p in (corners, a_pts, b_pts)]


def test_dissection_survives_isometry_not_a_moved_part():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for case in (1, 2):  # a tet and a box that refine in under a second
        rng = SplitMix64.stream(909, case)
        perm = rng.choice(list(permutations(range(3))))
        matrix = [tuple(rng.choice((-1, 1)) if j == perm[i] else 0
                        for j in range(3)) for i in range(3)]
        shift = tuple(rng.fraction(5, 4) for _ in range(3))
        whole, a, b = (transformed(p, matrix, shift)
                       for p in _dissection_case(case))
        assert verify_dissection(whole, [a, b])
        kick = (Fraction(rng.randint(1, 5), 7), rng.fraction(5, 4), 0)
        assert not verify_dissection(whole, [transformed(a, identity, kick), b])


# -- the vertex-table refinement against the recursive per-simplex splitter --

def _oracle_split(pts, func, out, sides):
    """The recursive splitter: cut the first strictly crossing edge and
    recurse on both halves, re-evaluating every vertex at every level."""
    vals = [hp.apply_functional(func, p) for p in pts]
    signs = [scalar_sign(v) for v in vals]
    for i in range(len(pts)):
        if signs[i] == 0:
            continue
        for j in range(i + 1, len(pts)):
            if signs[j] == 0 or signs[j] == signs[i]:
                continue
            cut = hp.cut_point(vals[i], vals[j], pts[i], pts[j])
            _oracle_split(pts[:i] + (cut,) + pts[i + 1:], func, out, sides)
            _oracle_split(pts[:j] + (cut,) + pts[j + 1:], func, out, sides)
            return
    out.append(pts)
    sides.append(1 in signs)


def _integer(cells):
    return all(type(c) is int for _, pts in cells for p in pts for c in p)


def _oracle_planes(cells):
    """The planes of every facet of every cell, in order, each once: keyed
    by `primitive` on integer points, else grouped as the refinement
    groups them."""
    funcs = [hp.hyperplane(pts[:i] + pts[i + 1:]) for _, pts in cells
             for i in range(len(pts))]
    if _integer(cells):
        return list(dict.fromkeys(primitive(f) for f in funcs if any(f)))
    return [func for func, _ in _group_by_plane(enumerate(funcs))]


def _oracle_pieces(cells):
    """(k, sides) per piece: every piece of every cell split by every facet
    plane in turn, the planes taken from every facet of every cell."""
    planes = _oracle_planes(cells)
    pieces = []
    for k, (_, pts) in enumerate(cells):
        frontier = [(tuple(pts), 0)]
        for bit, func in enumerate(planes):
            nxt = []
            for piece, mask in frontier:
                out, sides = [], []
                _oracle_split(piece, func, out, sides)
                nxt.extend((sub, mask | (pos << bit))
                           for sub, pos in zip(out, sides))
            frontier = nxt
        pieces.extend((k, mask) for _, mask in frontier)
    return pieces, planes


def _hvolume(pts):
    """d!·volume of a simplex of homogeneous points with positive weights."""
    w = 1
    for p in pts:
        w = w * p[-1]
    return Fraction(1) * hp.hdet([[p[-1], *p[:-1]] for p in pts]) / w


def _refinement_chains():
    for dim in (2, 3):
        for case in range(8):
            rng = SplitMix64.stream(4040 + dim, case)
            pts = [tuple(rng.fraction(8, 3) for _ in range(dim))
                   for _ in range(dim + 2)]
            yield phi_boundary_chain([make_point(p) for p in pts], dim)
    for case in (1, 2, 3, 4):  # tetrahedra and boxes, each cut by a plane
        whole, a, b = _dissection_case(case)
        yield whole.chain - a.chain - b.chain
    (alpha,) = lift([make_algebraic([-3, 0, 0, 8], (0, 1))])  # ∛(3/8)
    yield from _phi_chains(3, alpha / 3, cases=1)


def test_refinement_pieces_match_recursive_splitter():
    kinds = set()
    for chain in _refinement_chains():
        pieces, cells, got = refinement_pieces(chain)
        kinds.add(_integer(cells))
        want, planes = _oracle_pieces(cells)
        assert pieces == want
        assert (list(map(primitive, got)) if _integer(cells)
                else got) == planes
        done = 0
        for k, (_, pts) in enumerate(cells):
            # the planes strictly mixed on the cell's vertices split it;
            # every other one gives all its pieces one side
            crossing, base = [], 0
            for bit, func in enumerate(planes):
                vals = [hp.apply_functional(func, p) for p in pts]
                signs = set(map(scalar_sign, vals))
                if {1, -1} <= signs:
                    crossing.append((bit, func, vals))
                elif 1 in signs:
                    base |= 1 << bit
            table, frontier = _refine_cell(pts, crossing, base, len(pieces),
                                           done)
            assert [(k, m) for _, m in frontier] == \
                pieces[done:done + len(frontier)]
            done += len(frontier)
            vols = [_hvolume([table[v] for v in piece])
                    for piece, _ in frontier]
            assert all(scalar_sign(v) > 0 for v in vols)
            total = vols[0]
            for v in vols[1:]:
                total = total + v
            assert scalar_sign(total - _hvolume(pts)) == 0
            # a cut point keeps a positive weight and, on integer points,
            # its reduced form, however many cuts led to it
            for p in table[len(pts):]:
                assert scalar_sign(p[-1]) > 0
                assert not _integer(cells) or gcd(*p) == 1
            for piece, mask in frontier:
                for bit, func in enumerate(planes):
                    side = 1 if mask >> bit & 1 else -1
                    assert all(scalar_sign(hp.apply_functional(
                        func, table[v])) != -side for v in piece)
        assert done == len(pieces)
    # all-integer chains and chains with irrational points
    assert kinds == {True, False}


# sha256 over the (k, sides) piece lists, one repr line per chain, of the
# 200 φ-boundary configurations at seed 404 and dissection cases 1–6 at seed
# 303, with the total piece count, recorded on the generic cofactor kernel.
# A kernel or splitter change must keep every piece, its order and its mask.
PINNED_PIECES = (
    "f040c184daef6c7b0880d9b141da44eb2aa7322b309def69c8c3ab788d854159", 9620)


def test_refinement_pieces_are_pinned():
    digest, count = sha256(), 0
    chains = []
    for case in range(200):
        rng = SplitMix64.stream(404, case)
        dim = 2 if case % 2 == 0 else 3
        pts = [tuple(rng.fraction(8, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        chains.append(phi_boundary_chain([make_point(p) for p in pts], dim))
    for case in range(1, 7):
        whole, a, b = _dissection_case(case)
        chains.append(whole.chain - a.chain - b.chain)
    for chain in chains:
        pieces = refinement_pieces(chain)[0]
        count += len(pieces)
        digest.update(repr(pieces).encode() + b"\n")
    assert (digest.hexdigest(), count) == PINNED_PIECES


def test_mixed_weight_prism_validates_with_pinned_pieces():
    # the hexagon prism has integer points (rational vertices) beside
    # irrational ones with weight 1 on one table, and at height 3/7 its
    # rational top vertices have weight 7: strict validation and the
    # refinement run on mixed points.  The pieces were recorded when every
    # point had weight 1; an affine map keeps them, and their sides are
    # those of the planes named with their first nonzero entry positive
    from scissors.geom import prism
    from oracles import regular_hexagon

    for height in (1, Fraction(3, 7)):
        p = prism(regular_hexagon(1), height)
        p.validate(exact_strict=True)
        t = p.chain.table
        points = [t.homog(i) for i in range(len(t.keys))]
        kinds = {all(type(c) is int for c in h) and h[-1] for h in points}
        assert kinds == ({False, 1} if height == 1 else {False, 1, 7})
        pieces, cells, _ = refinement_pieces(p.chain)
        assert len(cells) == 12
        assert sha256(repr(pieces).encode()).hexdigest() == "29a9a1d36da59" \
            "6eb086b1f449e41417bba0cb429000ca9e2636e3a54f919a9d3"


def test_refinement_cap_counts_every_piece(monkeypatch):
    whole, a, b = _dissection_case(1)
    chain = whole.chain - a.chain - b.chain
    total = len(refinement_pieces(chain)[0])
    monkeypatch.setenv("SCISSORS_CELL_CAP", str(total))
    assert len(refinement_pieces(chain)[0]) == total
    monkeypatch.setenv("SCISSORS_CELL_CAP", str(total - 1))
    with pytest.raises(RefinementTooLarge):
        refinement_pieces(chain)


def test_only_planes_mixed_on_a_cell_split_it(monkeypatch):
    # a convex cell weakly on one side of a plane has no piece that
    # crosses it, so only strictly mixed (cell, plane) pairs are split
    calls = Counter()
    split = refine._split_by_plane

    def counted(frontier, table, func, bit, known=()):
        calls[tuple(table[:len(known)]), bit] += 1
        return split(frontier, table, func, bit, known)

    monkeypatch.setattr(refine, "_split_by_plane", counted)
    pairs = crossing = 0
    for chain in _refinement_chains():
        calls.clear()
        _, cells, _ = refinement_pieces(chain)
        planes = _oracle_planes(cells)
        want = Counter()
        for _, pts in cells:
            for bit, func in enumerate(planes):
                signs = {scalar_sign(hp.apply_functional(func, p))
                         for p in pts}
                if {1, -1} <= signs:
                    want[pts, bit] += 1
        assert calls == want
        pairs += len(cells) * len(planes)
        crossing += sum(want.values())
    assert 0 < crossing < pairs


def _isometry(rng, dim):
    """A seeded signed permutation of the axes and a rational translation,
    with the sign of its determinant."""
    perm = rng.choice(list(permutations(range(dim))))
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    shift = [rng.fraction(5, 4) for _ in range(dim)]
    det = 1
    for i in range(dim):
        det *= signs[i]
        for j in range(i + 1, dim):
            if perm[i] > perm[j]:
                det = -det

    def move(p):
        return tuple(signs[i] * p[perm[i]] + shift[i] for i in range(dim))
    return move, det


def _tallies(chain):
    return sorted(refine._coverage(chain))


def test_vanishing_and_tallies_survive_isometry_and_cell_order():
    # a motion maps the arrangement onto the moved one, region for region;
    # one that reverses orientation negates the signed measure
    rng = SplitMix64.stream(6060, 0)
    verdicts = set()
    for chain in _refinement_chains():
        dim = chain.dim_ambient
        for ch in (chain, _negate_first(chain)):
            vanishes, tallies = chain_vanishes(ch), _tallies(ch)
            verdicts.add(vanishes)
            move, det = _isometry(rng, dim)
            moved = SimplexChain(dim, [
                (c, Simplex(dim, tuple(map(move, s.vertices))))
                for c, s in ch])
            assert chain_vanishes(moved) == vanishes
            assert _tallies(moved) == sorted(det * t for t in tallies)
            reversed_cells = SimplexChain(dim, list(ch)[::-1])
            assert chain_vanishes(reversed_cells) == vanishes
            assert _tallies(reversed_cells) == tallies
    assert verdicts == {True, False}


# -- the boundary recursion of chain_vanishes against the region oracle --

def _oracle_vanishes(chain):
    """Every region of the chain's refinement has total coefficient 0."""
    return all(t == 0 for t in refine._coverage(chain))


def _chain(dim, cells):
    return SimplexChain(dim, [(c, Simplex(dim, tuple(map(make_point, vs))))
                              for c, vs in cells])


def _grid_cells(rng, dim, count):
    """Seeded cells on the grid {0, 1, 2}^dim with coefficients ±1 and ±2:
    they share vertices, and some are degenerate."""
    return [(rng.choice((-2, -1, 1, 2)),
             tuple(tuple(rng.randint(0, 2) for _ in range(dim))
                   for _ in range(dim + 1)))
            for _ in range(count)]


def _edge_split(rng, cells):
    """Each cell as its two halves across the midpoint of a seeded edge:
    the same signed measure, with a boundary that does not cancel
    formally against the cell's."""
    out = []
    for c, vs in cells:
        i = rng.randint(0, len(vs) - 1)
        j = (i + rng.randint(1, len(vs) - 1)) % len(vs)
        m = tuple((Fraction(a) + b) / 2 for a, b in zip(vs[i], vs[j]))
        out += [(c, vs[:i] + (m,) + vs[i + 1:]),
                (c, vs[:j] + (m,) + vs[j + 1:])]
    return out


def _grid_boxes(rng, dim):
    """Two seeded axis-parallel boxes with corners on the grid {0, …, 4}^dim
    and coefficients ±1 and ±2: every facet plane but the cells' inner ones
    is normal to an axis."""
    cells = []
    for _ in range(2):
        c = rng.choice((-2, -1, 1, 2))
        lo = [rng.randint(0, 2) for _ in range(dim)]
        hi = [x + rng.randint(1, 2) for x in lo]
        if dim == 1:
            cells.append((c, ((lo[0],), (hi[0],))))
            continue
        corners = list(product(*zip(lo, hi)))
        hull = (convex_polygon_2d if dim == 2 else convex_polytope_3d)(corners)
        cells += [(c * k, s.vertices) for k, s in hull.chain]
    return _chain(dim, cells)


def _retriangulated_hull(rng, dim):
    """The hull of seeded points, minus a second triangulation of it: in
    E¹ its pieces between the points, in E² and E³ the cone over its
    boundary from the points' centroid, each cone cell split at a seeded
    edge."""
    while True:
        pts = list(dict.fromkeys(
            tuple(Fraction(rng.randint(0, 4), rng.randint(1, 4 - dim))
                  for _ in range(dim)) for _ in range(dim + 2)))
        if dim == 1:
            pts.sort()
            return (_chain(1, [(1, (pts[0], pts[-1]))])
                    - _chain(1, [(1, pq) for pq in zip(pts, pts[1:])]))
        try:
            hull = (convex_polygon_2d if dim == 2 else convex_polytope_3d)(pts)
        except InvalidPolytope:
            continue
        g = tuple(sum(p[i] for p in pts) / len(pts) for i in range(dim))
        cone = Polytope(_chain(dim, [(1, (g, *f))
                                     for f in boundary_facets(hull.chain)]))
        return hull.chain - _chain(dim, _edge_split(
            rng, [(c, s.vertices) for c, s in cone.chain]))


def _drop_first(chain):
    return SimplexChain(chain.dim_ambient, list(chain)[1:])


def _shifted(chain, dx):
    """The chain translated by dx along the first axis."""
    dim = chain.dim_ambient
    return SimplexChain(dim, [
        (c, Simplex(dim, tuple((v[0] + dx, *v[1:]) for v in s.vertices)))
        for c, s in chain])


def _agreement_chains(dim, case):
    """(family, chain) for seeded chains in E^dim, each followed by itself
    with its first term negated and with it dropped."""
    rng = SplitMix64.stream(2700 + dim, case)
    pts = [tuple(rng.randint(0, 2) for _ in range(dim))
           for _ in range(dim + 2)]
    grid = _grid_cells(rng, dim, rng.randint(2, 4))
    chains = [
        ("phi", phi_boundary_chain([make_point(p) for p in pts], dim)),
        ("grid", _chain(dim, grid)),
        ("grid split", _chain(dim, grid) - _chain(dim, _edge_split(rng,
                                                                   grid))),
        ("boxes", _grid_boxes(rng, dim)),
        ("hull", _retriangulated_hull(rng, dim))]
    if dim == 3 and case < 4:
        whole, a, b = _dissection_case(case + 1)
        chains.append(("whole - A - B", whole.chain - a.chain - b.chain))
    for family, chain in chains:
        yield family, chain
        if chain.reduce().ids:
            yield family, _negate_first(chain)
            yield family, _drop_first(chain)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True])
def test_chain_vanishes_agrees_with_region_coverage(dim, shifted):
    # the boundary recursion against the refinement's region totals, on
    # rational chains and on chains moved by √2/3 off the rationals
    dx = sqrt_nonneg(2) / 3
    seen = set()
    # the region oracle is slow on irrational points in E³
    cases = (3 if dim < 3 else 1) if shifted else 7 - dim // 3
    for case in range(cases):
        for family, chain in _agreement_chains(dim, case):
            if shifted:
                chain = _shifted(chain, dx)
            vanishes = chain_vanishes(chain)
            assert vanishes == _oracle_vanishes(chain), (family, case)
            seen.add((vanishes, not refine._net_facets(chain.reduce().ids)))
    # both verdicts; above E¹ some chains vanish though their boundaries do
    # not cancel formally, so the recursion below the top level decides
    assert {(True, True), (False, False)} <= seen
    assert ((True, False) in seen) == (dim > 1)


def _oracle_net_facets(cells):
    """The facet netting of `refine._net_facets` taken face by face: each
    face sliced out of its cell, signed by its position and by the strict
    inversions of the face, and sorted on its own."""
    net = {}
    for c, t in cells:
        for i in range(len(t)):
            f = t[:i] + t[i + 1:]
            odd = i & 1
            for a in range(len(f)):
                for b in range(a + 1, len(f)):
                    odd ^= f[a] > f[b]
            key = tuple(sorted(f))
            net[key] = net.get(key, 0) + (-c if odd else c)
    return {f: c for f, c in net.items() if c}


def test_net_facets_matches_face_by_face_oracle():
    # seeded cells of 2–4 ids from a small pool, so ids repeat within a
    # cell and facets meet across cells; every other chain repeats a cell
    # reversed, n(n−1)/2 transpositions, with the opposite sign, so that
    # terms cancel.  Every third chain adds a cell sorted already, and the
    # last 60 are of 0-simplices and terms on the empty tuple
    cancelled = 0
    for case in range(660):
        rng = SplitMix64.stream(3100, case)
        n = rng.randint(2, 4) if case < 600 else case % 2
        cells = [(rng.choice((-2, -1, 1, 3)),
                  tuple(rng.randint(0, n + 1) for _ in range(n)))
                 for _ in range(rng.randint(1, 5))]
        if case % 2:
            c, t = cells[rng.randint(0, len(cells) - 1)]
            cells.append((c if n * (n - 1) // 2 % 2 else -c, t[::-1]))
        if case % 3 == 0:
            cells.append((rng.choice((-1, 2)), tuple(sorted(cells[0][1]))))
        got = refine._net_facets(cells)
        assert got == _oracle_net_facets(cells), cells
        cancelled += not got
    assert cancelled > 0


def _permuted_cells(rng, cells):
    """Each cell with distinct ids under a seeded permutation of its
    vertices, its coefficient times the permutation's sign; a cell with a
    repeated id, whose sign no permutation fixes, as it is."""
    out = []
    for c, t in cells:
        if len(set(t)) < len(t):
            out.append((c, t))
            continue
        perm = rng.choice(list(permutations(range(len(t)))))
        odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        out.append((-c if odd & 1 else c, tuple(t[i] for i in perm)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_net_facets_and_vanishing_survive_signed_vertex_permutation(dim):
    # metamorphic: σ(t) with sign(σ)·c is the same oriented cell as t with
    # c, so neither the netted facets nor the verdict may change
    moved = 0
    for case in range(7 - dim // 3):
        rng = SplitMix64.stream(3110 + dim, case)
        for family, chain in _agreement_chains(dim, case):
            cells = chain.reduce().ids
            perm = _permuted_cells(rng, cells)
            moved += perm != cells
            assert refine._net_facets(perm) == refine._net_facets(cells), (
                family, case)
            permuted = SimplexChain.from_ids(dim, chain.table, perm)
            assert chain_vanishes(permuted) == chain_vanishes(chain), (
                family, case)
    assert moved > 0


def _moves(rng):
    """A seeded signed permutation of the axes and a rational shift."""
    perm = rng.choice(list(permutations(range(3))))
    matrix = [tuple(rng.choice((-1, 1)) if j == perm[i] else 0
                    for j in range(3)) for i in range(3)]
    return matrix, tuple(rng.fraction(5, 4) for _ in range(3))


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_every_dissection_case_survives_isometry_not_a_moved_part():
    # all 25 cases of the suite at seed 303; a part moved by 1/7 keeps its
    # volume, so the chain check alone decides, without reaching the cap
    for case in range(25):
        matrix, shift = _moves(SplitMix64.stream(919, case))
        whole, a, b = (transformed(p, matrix, shift)
                       for p in _dissection_case(case))
        assert verify_dissection(whole, [a, b])
        moved = transformed(a, IDENTITY, (Fraction(1, 7), 0, 0))
        assert not verify_dissection(whole, [moved, b]), case


def test_algebraic_redissection():
    # every case moved by (√2/3, 0, 0): on irrational vertices the check
    # still sees the dissection, and a missing part
    shift = (sqrt_nonneg(2) / 3, 0, 0)
    for case in range(25):
        whole, a, b = (transformed(p, IDENTITY, shift)
                       for p in _dissection_case(case))
        assert verify_dissection(whole, [a, b])
        assert not chain_vanishes(whole.chain - a.chain), case
