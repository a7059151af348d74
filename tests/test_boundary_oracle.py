"""Boundary facets and dihedral edges on vertex ids, against reference
versions that key every vertex of every facet by its value-ordered point key.

The references sort each face by `point_key` and key each edge by the
sorted pair of its endpoints' point keys; the package sorts by each id's
rank in that same order.  Facet lists, edge order, endpoints, lengths,
angles and markers must come out identical, and so must the exception a
malformed chain raises.
"""

from fractions import Fraction

import pytest

from scissors.algebraic import (
    as_scalar,
    make_algebraic,
    scalar_key,
    scalar_sign,
    sqrt_nonneg,
)
from scissors.angles import AnglePair
from scissors.geom import (
    DihedralEdge,
    GeometryError,
    InvalidPolytope,
    NonManifoldBoundary,
    SimplexChain,
    boundary_facets,
    dihedral_edges,
    prism,
    simplex,
)
from scissors.geom.convex import (
    convex_polytope_3d,
    regular_tetrahedron,
    scaled_simplices,
    transformed,
)
from scissors.rng import SplitMix64
from oracles import regular_hexagon


class UnorientableBoundary(GeometryError):
    """The reference's error for a ridge whose two facets agree in
    direction; the package has no such error, as ∂∂ = 0 rules it out."""


def point_key(p) -> tuple:
    return tuple(scalar_key(c) for c in p)


def _perm_parity(keys) -> int:
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    visited = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if visited[i]:
            continue
        j, clen = i, 0
        while not visited[j]:
            visited[j] = True
            j = order[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def reference_boundary_facets(chain):
    net = {}
    rep = {}
    for c, s in chain:
        vs = s.vertices
        for i in range(len(vs)):
            face = vs[:i] + vs[i + 1:]
            keys = [point_key(v) for v in face]
            if len(set(keys)) != len(keys):
                raise InvalidPolytope("degenerate facet in boundary")
            order = sorted(range(len(keys)), key=lambda t: keys[t])
            canon = tuple(face[t] for t in order)
            k = tuple(keys[t] for t in order)
            net[k] = net.get(k, 0) + c * (-1) ** i * _perm_parity(keys)
            rep[k] = canon
    facets = []
    for k, m in net.items():
        if m == 0:
            continue
        if abs(m) != 1:
            raise NonManifoldBoundary(f"facet multiplicity {m}")
        vs = rep[k]
        if m < 0:
            vs = vs[:-2] + (vs[-1], vs[-2])
        facets.append(vs)
    if not facets or len(facets[0]) < 2:
        return facets
    ridge_dir = {}
    for vs in facets:
        for i in range(len(vs)):
            keys = [point_key(v) for v in vs[:i] + vs[i + 1:]]
            ridge_dir.setdefault(tuple(sorted(keys)), []).append(
                _perm_parity(keys) * (-1) ** i)
    for signs in ridge_dir.values():
        if len(signs) != 2:
            raise NonManifoldBoundary(f"ridge shared by {len(signs)} facets")
        if signs[0] + signs[1] != 0:
            raise UnorientableBoundary("inconsistent ridge orientations")
    return facets


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def reference_dihedral_edges(p):
    incident = {}
    for vs in reference_boundary_facets(p.chain):
        for i in range(3):
            a, b, opp = vs[i], vs[(i + 1) % 3], vs[(i + 2) % 3]
            ka, kb = point_key(a), point_key(b)
            key = (ka, kb) if ka <= kb else (kb, ka)
            incident.setdefault(key, []).append((a, b, opp))
    edges = []
    for key in sorted(incident):
        tris = incident[key]
        if len(tris) != 2:
            raise NonManifoldBoundary("edge not shared by exactly 2 facets")
        (a1, b1, r1), (a2, b2, r2) = tris
        n1 = _cross3(_sub(b1, a1), _sub(r1, a1))
        n2 = _cross3(_sub(b2, a2), _sub(r2, a2))
        d = _sub(b1, a1)
        length2 = as_scalar(_dot(d, d))
        dot12 = _dot(n1, n2)
        cos_between = sqrt_nonneg(dot12 * dot12
                                  / (_dot(n1, n1) * _dot(n2, n2)))
        if scalar_sign(dot12) < 0:
            cos_between = -cos_between
        bend = scalar_sign(_dot(n1, _sub(r2, a1)))
        if bend < 0:
            cos_t = as_scalar(-cos_between)
        elif bend == 0:
            cos_t = Fraction(-1)
        else:
            cos_t = as_scalar(cos_between)
            edges.append(DihedralEdge((a1, b1), length2,
                                      AnglePair(Fraction(-1), Fraction(0)),
                                      marker=True))
        edges.append(DihedralEdge((a1, b1), length2,
                                  AnglePair.from_cos(cos_t)))
    return edges


def _facet_keys(facets):
    return [tuple(map(point_key, f)) for f in facets]


def _edge_keys(edges):
    return [(tuple(map(point_key, e.endpoints)), scalar_key(e.length2),
             e.angle.key(), e.marker) for e in edges]


def _placement(rng):
    """Seeded signed permutation, a 3-4-5 rotation in a coordinate plane
    and a rational translation: (matrix rows, shift)."""
    perm = [0, 1, 2]
    for i in (2, 1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    a = rng.randint(0, 2)
    b = (a + rng.randint(1, 2)) % 3
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    rows = [[rot[i][perm[j]] * signs[perm[j]] for j in range(3)]
            for i in range(3)]
    return rows, [rng.fraction(6, 3) for _ in range(3)]


def _seeded_hulls(seed, count):
    for case in range(count):
        rng = SplitMix64.stream(seed, case)
        while True:
            pts = [tuple(rng.randint(0, 3) for _ in range(3))
                   for _ in range(rng.randint(4, 7))]
            try:
                hull = convex_polytope_3d(pts)
                break
            except GeometryError:
                continue  # flat point sets have no hull; draw again
        yield hull
        yield transformed(hull, *_placement(rng))


def _assert_matches_reference(p):
    assert _facet_keys(boundary_facets(p.chain)) == \
        _facet_keys(reference_boundary_facets(p.chain))
    assert _edge_keys(dihedral_edges(p)) == \
        _edge_keys(reference_dihedral_edges(p))


def test_boundary_and_edges_match_point_key_reference_on_rational_hulls():
    for p in _seeded_hulls(1717, 10):
        _assert_matches_reference(p)


def test_boundary_and_edges_match_point_key_reference_on_algebraic_shapes():
    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))  # ∛(3/8)
    rng = SplitMix64.stream(1718, 0)
    for shape in (scaled_simplices(regular_tetrahedron(), vol1),
                  prism(regular_hexagon(1), 1)):
        _assert_matches_reference(shape)
        _assert_matches_reference(transformed(shape, *_placement(rng)))


def _raised(fn, chain):
    try:
        fn(chain)
    except GeometryError as exc:
        return type(exc)
    return None


TET = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("terms,expected", [
    # a repeated vertex: dropping any other vertex leaves a degenerate face
    ([(1, simplex(3, (0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)))],
     InvalidPolytope),
    # two tetrahedra sharing exactly one edge: a non-manifold pair
    ([(1, simplex(3, *TET)),
      (1, simplex(3, (0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, -1)))],
     NonManifoldBoundary),
    # two tetrahedra on either side of one face, the second negatively
    # ordered: the face does not cancel.  ∂∂ = 0 makes every ridge of a chain's boundary
    # cancel, so an inconsistent orientation shows as a facet of
    # multiplicity 2, never as UnorientableBoundary
    ([(1, simplex(3, *TET)),
      (1, simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, -1)))],
     NonManifoldBoundary),
])
def test_malformed_chains_raise_as_the_reference(terms, expected):
    chain = SimplexChain(3, terms)
    assert _raised(reference_boundary_facets, chain) is expected
    assert _raised(boundary_facets, chain) is expected
