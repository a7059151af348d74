"""Spec-level invariants not already covered by the per-module tests."""

import os
from fractions import Fraction

import pytest

from scissors.dehn import dehn_invariant, is_zero, tensor_add, tensor_neg
from scissors.geom import (
    NonManifoldBoundary,
    Polytope,
    Simplex,
    SimplexChain,
    boundary_facets,
    simplex,
)
from scissors.geom.convex import regular_tetrahedron, transformed, unit_cube
from scissors.geom.refine import (
    RefinementTooLarge,
    phi_boundary_check,
    verify_dissection,
)
from scissors.homology import SparseIntMatrix, smith_normal_form
from scissors.hochschild import (
    builtin_algebra,
    d_basis_chain,
    d_basis_tuples,
    hochschild_boundary,
)
from scissors.rng import SplitMix64


def test_dehn_invariant_of_reversed_orientation():
    t = regular_tetrahedron()
    reversed_terms = []
    for c, s in t.chain:
        vs = s.vertices
        reversed_terms.append((c, Simplex(3, vs[:2] + (vs[3], vs[2]))))
    rev = Polytope(SimplexChain(3, reversed_terms), validate=False)
    d1 = dehn_invariant(t)
    d2 = dehn_invariant(rev)
    assert is_zero(tensor_add(d1, tensor_neg(d2))) == "Zero"


def test_dehn_isometry_invariance_with_reflection():
    t = regular_tetrahedron()
    M = [(-1, 0, 0), (0, 1, 0), (0, 0, 1)]  # orientation-reversing
    rt = transformed(t, M, shift=(3, -2, 1))
    diff = tensor_add(dehn_invariant(t), tensor_neg(dehn_invariant(rt)))
    assert is_zero(diff) == "Zero"


def test_dehn_isometry_invariance_rotation():
    c = unit_cube()
    R = [(Fraction(4, 5), Fraction(-3, 5), 0),
         (Fraction(3, 5), Fraction(4, 5), 0),
         (0, 0, 1)]
    rc = transformed(c, R)
    diff = tensor_add(dehn_invariant(c), tensor_neg(dehn_invariant(rc)))
    assert is_zero(diff) == "Zero"


def test_non_manifold_boundary_detected():
    # two tetrahedra sharing exactly one edge: the shared-edge ridge does
    # not close up; the chain is representable, but its boundary is not a
    # closed surface
    a = simplex(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    b = simplex(3, (0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, -1))
    with pytest.raises(NonManifoldBoundary):
        boundary_facets(SimplexChain(3, [(1, a), (1, b)]))
        # if multiplicities pass, the ridge count must catch it
    chain = SimplexChain(3, [(1, a), (1, b)])
    with pytest.raises(NonManifoldBoundary):
        boundary_facets(chain)


def test_refinement_cap(monkeypatch):
    # SCISSORS_CELL_CAP is the one cap of every check, read on each call
    monkeypatch.setenv("SCISSORS_CELL_CAP", "3")
    whole = unit_cube()
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    a_pts, b_pts = split_convex_points_3d(corners, (2, 0, 0, -1))
    a = convex_polytope_3d(a_pts)
    b = convex_polytope_3d(b_pts)
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(RefinementTooLarge):
        verify_dissection(whole, [a, b])
    with pytest.raises(RefinementTooLarge):
        phi_boundary_check(square, 2)
    with pytest.raises(RefinementTooLarge):
        whole.validate(exact_strict=True)
    monkeypatch.delenv("SCISSORS_CELL_CAP")
    assert verify_dissection(whole, [a, b])
    assert phi_boundary_check(square, 2)
    whole.validate(exact_strict=True)


def test_smith_normal_form_wrapper_surface():
    m = SparseIntMatrix(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8})
    U, D, V = smith_normal_form(m)
    prod = U.matmul(m).matmul(V)
    assert prod.sparse_rows == D.sparse_rows
    assert D[0, 0] == 2 and D[1, 1] == 4


def test_b_squared_zero_all_registered_algebras():
    for name in ("QI", "mat2"):
        A = builtin_algebra(name)
        rng = SplitMix64.stream(71, hash(name) % 1000)
        basis = d_basis_tuples(A.dim, 3)
        from scissors.hochschild import HochschildChain
        chain = HochschildChain(A, 3)
        for _ in range(4):
            t = basis[rng.randint(0, len(basis) - 1)]
            chain = chain + rng.randint(-2, 2) * d_basis_chain(A, t)
        b3 = hochschild_boundary(3, chain)
        assert hochschild_boundary(2, b3).is_zero()


def test_volume_invariance_under_retriangulation():
    # the two standard triangulations of the cube agree in volume and pass
    # verify_dissection against one another
    c1 = unit_cube()
    # Kuhn split of the unit cube: 6 tets along permutation staircases
    from itertools import permutations
    terms = []
    for perm in permutations(range(3)):
        cur = [Fraction(0)] * 3
        verts = [tuple(cur)]
        for axis in perm:
            cur[axis] += 1
            verts.append(tuple(cur))
        terms.append((1, simplex(3, *verts)))
    c2 = Polytope(SimplexChain(3, terms), name="kuhn cube")
    assert c2.volume() == 1
    assert verify_dissection(c1, [c2])
    assert verify_dissection(c2, [c1])
    assert is_zero(tensor_add(dehn_invariant(c1),
                              tensor_neg(dehn_invariant(c2)))) == "Zero"


def test_reflex_edge_reporting_and_prism_kernel():
    # L-shaped polygon (star-shaped from the origin, fan triangulation is
    # valid); its prism has one reflex vertical edge with interior angle
    # 3π/2, reported as θ − π = π/2 alongside a full-π marker term
    from scissors.geom import dihedral_edges, prism
    from scissors.geom.convex import polygon_from_cycle
    L = polygon_from_cycle([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                           name="L")
    assert L.volume() == 3
    p = prism(L, 1)
    assert p.volume() == 3
    edges = dihedral_edges(p)
    markers = [e for e in edges if e.marker]
    assert len(markers) == 1
    partners = [e for e in edges
                if not e.marker and e.endpoints == markers[0].endpoints]
    assert len(partners) == 1
    assert partners[0].angle.cos == 0  # cos(3π/2 − π)
    assert is_zero(dehn_invariant(p)) == "Zero"


def test_kuhn_cube_boundary_facets():
    # interior faces cancel once cells are orientation-normalized;
    # 12 boundary triangles remain
    from itertools import permutations
    terms = []
    for perm in permutations(range(3)):
        cur = [Fraction(0)] * 3
        verts = [tuple(cur)]
        for axis in perm:
            cur[axis] += 1
            verts.append(tuple(cur))
        terms.append((1, simplex(3, *verts)))
    cube = Polytope(SimplexChain(3, terms), validate=False)
    facets = boundary_facets(cube.chain)
    assert len(facets) == 12


def test_degree_out_of_range():
    from scissors.homology import DegreeOutOfRange
    from scissors.homology.simplicial import torus_complex
    cx = torus_complex(1)
    with pytest.raises(DegreeOutOfRange):
        cx.homology(7)


def test_eigenspace_not_stable():
    from scissors.hochschild import builtin_algebra, pure_tensor
    from scissors.hochschild.involution import NotStable, eigenspace_split
    H = builtin_algebra("quat")

    def leaves_span(chain):  # not an involution of the span of 1⊗1
        return pure_tensor(H, 1, 2)

    with pytest.raises(NotStable):
        eigenspace_split([pure_tensor(H, 0, 0)], leaves_span)


def test_cube_vs_five_of_six_tets_fails():
    from itertools import permutations
    terms = []
    for perm in permutations(range(3)):
        cur = [Fraction(0)] * 3
        verts = [tuple(cur)]
        for axis in perm:
            cur[axis] += 1
            verts.append(tuple(cur))
        terms.append((1, simplex(3, *verts)))
    parts = [Polytope(SimplexChain(3, [t]), validate=False)
             for t in terms[:5]]
    assert not verify_dissection(unit_cube(), parts)
