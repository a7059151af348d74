import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest

from scissors.algebraic import AlgebraicReal, make_algebraic, sqrt_nonneg
from scissors.geom import (
    Simplex,
    SimplexChain,
    boundary,
    make_point,
    orientation_sign,
    signed_indicator,
    simplex,
    simplex_volume,
    vertex_key,
)
from scissors.homology import ChainComplex, SparseIntMatrix, tuple_complex
from scissors.homology.simplicial import (
    affine_span_dim,
    barycentric_sd,
    sd_power,
    subdivision_homotopy,
    torus_complex,
    torus_homology,
)
from scissors.intvec import net_faces
from scissors.numberfield import Num
from scissors.numbers import format_number, parse_number
from scissors.rng import SplitMix64
from oracles import rational_rank


class FilteredTupleComplex:
    """Chains on ordered tuples from a finite set of rational points,
    filtered by the dimension of their span."""

    def __init__(self, points, max_degree: int, dim: int):
        self.points = [make_point(p) for p in points]
        self.dim = dim
        self.max_degree = max_degree
        n = len(self.points)
        self.basis = {}   # degree -> list of index tuples
        self.level = {}   # index tuple -> span dimension
        spans = {}        # the span depends only on the set of points
        for k in range(max_degree + 1):
            tuples = list(product(range(n), repeat=k + 1))
            self.basis[k] = tuples
            for t in tuples:
                s = frozenset(t)
                d = spans.get(s)
                if d is None:
                    d = spans[s] = affine_span_dim(
                        [self.points[i] for i in s])
                self.level[t] = d

    def chain_complex(self) -> ChainComplex:
        return tuple_complex(self.basis, self.max_degree)

    def graded_piece(self, p: int) -> ChainComplex:
        """Gr_p: tuples of span dimension exactly p; lower faces die."""
        level = self.level
        basis = {k: [t for t in tuples if level[t] == p]
                 for k, tuples in self.basis.items()}
        boundaries = {}
        for k in range(1, self.max_degree + 1):
            rows = {t: i for i, t in enumerate(basis[k - 1])}
            mat = boundaries[k] = SparseIntMatrix(len(rows), len(basis[k]))
            for col, t in enumerate(basis[k]):
                for face, c in net_faces([(1, t)]).items():
                    if level[face] == p:
                        mat[rows[face], col] = c
        return ChainComplex({k: len(b) for k, b in basis.items()},
                            boundaries, labels=dict(basis))


def rand_simplex(rng, dim, k=None):
    k = dim if k is None else k
    while True:
        verts = [tuple(rng.fraction(6, 2) for _ in range(dim))
                 for _ in range(k + 1)]
        s = simplex(dim, *verts)
        if affine_span_dim(verts) == k:
            return s


def test_span_levels():
    a, b, c = (0, 0), (1, 0), (0, 1)
    assert affine_span_dim([a, b, c]) == 2
    assert affine_span_dim([a, a, b]) == 1
    assert affine_span_dim([a]) == 0
    # 4 coplanar points in E³ have span 2
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert affine_span_dim(pts) == 2


def test_filtered_complex_levels():
    fc = FilteredTupleComplex([(0, 0), (1, 0), (0, 1)], 2, 2)
    assert fc.level[(0, 1, 2)] == 2
    assert fc.level[(0, 0, 1)] == 1
    assert fc.level[(1, 1, 1)] == 0
    cx = fc.chain_complex()
    assert cx.ranks == {0: 3, 1: 9, 2: 27}


def test_graded_piece_square_regression():
    # 4-point square in E²: Gr₂ homology at degree 2 is free; the value is a
    # direct-SNF regression of the configuration
    fc = FilteredTupleComplex([(0, 0), (1, 0), (0, 1), (1, 1)], 3, 2)
    gr2 = fc.graded_piece(2)
    h2 = gr2.homology(2)
    assert h2.torsion == ()
    # the four corner triangles modulo the one relation cut out by the
    # span-2 quadruples: rank 3 (direct SNF value, frozen)
    assert h2.betti == 3


def test_barycentric_edge():
    # sd(a,b) = (m,b) − (m,a) with m the midpoint
    ch = SimplexChain(1, [(1, simplex(1, (0,), (1,)))])
    sd = barycentric_sd(ch)
    mid = (Fraction(1, 2),)
    got = {tuple(tuple(v) for v in s.vertices): c for c, s in sd}
    assert got == {(mid, (Fraction(1),)): 1, (mid, (Fraction(0),)): -1}


def test_barycentric_triangle_count_and_area():
    tri = simplex(2, (0, 0), (4, 0), (0, 4))
    sd = barycentric_sd(SimplexChain(2, [(1, tri)]))
    assert len(sd) == factorial(3)
    total = sum((c * simplex_volume(s) for c, s in sd), start=Fraction(0))
    assert total == simplex_volume(tri)


def test_sd_commutes_with_boundary():
    rng = SplitMix64.stream(3, 1)
    s = rand_simplex(rng, 3)
    ch = SimplexChain(3, [(1, s)])
    left = boundary(barycentric_sd(ch))
    right = barycentric_sd(boundary(ch))
    assert (left - right).is_zero()


def test_homotopy_identity_rounds():
    for case in range(6):
        rng = SplitMix64.stream(17, case)
        dim = (case % 3) + 1
        rounds = (case % 2) + 1
        s = rand_simplex(rng, dim)
        ch = SimplexChain(dim, [(1, s)])
        H_of_s = subdivision_homotopy(ch, rounds)
        H_of_ds = subdivision_homotopy(boundary(ch), rounds)
        lhs = boundary(H_of_s) + H_of_ds
        rhs = sd_power(ch, rounds) - ch
        assert (lhs - rhs).is_zero()


def test_homotopy_zero_rounds():
    s = simplex(2, (0, 0), (1, 0), (0, 1))
    ch = SimplexChain(2, [(1, s)])
    assert subdivision_homotopy(ch, 0).is_zero()


def test_sd_power_rejects_negative_rounds():
    ch = SimplexChain(1, [(1, simplex(1, (0,), (1,)))])
    for op in (sd_power, subdivision_homotopy):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            op(ch, -1)


def _same_simplex(a, b):
    """a and b are one chain generator: equal, equal hashes, and they
    cancel under reduce."""
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert not SimplexChain(a.dim_ambient, [(1, a), (-1, b)]).reduce().terms


def _retyped(p, kind, field_elt):
    """The point p with each rational coordinate given as another scalar."""
    if kind == "int":
        return tuple(int(c) if c.denominator == 1 else c for c in p)
    if kind == "algebraic":  # a root of a linear factor: its Fraction
        return tuple(make_algebraic([-c.numerator, c.denominator],
                                    (c - 1, c + 1)) for c in p)
    # rationals reached by arithmetic in a number field
    return tuple((c + field_elt) - field_elt for c in p)


def _bary(pts):
    return tuple(sum(p[k] for p in pts) / len(pts)
                 for k in range(len(pts[0])))


def test_simplex_identity_across_construction_paths():
    # one ordered simplex built fresh, as a face, out of sd and H, and from
    # every scalar type is one chain generator
    root2 = sqrt_nonneg(2)
    primes = (999999937, 999999929, 999999893)
    for dim in (1, 2, 3):
        for case in range(4):
            rng = SplitMix64.stream(41, 10 * dim + case)
            verts = rand_simplex(rng, dim).vertices
            if case == 2:  # one irrational field coordinate
                v0 = (verts[0][0] + root2 / 3,) + verts[0][1:]
                verts = (v0,) + verts[1:]
            if case == 3:  # large coprime denominators
                v0 = tuple(c + Fraction(rng.randint(1, q - 1), q)
                           for c, q in zip(verts[0], primes))
                verts = (v0,) + verts[1:]
            fresh = simplex(dim, *verts)
            _same_simplex(fresh, Simplex(dim, verts))
            # a face of a longer formal generator, at every position
            extra = tuple(rng.fraction(6, 2) + 13 for _ in range(dim))
            for i in range(dim + 2):
                parent = Simplex(dim, verts[:i] + (extra,) + verts[i:])
                faces = {s.vertices: (c, s)
                         for c, s in boundary(SimplexChain(dim, [(1, parent)]))}
                c, face = faces[verts]
                assert c == (-1) ** i
                _same_simplex(face, fresh)
            # out of the subdivision engine
            ch = SimplexChain(dim, [(1, fresh)])
            [(c, s)] = sd_power(ch, 0)
            assert c == 1
            _same_simplex(s, fresh)
            flag = simplex(dim, *(_bary(verts[:j]) for j in
                                  range(dim + 1, 0, -1)))
            sd = {s: c for c, s in sd_power(ch, 1)}
            assert sd[flag] == (-1) ** (dim * (dim + 1) // 2)
            cone = simplex(dim, _bary(verts), *verts)
            assert {s: c for c, s in subdivision_homotopy(ch, 1)}[cone] == -1
            for _, s in sd_power(ch, 1):
                _same_simplex(s, simplex(dim, *s.vertices))
            # the vertices of sd² are the Fraction means of the faces of
            # the pieces of sd¹, keyed as a fresh point is
            want = {vertex_key(_bary([t.vertices[i] for i in sub]))
                    for _, t in sd_power(ch, 1)
                    for n in range(1, dim + 2)
                    for sub in combinations(range(dim + 1), n)}
            got = set()
            for _, s in sd_power(ch, 2):
                assert s.key() == tuple(map(vertex_key, s.vertices))
                got.update(s.key())
            assert got == want, (dim, case)
            # the same points in other scalar types
            if case == 2:
                lit = parse_number(format_number(verts[0][0]))
                assert isinstance(lit, AlgebraicReal)
                _same_simplex(fresh, Simplex(dim, ((lit,) + verts[0][1:],)
                                             + verts[1:]))
                continue
            for kind in ("int", "algebraic", "field"):
                pts = tuple(_retyped(p, kind, root2) for p in verts)
                _same_simplex(simplex(dim, *pts), fresh)
                _same_simplex(Simplex(dim, pts), fresh)


def _engine_cases():
    """Seeded positively oriented top simplices in E¹–E³, rational and with
    one coordinate shifted by √2/3, at rounds 0, 1 and 2, each with a point
    inside it."""
    shift = sqrt_nonneg(2) / 3
    for dim in (1, 2, 3):
        for rounds in (0, 1, 2):
            rng = SplitMix64.stream(29, 10 * dim + rounds)
            s = rand_simplex(rng, dim)
            v0 = s.vertices[0]
            v0 = (v0[0] + shift,) + v0[1:]
            moved = Simplex(dim, (v0,) + s.vertices[1:])
            # positive barycentric weights with large denominators keep the
            # point off the hyperplanes of sd^r
            w = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6)
                 for _ in range(dim + 1)]
            w = [c / sum(w) for c in w]
            for t in (s, moved):
                if orientation_sign(t) < 0:
                    vs = t.vertices
                    t = Simplex(dim, vs[:-2] + (vs[-1], vs[-2]))
                x = tuple(sum((c * v[i] for c, v in zip(w, t.vertices)),
                              start=Fraction(0)) for i in range(dim))
                yield dim, rounds, t, x


def test_chain_engine_identities():
    for dim, rounds, s, x in _engine_cases():
        ch = SimplexChain(dim, [(1, s)])
        sd = sd_power(ch, rounds)
        lhs = boundary(subdivision_homotopy(ch, rounds)) + \
            subdivision_homotopy(boundary(ch), rounds)
        assert (lhs - (sd - ch)).is_zero(), (dim, rounds)
        assert boundary(boundary(sd)).is_zero()
        assert len(sd) == factorial(dim + 1) ** rounds
        assert signed_indicator(sd, x) == 1


def test_simplex_equal_across_number_types():
    # rational coordinates as ints and as Fractions, and an irrational one
    # as a literal and as the Num of its field, which both key as
    # ("a", minpoly, index)
    lit, num = make_algebraic([-2, 0, 1], (1, 2)), sqrt_nonneg(2)
    assert isinstance(lit, AlgebraicReal) and isinstance(num, Num)
    as_int = Simplex(2, ((0, 1), (2, 0), (1, 1)))
    as_frac = simplex(2, (0, 1), (2, 0), (1, 1))
    as_lit = Simplex(2, ((0, lit), (2, 0), (1, 1)))
    as_num = Simplex(2, ((0, num), (2, 0), (1, 1)))
    assert as_int == as_frac and as_lit == as_num
    assert hash(as_int) == hash(as_frac) and hash(as_lit) == hash(as_num)
    assert vertex_key(as_lit.vertices[0]) == vertex_key(as_num.vertices[0]) \
        == ((0, 1), ("a", (-2, 0, 1), 1))
    merged = SimplexChain(2, [(1, as_int), (2, as_frac), (-4, as_int),
                              (1, as_lit), (-3, as_num)]).reduce()
    assert {s: c for c, s in merged} == {as_int: -1, as_lit: -2}
    other = simplex(2, (0, 1), (1, 1), (2, 0))
    assert other != as_int and as_lit != as_int
    assert SimplexChain(2, [(1, as_frac), (-1, as_int)]).is_zero()
    assert SimplexChain(2, [(1, as_lit), (-1, as_num)]).is_zero()


def test_torus_counts_n3():
    cx = torus_complex(3)
    v, e, f, t = (cx.ranks[k] for k in range(4))
    assert (v, e, f, t) == (27, 189, 324, 162)
    assert v - e + f - t == 0  # Euler characteristic of T³


def test_torus_homology_circle():
    hs = torus_homology(1)
    assert [h.betti for h in hs] == [1, 1]
    assert all(h.torsion == () for h in hs)


def test_torus_homology_t2():
    hs = torus_homology(2)
    assert [h.betti for h in hs] == [comb(2, k) for k in range(3)]
    assert all(h.torsion == () for h in hs)


def test_torus_homology_t3():
    hs = torus_homology(3)
    assert [h.betti for h in hs] == [comb(3, k) for k in range(4)]
    assert all(h.torsion == () for h in hs)


def test_kunneth_convolution_spot_check():
    # betti of T² equals the convolution square of the circle betti vector
    circle = [h.betti for h in torus_homology(1)]
    t2 = [h.betti for h in torus_homology(2)]
    conv = [sum(circle[i] * circle[k - i]
                for i in range(k + 1) if 0 <= k - i < len(circle)
                and i < len(circle))
            for k in range(3)]
    assert t2 == conv


def test_betti_matches_rational_rank_oracle():
    # independent oracle: betti = rank_k − rank ∂_k − rank ∂_{k+1} over ℚ
    cx = torus_complex(2)
    for k in range(3):
        r_in = rational_rank(cx.boundary_or_zero(k))
        r_out = rational_rank(cx.boundary_or_zero(k + 1))
        betti_rational = cx.ranks[k] - r_in - r_out
        assert cx.homology(k).betti == betti_rational


def _complex_from_triangles(tris):
    simplices = {2: set(), 1: set(), 0: set()}
    for t in tris:
        simplices[2].add(tuple(sorted(t)))
    for s in simplices[2]:
        for i in range(3):
            simplices[1].add(s[:i] + s[i + 1:])
    for s in simplices[1]:
        for i in range(2):
            simplices[0].add(s[:i] + s[i + 1:])
    basis = {k: sorted(simplices[k]) for k in simplices}
    index = {k: {s: i for i, s in enumerate(basis[k])} for k in basis}
    ranks = {k: len(basis[k]) for k in basis}
    boundaries = {}
    for k in (1, 2):
        mat = SparseIntMatrix(ranks[k - 1], ranks[k])
        for col, s in enumerate(basis[k]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat.add_at(index[k - 1][face], col, (-1) ** i)
        boundaries[k] = mat
    return ChainComplex(ranks, boundaries)


def test_rp2():
    # RP² as the antipodal icosahedron quotient: 6-vertex triangulation
    tris = [
        (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
        (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
    ]
    cx = _complex_from_triangles([tuple(v - 1 for v in t) for t in tris])
    h1 = cx.homology(1)
    assert h1.betti == 0
    assert h1.torsion == (2,)
    h0 = cx.homology(0)
    assert (h0.betti, h0.torsion) == (1, ())


def test_triangle_circle():
    # boundary of a 2-simplex: H₀ = ℤ, H₁ = ℤ
    edges = [(0, 1), (1, 2), (0, 2)]
    simplices = {1: sorted(edges), 0: [(0,), (1,), (2,)]}
    ranks = {0: 3, 1: 3}
    mat = SparseIntMatrix(3, 3)
    for col, (a, b) in enumerate(simplices[1]):
        mat.add_at(b, col, 1)
        mat.add_at(a, col, -1)
    cx = ChainComplex(ranks, {1: mat})
    assert cx.homology(0).betti == 1
    assert cx.homology(1).betti == 1


def test_subdivision_shared_by_a_table_sees_later_irrational_points():
    # sd(c), H(c) and H(∂c) share one subdivision of c's table; a chain
    # added to c later puts an irrational vertex on that table, and the
    # barycenters through it must still be the exact means
    tri = SimplexChain(2, [(1, simplex(2, (0, 0), (1, 0), (0, 1)))])
    lhs = boundary(subdivision_homotopy(tri, 2)) + \
        subdivision_homotopy(boundary(tri), 2)
    assert (lhs - (sd_power(tri, 2) - tri)).is_zero()
    r = sqrt_nonneg(2)
    both = tri + SimplexChain(2, [(1, simplex(2, (0, 0), (r, 0), (0, 1)))])
    assert both.table is tri.table
    for op in (sd_power, subdivision_homotopy):
        shared = op(both, 2)
        fresh = op(SimplexChain(2, list(both)), 2)
        assert shared.table is tri.table
        assert {s: c for c, s in shared} == {s: c for c, s in fresh}


# SHA-256 of (sd² ids, H₂ ids, table keys) of the 18 seed-505 simplices of
# the `chains` benchmark workload, and the report digest of `verify
# sd-homotopy --cases 100 --seed 505`; both recorded before barycenters
# were grown from face means, which must leave every id and key as it was
SD_IDS_SHA256 = \
    "4833885bfb8bc86e7f58237ba99cf75c44e54e2370964d632a2e6ef60e30ec5a"
SD_HOMOTOPY_DIGEST = \
    "e41c460ae926655a9fd8fbabcd9725fd285c8e911c0a8619a55943a9a738a857"


def test_subdivision_output_bytes_are_pinned(capsys):
    from scissors.cli import main

    h = hashlib.sha256()
    for case in range(18):
        dim = (case % 3) + 1
        ch = SimplexChain(dim, [(1, rand_simplex(SplitMix64.stream(505, case),
                                                 dim))])
        sd = sd_power(ch, 2)
        hh = subdivision_homotopy(ch, 2)
        h.update(repr((sd.ids, hh.ids, ch.table.keys)).encode())
    assert h.hexdigest() == SD_IDS_SHA256
    assert main(["verify", "sd-homotopy", "--cases", "100",
                 "--seed", "505"]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == SD_HOMOTOPY_DIGEST


ROOT2 = sqrt_nonneg(2)


def _embed(point):
    """The point whose coordinates a + b√2 are given as (a, b) pairs."""
    return tuple(a + b * ROOT2 if b else a for a, b in point)


def _replay_sd(pts, index, seen, tuples):
    """The test's own barycenters, in the order in which sd reaches them:
    sd(τ) takes the barycenter of the ordered face τ first, then recurses
    into its faces τ∖τᵢ for i = 0, 1, …, once per ordered face.  `pts`
    lists the points, as (a, b) pairs a + b√2 of Fractions, by id, and
    `index` interns them by value."""
    def walk(t):
        if len(t) < 2 or t in seen:
            return
        seen.add(t)
        m = len(t)
        mean = tuple((sum(pts[i][d][0] for i in t) / m,
                      sum(pts[i][d][1] for i in t) / m)
                     for d in range(len(pts[t[0]])))
        if mean not in index:
            index[mean] = len(pts)
            pts.append(mean)
        for i in range(m):
            walk(t[:i] + t[i + 1:])

    for t in tuples:
        walk(t)


def _mean_cases():
    """Seeded vertex tuples, as (a, b) pairs a + b√2, in E¹–E³: a simplex,
    a tuple that repeats an id, three collinear points whose middle one is
    the midpoint of the others (so a barycenter is an existing vertex), and
    the simplex with one coordinate moved by √2/3."""
    third = Fraction(1, 3)
    for dim in (1, 2, 3):
        for k in range(3):
            rng = SplitMix64.stream(53, 10 * dim + k)
            verts = [tuple((c, Fraction(0)) for c in v)
                     for v in rand_simplex(rng, dim).vertices]
            a, b = verts[0], verts[1]
            step = [rng.fraction(6, 2) for _ in range(dim)]
            line = [tuple((x + j * s, Fraction(0))
                          for (x, _), s in zip(a, step)) for j in (0, 2, 1)]
            moved = [((a[0][0], third),) + a[1:]] + verts[1:]
            yield (dim, k), dim, [tuple(verts), (a, a, b), tuple(line)]
            if k == 0:
                yield (dim, "√2/3"), dim, [tuple(moved)]


def test_barycenters_are_the_face_means_in_the_order_sd_reaches_them():
    for case, dim, tuples in _mean_cases():
        pts, index = [], {}
        for tup in tuples:
            for p in tup:
                index.setdefault(p, len(pts))
                if index[p] == len(pts):
                    pts.append(p)
        ch = SimplexChain(dim, [(1, Simplex(dim, tuple(map(_embed, tup))))
                                for tup in tuples])
        seen = set()
        for _ in range(2):  # sd of sd's result reaches sd²'s barycenters
            _replay_sd(pts, index, seen, [t for _, t in ch.reduce().ids])
            ch = barycentric_sd(ch)
        assert ch.table.keys == [vertex_key(_embed(p)) for p in pts], case
        assert any(b for p in pts for _, b in p) == (case[1] == "√2/3")
