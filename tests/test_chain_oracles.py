"""The chain engine on vertex ids and the flag null-homotopy check against
the simplex-keyed implementations they replaced, kept here as oracles: a
chain as a list of (coefficient, Simplex) reduced by a dict keyed by the
simplex, a boundary that builds a fresh simplex per face, subspaces in
`Fraction` RREF form, and the null-homotopy check on dict vectors."""

from fractions import Fraction
from itertools import combinations

import pytest

from scissors.algebraic import AlgebraicReal, make_algebraic, sqrt_nonneg
from scissors.geom import (
    PointOnBoundary,
    Polytope,
    Simplex,
    SimplexChain,
    boundary,
    orientation_sign,
    signed_indicator,
    simplex,
    vertex_key,
)
from scissors.homology.flags import (
    SpanMissingFromPool,
    flag_double_complex,
    verify_flag_nullhomotopy,
)
from scissors.homology.simplicial import (
    affine_span_dim,
    sd_power,
    subdivision_homotopy,
)
from scissors.rng import SplitMix64
from scissors.scalars import scalar_key
from oracles import column_basis, contains_point, span_of_points
from test_flags import (
    _configurations as degenerate_configurations,
    verify_flipped,
)

# -- oracles ------------------------------------------------------------------


class OracleChain:
    def __init__(self, dim, terms=()):
        self.dim = dim
        self.terms = [(int(c), s) for c, s in terms if c != 0]

    def reduce(self):
        acc = {}
        for c, s in self.terms:
            acc[s] = acc.get(s, 0) + c
        return OracleChain(self.dim,
                           [(c, s) for s, c in acc.items() if c != 0])

    def __add__(self, other):
        return OracleChain(self.dim, self.terms + other.terms).reduce()

    def __neg__(self):
        return OracleChain(self.dim, [(-c, s) for c, s in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.reduce().terms


def oracle_boundary(chain):
    out = []
    for c, s in chain.terms:
        vs = s.vertices
        for i in range(len(vs)):
            out.append((-c if i % 2 else c,
                        Simplex(chain.dim, vs[:i] + vs[i + 1:])))
    return OracleChain(chain.dim, out).reduce()


class OracleSubspace:
    def __init__(self, base, directions):
        rows = [list(d) for d in directions]
        pivots, r = [], 0
        for col in range(len(base)):
            piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                       None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = Fraction(1) / rows[r][col]
            rows[r] = [v * inv for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(col)
            r += 1
        self.directions = tuple(tuple(row) for row in rows[:r])
        self.pivots = tuple(pivots)
        b = [Fraction(c) for c in base]
        for row, col in zip(self.directions, self.pivots):
            if b[col]:
                b = [a - b[col] * v for a, v in zip(b, row)]
        self.base = tuple(b)

    def key(self):
        return (len(self.directions), self.directions, self.base)

    def contains_point(self, p):
        v = [a - b for a, b in zip(p, self.base)]
        for row, col in zip(self.directions, self.pivots):
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, row)]
        return all(c == 0 for c in v)


def oracle_span(points):
    base = points[0]
    return OracleSubspace(base, [tuple(a - b for a, b in zip(p, base))
                                 for p in points[1:]])


def oracle_dprime(p, flag, tup, corrupt_sign=False):
    out = {}
    for i in range(len(flag)):
        sub, sign = flag[:i] + flag[i + 1:], -1 if i % 2 else 1
        key = (len(sub) - 1, sub, tup) if sub else ("aug", tup)
        out[key] = sign
    if corrupt_sign:
        out[key] = -sign
    return out


def oracle_s_map(fc, level, flag, tup):
    span_idx = fc.tuple_span_index(tup)
    if level == "aug":
        return {(0, (span_idx,), tup): 1}
    if flag[-1] == span_idx:
        return {}
    if span_idx not in fc.contains.get(flag[-1], ()):
        raise SpanMissingFromPool("span not below the flag end")
    return {(level + 1, flag + (span_idx,), tup): (-1) ** (level + 1)}


def oracle_nullhomotopy(fc, corrupt_sign=False):
    for q in range(fc.q_max + 1):
        for tup in fc.augmentation_basis(q):
            total = {}
            for (_, flag, t), v in oracle_s_map(fc, "aug", None, tup).items():
                for k2, v2 in oracle_dprime(0, flag, t, corrupt_sign).items():
                    total[k2] = total.get(k2, 0) + v * v2
            if {k: v for k, v in total.items() if v} != {("aug", tup): 1}:
                return False
        for p in range(fc.p_max + 1):
            for flag, tup in column_basis(fc, p, q):
                total = {}
                for (pp, fl, t), v in oracle_s_map(fc, p, flag, tup).items():
                    for k2, v2 in oracle_dprime(pp, fl, t,
                                                corrupt_sign).items():
                        total[k2] = total.get(k2, 0) + v * v2
                for key, v in oracle_dprime(p, flag, tup,
                                            corrupt_sign).items():
                    if key[0] == "aug":
                        inner = oracle_s_map(fc, "aug", None, key[1])
                    else:
                        inner = oracle_s_map(fc, *key)
                    for k2, v2 in inner.items():
                        total[k2] = total.get(k2, 0) + v * v2
                if {k: v for k, v in total.items() if v} != \
                        {(p, flag, tup): 1}:
                    return False
    return True


# -- helpers --------------------------------------------------------------------

def as_oracle(chain):
    return OracleChain(chain.dim_ambient, list(chain))


def keyed_terms(terms):
    """(coefficient, exact simplex key) per term, in order."""
    return [(c, s.key()) for c, s in terms]


def assert_same(chain, oracle):
    assert len(chain) == len(oracle.terms)
    assert keyed_terms(chain) == keyed_terms(oracle.terms)


def retyped(p, rng):
    """p with each coordinate given as an int (when integral), a Fraction or
    a rational algebraic literal, chosen by the rng."""
    out = []
    for c in p:
        kind = rng.randint(0, 2)
        if kind == 0 and c.denominator == 1:
            out.append(int(c))
        elif kind == 2:
            out.append(make_algebraic([-c.numerator, c.denominator],
                                      (c - 1, c + 1)))
        else:
            out.append(c)
    return tuple(out)


def seeded_chain_pair(seed, dim):
    """A chain and its oracle twin over a few points with small coordinates:
    simplices of every length up to dim + 2 (repeated vertices allowed),
    each term followed now and then by a cancelling copy whose points are
    given in other scalar types.  The first term is on the first pool
    points, so its ids come sorted, and the last two are a 0-simplex and a
    term on the empty tuple."""
    rng = SplitMix64.stream(seed, dim)
    pool = [tuple(rng.fraction(2, 2) for _ in range(dim))
            for _ in range(dim + 3)]
    terms = [(2, Simplex(dim, tuple(pool[:dim + 1])))]
    for _ in range(12):
        k = rng.randint(1, dim + 2)
        verts = tuple(rng.choice(pool) for _ in range(k))
        c = rng.randint(-2, 2)
        terms.append((c, Simplex(dim, tuple(retyped(v, rng) for v in verts))))
        if rng.randint(0, 2) == 0:
            twin = Simplex(dim, tuple(retyped(v, rng) for v in verts))
            terms.append((-c if rng.randint(0, 1) else c, twin))
    terms += [(rng.randint(1, 2), Simplex(dim, (rng.choice(pool),))),
              (rng.randint(-2, -1), Simplex(dim, ()))]
    return SimplexChain(dim, terms), OracleChain(dim, terms)


def cubic_chain_pair(dim):
    """A chain on points with a coordinate in ℚ(∛(3/8)), and its oracle."""
    alpha = make_algebraic([-3, 0, 0, 8], (0, 1))
    verts = [tuple(Fraction(i == j) for j in range(dim)) for i in range(dim)]
    verts = [(alpha,) + (Fraction(0),) * (dim - 1)] + verts
    verts[-1] = (verts[-1][0] + alpha,) + verts[-1][1:]
    s = simplex(dim, *verts)
    terms = [(1, s), (2, Simplex(dim, s.vertices[::-1])), (-1, s)]
    return SimplexChain(dim, terms), OracleChain(dim, terms)


# -- chain arithmetic -------------------------------------------------------------

def test_chain_arithmetic_matches_oracle():
    for dim in (1, 2, 3):
        for seed in range(4):
            chain, oracle = seeded_chain_pair(101 + seed, dim)
            other, other_oracle = seeded_chain_pair(201 + seed, dim)
            assert_same(chain, oracle)
            first, last = chain.ids[0][1], chain.ids[-1][1]
            assert list(first) == sorted(first) and last == ()
            assert_same(chain.reduce(), oracle.reduce())
            assert_same(boundary(chain), oracle_boundary(oracle))
            assert_same(boundary(boundary(chain)),
                        oracle_boundary(oracle_boundary(oracle)))
            assert boundary(boundary(chain)).is_zero()
            # two tables: other's points are mapped into chain's
            assert_same(chain + other, oracle + other_oracle)
            assert_same(chain - other, oracle - other_oracle)
            assert_same(-chain, -oracle)
            assert (chain - other).is_zero() == \
                (oracle - other_oracle).is_zero()
            assert (chain + (-chain)).is_zero()
            # the same chain rebuilt from its own terms, on a fresh table
            assert (chain - SimplexChain(dim, list(chain))).is_zero()
            # a reduced chain is its own reduction, with the same terms
            reduced = chain.reduce()
            assert reduced.reduce() is reduced


def test_sum_maps_only_the_vertices_its_terms_use():
    # sd leaves its barycenters in the table of the chain it subdivides;
    # adding that chain moves only its terms' vertices into the other table
    a = SimplexChain(2, [(1, seeded_simplex(808, 0, 2))])
    b = SimplexChain(2, [(1, seeded_simplex(808, 1, 2))])
    sd_power(b, 2)
    assert len(b.table.points) > 3
    before = set(a.table.keys)
    assert not (a - b).is_zero()
    used = {b.table.keys[i] for _, t in b.ids for i in t}
    assert set(a.table.keys) == before | used


def test_cubic_chain_matches_oracle():
    for dim in (1, 2, 3):
        chain, oracle = cubic_chain_pair(dim)
        assert_same(chain.reduce(), oracle.reduce())
        assert_same(boundary(chain), oracle_boundary(oracle))
        sd = sd_power(chain.reduce(), 1)
        lhs = boundary(subdivision_homotopy(chain, 1)) + \
            subdivision_homotopy(boundary(chain), 1)
        rhs = sd - chain
        assert (lhs - rhs).is_zero()
        # the same identity in the oracle's arithmetic
        o_lhs = oracle_boundary(as_oracle(subdivision_homotopy(chain, 1))) \
            + as_oracle(subdivision_homotopy(boundary(chain), 1))
        assert (o_lhs - (as_oracle(sd) - oracle)).is_zero()


def seeded_simplex(seed, case, dim):
    rng = SplitMix64.stream(seed, case)
    while True:
        verts = [tuple(rng.fraction(6, 2) for _ in range(dim))
                 for _ in range(dim + 1)]
        if affine_span_dim(verts) == dim:
            return simplex(dim, *verts)


def test_homotopy_identity_in_oracle_arithmetic():
    for case in range(9):
        dim, rounds = case % 3 + 1, case % 2 + 1
        ch = SimplexChain(dim, [(1, seeded_simplex(505, case, dim))])
        h, h_of_d = (subdivision_homotopy(ch, rounds),
                     subdivision_homotopy(boundary(ch), rounds))
        sd = sd_power(ch, rounds)
        rhs = sd - ch
        assert (boundary(h) + h_of_d - rhs).is_zero()
        oracle = as_oracle(ch)
        o_rhs = as_oracle(sd) - oracle
        assert (oracle_boundary(as_oracle(h)) + as_oracle(h_of_d)
                - o_rhs).is_zero()
        assert len(rhs) == len(o_rhs.terms)
        assert sorted(keyed_terms(rhs)) == sorted(keyed_terms(o_rhs.terms))


class OracleSubdivision:
    """sd and H by their recursive definition on tuples of points: sd(σ) =
    b_σ·sd(∂σ) and H(σ) = −b_σ·(σ + H(∂σ)), the identity and 0 on
    vertices, where b_σ is the mean of σ's points in exact scalars
    (`Fraction`s when rational), a repeated point counted as often as it
    occurs.  A point is named by the scalar keys of its coordinates, and
    numbered in the order those keys are first seen."""

    def __init__(self):
        self.keys, self.points, self.number = [], [], {}
        self.means = {}  # point tuple -> the number of its barycenter

    def name(self, p):
        k = tuple(map(scalar_key, p))
        if k not in self.number:
            self.number[k] = len(self.keys)
            self.keys.append(k)
            self.points.append(p)
        return self.number[k]

    def barycenter(self, t):
        if t not in self.means:
            col = list(zip(*(self.points[i] for i in t)))
            self.means[t] = self.name(tuple(
                sum(c[1:], c[0]) * Fraction(1, len(t)) for c in col))
        return self.means[t]

    def sd(self, t):
        if len(t) == 1:
            return {t: 1}
        b, out = self.barycenter(t), {}
        for i in range(len(t)):
            for u, c in self.sd(t[:i] + t[i + 1:]).items():
                out[(b,) + u] = out.get((b,) + u, 0) + (-1) ** i * c
        return out

    def h(self, t):
        if len(t) == 1:
            return {}
        b = self.barycenter(t)
        out = {(b,) + t: -1}
        for i in range(len(t)):
            for u, c in self.h(t[:i] + t[i + 1:]).items():
                out[(b,) + u] = out.get((b,) + u, 0) - (-1) ** i * c
        return out

    def apply(self, image, chain):
        out = {}
        for t, c in chain.items():
            for u, cu in image(t).items():
                out[u] = out.get(u, 0) + c * cu
        return out

    def keyed(self, chain):
        """The nonzero terms as (coefficient, tuple of point keys)."""
        return {(c, tuple(self.keys[i] for i in t))
                for t, c in chain.items() if c}


def _point_keyed(chain):
    """The terms as (coefficient, tuple of point keys), each vertex of the
    table keyed by its point once."""
    keys = {i: tuple(map(scalar_key, chain.table.point(i)))
            for i in {i for _, t in chain.ids for i in t}}
    return [(c, tuple(keys[i] for i in t)) for c, t in chain.ids]


def _definition_chain(seed, dim):
    """Seeded cells on a few rational points, one with a vertex repeated,
    together with the midpoint of the first two points, on which the
    barycenter of that edge lands, a point with an irrational first
    coordinate, and a 0-simplex, whose boundary is the empty tuple."""
    rng = SplitMix64.stream(seed, dim)
    pool = [tuple(rng.fraction(3, 2) for _ in range(dim))
            for _ in range(dim + 1)]
    mid = tuple((a + b) / 2 for a, b in zip(pool[0], pool[1]))
    odd = (pool[1][0] + sqrt_nonneg(2) / 3,) + pool[1][1:]
    cells = [tuple(pool), (pool[0], mid, pool[0]),
             (odd,) + tuple(pool[1:]), (mid, pool[1]), (pool[-1],)]
    return SimplexChain(dim, [(rng.choice((-2, -1, 1, 3)), simplex(dim, *t))
                              for t in cells])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sd_and_homotopy_match_their_definition(dim):
    # sd^r and H_r = Σ_{i<r} H∘sd^i of the chain engine, against the
    # recursion on points for r = 0, 1, 2, as sets of point-keyed terms
    for seed in (5150, 5151):
        chain = _definition_chain(seed, dim)
        oracle = OracleSubdivision()
        terms = {}
        for c, s in chain:
            t = tuple(map(oracle.name, s.vertices))
            terms[t] = terms.get(t, 0) + c
        h_total = {}
        for rounds in range(3):
            sd = sd_power(chain, rounds)
            h = subdivision_homotopy(chain, rounds)
            want_sd, want_h = oracle.keyed(terms), oracle.keyed(h_total)
            assert len(sd) == len(want_sd) and \
                set(_point_keyed(sd)) == want_sd, (seed, rounds)
            assert len(h) == len(want_h) and \
                set(_point_keyed(h)) == want_h, (seed, rounds)
            # ∂H_r + H_r∂ = sd^r − id, with H_r on the empty tuple 0
            h_of_d = subdivision_homotopy(boundary(chain), rounds)
            assert len(h_of_d.terms) == len(h_of_d)
            assert (boundary(h) + h_of_d - (sd - chain)).is_zero()
            for t, c in oracle.apply(oracle.h, terms).items():
                h_total[t] = h_total.get(t, 0) + c
            terms = oracle.apply(oracle.sd, terms)
        # no barycenter of the empty tuple joins the table
        assert all(len(k) == dim for k in chain.table.keys), seed


def test_flipped_cells_keep_their_keys():
    # a polytope flips negatively ordered cells; the flipped cell's keys
    # (whether computed before the flip or after) and the chain's id tuples
    # follow the new vertex order
    for case in range(12):
        dim = case % 3 + 1
        s = seeded_simplex(707, case % 6, dim)
        if dim > 1 and orientation_sign(s) > 0:
            vs = s.vertices
            s = Simplex(dim, vs[:-2] + (vs[-1], vs[-2]))
        if case >= 6:
            s.key()
        p = Polytope(SimplexChain(dim, [(1, s)]))
        [(c, cell)] = list(p.chain)
        assert c == 1 and orientation_sign(cell) == 1
        assert cell.key() == tuple(map(vertex_key, cell.vertices))
        fresh = SimplexChain(dim, [(1, simplex(dim, *cell.vertices))])
        assert (p.chain - fresh).is_zero(), case
        assert (p.chain - SimplexChain(dim, [(1, s)])).is_zero() == \
            (dim == 1 or orientation_sign(s) > 0), case


def _placement(rng, dim):
    """A signed permutation of the axes followed by a rational translation."""
    perm = list(range(dim))
    for i in range(dim - 1, 0, -1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    shift = [rng.fraction(5, 3) for _ in range(dim)]

    def move(p):
        return tuple(signs[k] * p[perm[k]] + shift[k] for k in range(dim))
    return move


def _moved(chain, move):
    return {tuple(map(move, s.vertices)): c for c, s in chain}


def _as_points(chain):
    return {s.vertices: c for c, s in chain}


def test_homotopy_identity_under_placement():
    # sd and H commute with affine maps, and the identity holds on the
    # moved simplex
    for case in range(6):
        dim, rounds = case % 3 + 1, case % 2 + 1
        s = seeded_simplex(606, case, dim)
        move = _placement(SplitMix64.stream(607, case), dim)
        ch = SimplexChain(dim, [(1, s)])
        moved = SimplexChain(dim, [(1, Simplex(dim, tuple(map(move,
                                                             s.vertices))))])
        lhs = boundary(subdivision_homotopy(moved, rounds)) + \
            subdivision_homotopy(boundary(moved), rounds)
        assert (lhs - (sd_power(moved, rounds) - moved)).is_zero(), case
        assert _as_points(sd_power(moved, rounds)) == \
            _moved(sd_power(ch, rounds), move), case
        assert _as_points(subdivision_homotopy(moved, rounds)) == \
            _moved(subdivision_homotopy(ch, rounds), move), case


def _indicator(chain, x):
    """signed_indicator(chain, x), or None when x lies on a cell's facet
    plane."""
    try:
        return signed_indicator(chain, x)
    except PointOnBoundary:
        return None


def test_vertex_identity_lives_in_the_table():
    # the vertices of placed simplices, each given as an int (when
    # integral), a Fraction or a rational algebraic literal: one id per
    # value, and every identity of a term computed from the table
    kinds = set()
    for case in range(9):
        dim = case % 3 + 1
        rng = SplitMix64.stream(909, case)
        move = _placement(rng, dim)
        cells = [tuple(map(move, seeded_simplex(909, 2 * case + j,
                                                dim).vertices))
                 for j in range(2)]
        terms = []
        for c, vs in ((1, cells[0]), (-2, cells[1][::-1]), (3, cells[0]),
                      (1, cells[1])):
            vs = tuple(retyped(v, rng) for v in vs)
            kinds.update(type(x) for v in vs for x in v)
            terms.append((c, Simplex(dim, vs)))
        ch = SimplexChain(dim, terms)
        t = ch.table
        assert len(t.points) == len({v for vs in cells for v in vs}), case
        assert ch.ids == [(c, tuple(map(t.index.__getitem__, s.key())))
                          for c, s in terms]
        # iterating the chain yields the table's own point objects
        assert all(v is t.points[i] for (_, s), (_, ids) in zip(ch, ch.ids)
                   for v, i in zip(s.vertices, ids))
        for (c, s), (c_in, given) in zip(ch, terms):
            assert c == c_in and s == given
            for x in (s, given):
                assert hash(x) == hash(tuple(map(vertex_key, x.vertices)))
        assert SimplexChain(dim, ch.terms).ids == ch.ids
        # the sum of the cells does not depend on their order
        back = SimplexChain(dim, ch.terms[::-1])
        for vs in cells:
            inside = tuple(sum(x) / (dim + 1) for x in zip(*vs))
            outside = tuple(2 * a - b for a, b in zip(vs[0], inside))
            for x in (inside, outside):
                assert _indicator(ch, x) == _indicator(back, x), case
    assert kinds == {int, Fraction, AlgebraicReal}


# -- flags --------------------------------------------------------------------------

def _flag_configurations():
    for case in range(8):
        rng = SplitMix64.stream(43, case)
        dim = 2 if case % 2 == 0 else 3
        npts = rng.randint(3, 5)
        yield dim, [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(dim)) for _ in range(npts)]


def test_subspaces_match_oracle():
    for dim, pts in _flag_configurations():
        subsets = [sub for size in range(1, len(pts) + 1)
                   for sub in combinations(range(len(pts)), size)]
        spans = {sub: span_of_points([pts[i] for i in sub])
                 for sub in subsets}
        oracle = {sub: oracle_span([pts[i] for i in sub]) for sub in subsets}
        for a in subsets:
            assert spans[a].dim == len(oracle[a].directions)
            assert [contains_point(spans[a], p) for p in pts] == \
                [oracle[a].contains_point(p) for p in pts]
            for b in subsets:
                assert (spans[a].key() == spans[b].key()) == \
                    (oracle[a].key() == oracle[b].key()), (a, b)


def test_nullhomotopy_matches_oracle():
    for dim, pts in _flag_configurations():
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        for corrupt in (False, True):
            check = verify_flipped if corrupt else verify_flag_nullhomotopy
            assert check(fc) == \
                oracle_nullhomotopy(fc, corrupt) == (not corrupt)


@pytest.mark.parametrize("corrupt", [False, True])
def test_nullhomotopy_matches_oracle_on_degenerate_configurations(corrupt):
    # repeated, collinear and coplanar points, and a line whose span lies
    # in planes of the pool as well
    for case, dim, pts in degenerate_configurations():
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        check = verify_flipped if corrupt else verify_flag_nullhomotopy
        assert check(fc) == \
            oracle_nullhomotopy(fc, corrupt) == (not corrupt), case
