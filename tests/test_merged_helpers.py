"""Each job of exact linear algebra has one helper in `scissors.linalg`.

The separate helpers they replaced are copied here as oracles, as they
were, and compared with the merged ones on seeded inputs: primitive
vectors (`hnormalize`, `canon_plane`, the flag complex's `_primitive`,
`_div_content` and `_canonical_single`), the affine span by integer
echelon (the generic-scalar Gauss of `affine_span_dim`), the integer
echelon grown a row at a time and the subspace keys built from it (the
column-by-column `echelon_int` of all rows at once), the field norm
(`numberfield._gauss`) and the change of basis of an algebra
(`hochschild._invert_dense`).
"""

from fractions import Fraction
from math import gcd

import pytest

from scissors.algebraic import scalar_sign
from scissors.poly import _canonical_single
from scissors.geom import make_point
from scissors.hochschild import algebra_from_json, matrix_algebra, quaternions
from scissors.geom import to_homog
from scissors.homology.flags import subspace_pool
from scissors.homology.simplicial import affine_span_dim
from scissors.intvec import primitive
from scissors.linalg import det_small, echelon_int
from scissors.numberfield import SimpleField
from scissors.rng import SplitMix64
from oracles import span_of_points

# -- oracles: the replaced helpers --------------------------------------------


def hnormalize(p):
    g = 0
    for c in p:
        g = gcd(g, c)
    if g == 0:
        return p
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def canon_plane(func):
    g = gcd(*func)
    if g == 0:
        return None
    if next(c for c in func if c) < 0:
        g = -g
    return tuple(c // g for c in func)


def flags_primitive(v, lead=None):
    g = gcd(*v)
    if not g:
        return v
    if lead is None:
        lead = next(a for a in v if a)
    if lead < 0:
        g = -g
    return [a // g for a in v]


def div_content(f):
    g = gcd(*f)
    return f if g == 1 else tuple(c // g for c in f)


def canonical_single(coeffs):
    f = [int(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    f = div_content(tuple(f))
    return tuple(-c for c in f) if f and f[-1] < 0 else f


def gauss(cols, rhs):
    n = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        piv = m[c][c]
        det *= piv
        row = m[c] = [v / piv for v in m[c]]
        for r in range(n):
            f = m[r][c]
            if r != c and f:
                m[r] = [a - f * b for a, b in zip(m[r], row)]
    return det, [m[i][n] for i in range(n)]


def invert_dense(T):
    n = len(T)
    A = [row[:] + [Fraction(1) if i == j else Fraction(0)
                   for j in range(n)] for i, row in enumerate(T)]
    for k in range(n):
        piv = next(i for i in range(k, n) if A[i][k] != 0)
        A[k], A[piv] = A[piv], A[k]
        inv = 1 / A[k][k]
        A[k] = [v * inv for v in A[k]]
        for i in range(n):
            if i != k and A[i][k]:
                f = A[i][k]
                A[i] = [u - f * w for u, w in zip(A[i], A[k])]
    return [row[n:] for row in A]


def old_affine_span_dim(points):
    pts = [make_point(p) for p in points]
    base = pts[0]
    rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    rank = 0
    for col in range(len(base)):
        piv = None
        for i in range(rank, len(rows)):
            if scalar_sign(rows[i][col]) != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = Fraction(1) / prow[col]
        for i in range(len(rows)):
            if i == rank:
                continue
            f = rows[i][col]
            if scalar_sign(f) != 0:
                f = f * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def column_echelon(rows):
    rows = [tuple(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r] = primitive(rows[r], rows[r][col])
        p = prow[col]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f:
                rows[i] = primitive([p * x - f * y
                                     for x, y in zip(rows[i], prow)])
        pivots.append(col)
        r += 1
    return tuple(pivots), tuple(rows[:r])


def old_subspace_key(points):
    """The subspace key of the span of points, from one elimination of
    all the difference rows."""
    hs = [to_homog(tuple(map(Fraction, p))) for p in points]
    *b, w = hs[0]
    pivots, directions = column_echelon(
        [[x * w - y * h[-1] for x, y in zip(h[:-1], b)] for h in hs[1:]])
    v = list(hs[0])
    for row, col in zip(directions, pivots):
        f = v[col]
        if f:
            p = row[col]
            v = [p * a - f * c for a, c in zip(v, row)] + [p * v[-1]]
    return (len(pivots), directions, primitive(v, v[-1]))


def old_rebase(basis, prod):
    """Structure constants on `basis` through a dense inverse of T."""
    dim = len(basis)
    T = [[basis[j].get(i, Fraction(0)) for j in range(dim)]
         for i in range(dim)]
    Tinv = invert_dense(T)

    def to_new(vec):
        out = {}
        for i in range(dim):
            acc = Fraction(0)
            for r, v in vec.items():
                acc += Tinv[i][r] * v
            if acc:
                out[i] = acc
        return out

    def mul(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in prod(i, j).items():
                    out[k] = out.get(k, Fraction(0)) + a * b * c
        return {k: c for k, c in out.items() if c}

    return [[to_new(mul(u, v)) for v in basis] for u in basis]


# -- primitive vectors --------------------------------------------------------


def _vectors():
    """Seeded integer vectors of length 1-5: zero vectors, negative leads
    and contents above 1 among them."""
    for case in range(300):
        rng = SplitMix64.stream(1501, case)
        n = rng.randint(1, 5)
        v = [rng.randint(-6, 6) for _ in range(n)]
        if case % 7 == 0:
            v = [0] * n
        elif case % 5 == 0:
            v[rng.randint(0, n - 1)] = 0
        k = rng.choice((1, 2, 6, -3, -10 ** 12))
        yield tuple(k * a for a in v)


def test_primitive_matches_replaced_helpers():
    for v in _vectors():
        assert primitive(v, v[-1]) == hnormalize(v)
        if any(v):
            assert primitive(v) == canon_plane(v)
        else:
            assert canon_plane(v) is None and primitive(v) == v
        for lead in (None, *v):
            assert primitive(list(v), lead) == tuple(
                flags_primitive(list(v), lead))
        assert _canonical_single(v) == canonical_single(v)
        if any(v):
            assert primitive(v, 1) == div_content(v)


def test_primitive_is_idempotent_and_keeps_the_line():
    for v in _vectors():
        q = primitive(v)
        assert primitive(q) == q
        if any(v):
            assert gcd(*q) == 1 and next(a for a in q if a) > 0
            ratio = Fraction(next(a for a in v if a), next(a for a in q if a))
            assert tuple(ratio * a for a in q) == v


# -- affine spans by integer echelon -----------------------------------------


def _point_sets(dim):
    """Seeded rational point sets in E^dim with repeated points and
    collinear or coplanar subsets."""
    for case in range(60):
        rng = SplitMix64.stream(1600 + dim, case)
        pts = [tuple(rng.fraction(6, 2) for _ in range(dim))
               for _ in range(rng.randint(1, dim + 1))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randint(0, 2)
            p, q, r = (rng.choice(pts) for _ in range(3))
            s, t = rng.fraction(4, 3), rng.fraction(4, 3)
            if kind == 0:  # a repeat
                pts.append(p)
            elif kind == 1:  # on the line through p and q
                pts.append(tuple(a + s * (b - a) for a, b in zip(p, q)))
            else:  # on the plane through p, q and r
                pts.append(tuple(a + s * (b - a) + t * (c - a)
                                 for a, b, c in zip(p, q, r)))
        pts.sort(key=lambda _: rng.next_u64())  # a seeded shuffle
        yield pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_span_dim_matches_generic_gauss(dim):
    for pts in _point_sets(dim):
        want = old_affine_span_dim(pts)
        assert affine_span_dim(pts) == want
        assert span_of_points(pts).dim == want


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_echelon_depends_on_the_row_space_alone(dim):
    for case in range(40):
        rng = SplitMix64.stream(1700 + dim, case)
        rows = [[rng.randint(-4, 4) for _ in range(dim)]
                for _ in range(rng.randint(1, dim + 1))]
        # the same row space from other rows: scaled, combined, reordered
        mixed = [[k * a for a in r]
                 for k, r in zip((rng.choice((-3, 2, 5)) for _ in rows), rows)]
        mixed.append([sum(c) for c in zip(*rows)])
        mixed.sort(key=lambda _: rng.next_u64())
        pivots, reduced = echelon_int(rows)
        assert echelon_int(mixed) == (pivots, reduced)
        assert len(pivots) == old_affine_span_dim(
            [(0,) * dim] + [tuple(r) for r in rows])
        for row, col in zip(reduced, pivots):
            assert gcd(*row) == 1 and row[col] > 0
            assert all(row[c] == 0 for c in pivots if c != col)
        assert (pivots, reduced) == column_echelon(rows)
        assert echelon_int(mixed) == column_echelon(mixed)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subspace_keys_grown_by_joins_match_one_elimination(dim):
    for pts in _point_sets(dim):
        assert span_of_points(pts).key() == old_subspace_key(pts)
        spans = {}
        pool = subspace_pool(pts, dim, spans)
        for subset, j in spans.items():
            assert pool[j].key() == \
                old_subspace_key([pts[i] for i in subset]), subset
        assert len({s.key() for s in pool}) == len(pool)


# -- the field norm --------------------------------------------------------


def test_norm_matches_gauss_determinant():
    for n in range(2, 10):
        # Eisenstein at 3: x^n − 3x − 3 is irreducible, one positive root
        f = (-3, -3) + (0,) * (n - 2) + (1,)
        lo = next(k for k in range(1, 5)
                  if sum(c * k ** i for i, c in enumerate(f)) < 0
                  <= sum(c * (k + 1) ** i for i, c in enumerate(f)))
        F = SimpleField(f, lo, lo + 1)
        for case in range(5):
            rng = SplitMix64.stream(1800 + n, case)
            u = tuple(rng.fraction(20, 9) for _ in range(n))
            cols = F._columns(u)
            assert F.norm(u) == gauss(cols, (0,) * n)[0]
        # a singular matrix: two equal columns
        cols = [list(cols[0])] + [list(c) for c in cols[:-1]]
        assert det_small(cols) == gauss(cols, (0,) * n)[0] == 0


# -- change of basis of an algebra -------------------------------------------


def _old_matrix_algebra(n):
    units = [(p, q) for p in range(n) for q in range(n)]
    raw = {u: i for i, u in enumerate(units)}
    basis = [{raw[(p, p)]: Fraction(1) for p in range(n)}]
    basis += [{raw[(p, q)]: Fraction(1)} for (p, q) in units if p != q]
    basis += [{raw[(p, p)]: Fraction(1), raw[(0, 0)]: Fraction(-1)}
              for p in range(1, n)]

    def prod(a, b):
        (p, q), (r, s) = units[a], units[b]
        return {raw[(p, s)]: 1} if q == r else {}

    return old_rebase(basis, prod)


@pytest.mark.parametrize("n", [2, 4])
def test_matrix_algebra_tables_match_dense_inverse(n):
    assert matrix_algebra(n).mul_table == _old_matrix_algebra(n)


def _json_table(table):
    return [[[[k, str(c)] for k, c in cell.items()] for cell in row]
            for row in table]


@pytest.mark.parametrize("basis, unit", [
    # 1 and i swapped, the unit doubled: the unit is (0, 1/2, 0, 0)
    ([{1: Fraction(1)}, {0: Fraction(2)}, {2: Fraction(1)},
      {3: Fraction(1)}], ["0", "1/2", "0", "0"]),
    # 1 + i first: the unit is f0 − f1
    ([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)},
      {2: Fraction(1)}, {3: Fraction(1)}], ["1", "-1", "0", "0"]),
])
def test_unit_rebased_json_algebra_matches_dense_inverse(basis, unit):
    # the quaternions written on another basis, with the unit not first
    quat = quaternions().mul_table
    table = old_rebase(basis, lambda i, j: quat[i][j])
    got = algebra_from_json({"dim": 4, "mul": _json_table(table),
                             "unit": unit})
    units = [Fraction(u) for u in unit]
    pivot = next(i for i, c in enumerate(units) if c)
    old_basis = [dict(enumerate(units))]
    old_basis += [{i: Fraction(1)} for i in range(4) if i != pivot]
    assert got.mul_table == old_rebase(old_basis, lambda i, j: table[i][j])
