from fractions import Fraction
from itertools import combinations
from math import gcd

from scissors.linalg import (
    det_small,
    mat_mul,
    nullspace_sparse,
    rank_sparse,
    rref_sparse,
    smith_normal_form_dense,
)
from scissors.homology import ChainComplex, SparseIntMatrix
from scissors.homology.groups import (
    bar_complex,
    cyclic_group,
    symmetric_group_3,
    trivial_module,
)
from scissors.homology.simplicial import torus_complex
from scissors.rng import SplitMix64


def check_snf(A, nrows, ncols):
    U, D, V = smith_normal_form_dense(A, nrows, ncols)
    # re-verification oracle: U·A·V == D by plain multiplication
    assert mat_mul(mat_mul(U, A), V) == D
    # D diagonal with divisibility chain
    diag = []
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert D[i][j] == 0
        if i < ncols:
            diag.append(D[i][i])
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert abs(det_small(U)) == 1
    assert abs(det_small(V)) == 1
    return diag


def test_snf_identity():
    diag = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 3)
    assert diag == [1, 1, 1]


def test_snf_textbook():
    # oracle: |det| = 8 preserved, elementary divisors (2, 4)
    diag = check_snf([[2, 4], [6, 8]], 2, 2)
    assert diag == [2, 4]


def test_snf_zero():
    diag = check_snf([[0, 0], [0, 0]], 2, 2)
    assert diag == [0, 0]


def test_snf_rectangular():
    check_snf([[1, 2, 3], [4, 5, 6]], 2, 3)
    check_snf([[1, 2], [3, 4], [5, 6]], 3, 2)


def test_snf_random_matrices():
    for case in range(30):
        rng = SplitMix64.stream(7, case)
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = check_snf(A, m, n)
        # |product of nonzero divisors| equals gcd of maximal minors in the
        # square full-rank case: spot-check via determinant when square
        if m == n:
            d = det_small(A)
            prod = 1
            for v in diag:
                prod *= v
            assert abs(d) == abs(prod)


def _minor_gcd(A, k):
    g = 0
    for rs in combinations(range(len(A)), k):
        for cs in combinations(range(len(A[0])), k):
            g = gcd(g, int(det_small([[A[i][j] for j in cs] for i in rs])))
    return g


def test_snf_determinantal_divisors():
    # d₁⋯d_k equals the gcd of all k×k minors: an oracle that shares no
    # code with the elimination
    for case in range(25):
        rng = SplitMix64.stream(29, case)
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        A = [[rng.randint(-12, 12) if rng.randint(0, 2) == 0 else 0
              for _ in range(n)] for _ in range(m)]
        diag = check_snf(A, m, n)
        prod = 1
        for k in range(1, min(m, n) + 1):
            prod *= diag[k - 1]
            assert prod == _minor_gcd(A, k), (case, k)


def test_elementary_divisors_match_dense_snf():
    s3 = symmetric_group_3()
    mats = [bar_complex(s3, trivial_module(s3), 3).boundaries[3]]
    mats += torus_complex(3).boundaries.values()
    for mat in mats:
        dense = [[0] * mat.cols for _ in range(mat.rows)]
        for i, j, v in mat.items():
            dense[i][j] = v
        _, D, _ = smith_normal_form_dense(dense, mat.rows, mat.cols)
        diag = [D[i][i] for i in range(min(mat.rows, mat.cols))]
        assert mat.elementary_divisors() == [d for d in diag if d]


def _shuffled(rng, n):
    """A seeded permutation of range(n) (Fisher–Yates)."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        p[i], p[j] = p[j], p[i]
    return p


def _permuted(mat, row_of, col_of, transpose=False):
    """The entries of `mat` moved to (row_of[i], col_of[j]), or to
    (col_of[j], row_of[i]) transposed, set column by column in the new
    order, bottom row first, so the rows reach the store, and the
    elimination, in another order too."""
    entries = sorted(mat.items(), key=lambda e: (col_of[e[1]], -e[0]))
    if transpose:
        out = SparseIntMatrix(mat.cols, mat.rows)
        for i, j, v in entries:
            out[col_of[j], row_of[i]] = v
    else:
        out = SparseIntMatrix(mat.rows, mat.cols)
        for i, j, v in entries:
            out[row_of[i], col_of[j]] = v
    return out


def test_elementary_divisors_ignore_permutations_and_transposition():
    # metamorphic: the divisors are invariants of the matrix up to
    # unimodular equivalence, which permutations and transposition keep,
    # whatever order the rows reach the elimination in
    for case in range(40):
        rng = SplitMix64.stream(4141, case)
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        mat = SparseIntMatrix(m, n)
        for i in range(m):
            for j in range(n):
                if rng.randint(0, 2) == 0:
                    # scaled columns make divisors other than 1
                    mat[i, j] = rng.randint(-6, 6) * (1 + j % 3)
        divisors = mat.elementary_divisors()
        assert len(divisors) == mat.rank()
        rows, cols = _shuffled(rng, m), _shuffled(rng, n)
        for flip in (False, True):
            moved = _permuted(mat, rows, cols, transpose=flip)
            assert moved.elementary_divisors() == divisors, (case, flip)


def test_bar_homology_ignores_a_permuted_basis():
    # permuting the basis of degree k permutes the columns of ∂_k and the
    # rows of ∂_{k+1}: a seeded relabelling that the homology ignores
    for case, (group, cap) in enumerate(((cyclic_group(4), 3),
                                         (symmetric_group_3(), 3),
                                         (cyclic_group(6), 2))):
        cx = bar_complex(group, trivial_module(group), cap + 1)
        want = [cx.homology(k) for k in range(cap + 1)]
        rng = SplitMix64.stream(4242, case)
        for k in range(1, cap + 2):
            perm = _shuffled(rng, cx.ranks[k])
            same = list(range(max(cx.ranks.values())))
            boundaries = dict(cx.boundaries)
            boundaries[k] = _permuted(cx.boundaries[k], same, perm)
            if k + 1 in boundaries:
                boundaries[k + 1] = _permuted(cx.boundaries[k + 1], perm,
                                              same)
            moved = ChainComplex(cx.ranks, boundaries)
            assert [moved.homology(d) for d in range(cap + 1)] == want, \
                (group.name, k)


def test_snf_torsion_example():
    # boundary matrix of the 2-torus-like relation: divisor 2 appears
    diag = check_snf([[2, 0], [0, 1]], 2, 2)
    assert diag == [1, 2]


def test_rref_and_rank():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {2: Fraction(5)}]
    pivots, red = rref_sparse(rows, 3)
    assert pivots == [0, 2]
    assert rank_sparse(rows, 3) == 2


def test_nullspace():
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    basis = nullspace_sparse(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        total = sum(vec.values(), start=Fraction(0))
        assert total == 0


def test_nullspace_random_consistency():
    for case in range(20):
        rng = SplitMix64.stream(13, case)
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        rows = []
        for _ in range(m):
            row = {}
            for j in range(n):
                v = rng.randint(-4, 4)
                if v:
                    row[j] = Fraction(v)
            rows.append(row)
        r = rank_sparse(rows, n)
        basis = nullspace_sparse(rows, n)
        assert r + len(basis) == n
        # every kernel vector annihilates every row
        for vec in basis:
            for row in rows:
                s = sum((row.get(j, Fraction(0)) * v for j, v in vec.items()),
                        start=Fraction(0))
                assert s == 0
