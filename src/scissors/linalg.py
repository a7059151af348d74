"""Exact integer and rational linear algebra: the package's one home for
each kind of elimination.  The integer-vector helpers `primitive` and
`net_faces`, which eliminate nothing, are in `intvec`, so that a command
that enters none of this module loads none of it.

- A sparse row is a dict {col: nonzero value}, and `_axpy` is the one
  update of such rows, for the Smith normal form, the rational echelon
  form and `homology`'s sparse matrix product.
- Smith normal form runs on sparse integer rows: smallest-|entry| pivots
  (which keep intermediate growth tame at desk scale) are cleared by
  floor-division row and column operations, then one gcd/lcm pass over the
  diagonal gives the divisibility chain.  The rows are reduced in the order
  they are given, which sets the cost, not the result.
- `echelon_int` is fraction-free elimination of dense integer rows to a
  reduced echelon form with primitive rows: affine span dimensions.  Its
  two steps, `echelon_clear` and `echelon_add`, grow a form one row at a
  time: the subspace keys of the flag complex.
- `det_small` is the determinant by elimination over Fractions: norms in
  number fields and the test oracles.  The cofactor kernel of the geometry
  predicates (`geom.predicates.hdet`) stays apart, on the hot path.
- Rational elimination runs on sparse Fraction rows and provides rank,
  RREF, kernel bases and the solves of a change of basis.
"""

from bisect import bisect
from fractions import Fraction

from .intvec import primitive


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _axpy(dst, src, f):
    """dst -= f·src on sparse rows, in place, for f nonzero."""
    for j, v in src.items():
        nv = dst.get(j, 0) - f * v
        if nv:
            dst[j] = nv
        else:
            del dst[j]


def _combine(r1, r2, s, t):
    """The sparse row s·r1 + t·r2."""
    out = {}
    for row, f in ((r1, s), (r2, t)):
        if f:
            _axpy(out, row, -f)
    return out


def _min_entry(rows, among):
    """(i, j) of a smallest-|entry| nonzero entry in the rows `among`."""
    best = at = None
    for i in among:
        for j, v in rows[i].items():
            if best is None or abs(v) < best:
                best, at = abs(v), (i, j)
                if best == 1:
                    return at
    return at


def smith_normal_form_sparse(rows, ncols, *, transforms=True):
    """Smith normal form of the integer matrix A whose row i is the sparse
    dict rows[i] (column -> nonzero int); `rows` is consumed.

    Returns (U, diag, Vt): U (len(rows) rows) and Vt (ncols rows) are
    unimodular sparse row lists with U·A·Vtᵀ = D, where D is zero apart
    from D[k][k] = diag[k] > 0 and each diag[k] divides the next.  With
    transforms=False, U and Vt are neither built nor updated and come back
    as None.
    """
    D = rows
    if transforms:
        U = [{i: 1} for i in range(len(D))]
        Vt = [{j: 1} for j in range(ncols)]
    pivots = []
    active = [i for i in range(len(D)) if D[i]]
    while active:
        p, q = _min_entry(D, active)
        while True:
            a = D[p][q]
            # clear column q by row operations; remainders smaller than |a|
            # become the next pivot
            rest = []
            for i in active:
                if i != p and q in D[i]:
                    f = D[i][q] // a
                    if f:
                        _axpy(D[i], D[p], f)
                        if transforms:
                            _axpy(U[i], U[p], f)
                    if q in D[i]:
                        rest.append(i)
            if rest:
                p = min(rest, key=lambda i: abs(D[i][q]))
                continue
            # clear row p by column operations (V kept transposed); column q
            # is clear, so they change only row p of D
            for j in [j for j in D[p] if j != q]:
                f = D[p][j] // a
                if f and transforms:
                    _axpy(Vt[j], Vt[q], f)
                r = D[p][j] - f * a
                if r:
                    D[p][j] = r
                else:
                    del D[p][j]
            if len(D[p]) == 1:
                break
            q = min((j for j in D[p] if j != q), key=lambda j: abs(D[p][j]))
        if a < 0:
            D[p][q] = -a
            if transforms:
                U[p] = {j: -v for j, v in U[p].items()}
        pivots.append((p, q))
        active = [i for i in active if i != p and D[i]]
    # divisibility: diag(a, b) -> diag(g, ab/g) by unimodular L and R
    diag = [D[p][q] for p, q in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a == 0:
                continue
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            if transforms:
                (pi, qi), (pj, qj) = pivots[i], pivots[j]
                U[pi], U[pj] = (_combine(U[pi], U[pj], x, y),
                                _combine(U[pi], U[pj], -bg, ag))
                Vt[qi], Vt[qj] = (_combine(Vt[qi], Vt[qj], 1, 1),
                                  _combine(Vt[qi], Vt[qj], -y * bg, x * ag))
            diag[i], diag[j] = g, ag * b
    if not transforms:
        return None, diag, None
    used_rows = {p for p, _ in pivots}
    used_cols = {q for _, q in pivots}
    U = [U[p] for p, _ in pivots] + [
        U[i] for i in range(len(U)) if i not in used_rows]
    Vt = [Vt[q] for _, q in pivots] + [
        Vt[j] for j in range(ncols) if j not in used_cols]
    return U, diag, Vt


def smith_normal_form_dense(A, nrows, ncols):
    """(U, D, V) with U·A·V = D diagonal, d₁ | d₂ | ..., U, V unimodular."""
    U, diag, Vt = smith_normal_form_sparse(
        [{j: v for j, v in enumerate(row) if v} for row in A], ncols)
    D = [[0] * ncols for _ in range(nrows)]
    for k, d in enumerate(diag):
        D[k][k] = d
    V = [[0] * ncols for _ in range(ncols)]
    for j, row in enumerate(Vt):
        for i, v in row.items():
            V[i][j] = v
    return [[row.get(j, 0) for j in range(nrows)] for row in U], D, V


def mat_mul(A, B):
    n, m = len(A), len(B[0]) if B else 0
    k = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    if Bt[j]:
                        Oi[j] += a * Bt[j]
    return out


def det_small(M):
    """Exact determinant of a square matrix of rationals, by Gaussian
    elimination over Fractions (desk-size matrices)."""
    n = len(M)
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if A[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        inv = 1 / A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] * inv
            if f:
                for j in range(k, n):
                    A[i][j] -= f * A[k][j]
    return det


def echelon_int(rows):
    """(pivots, rows): the fraction-free reduced echelon form of dense
    integer rows.  Each row is primitive, with a positive entry at its
    pivot column and zeros at the other pivots, so the form depends on the
    row space alone; its length is the rank.  The rows go in one at a
    time, through `echelon_clear` and `echelon_add`."""
    pivots, reduced = (), ()
    for r in rows:
        v = echelon_clear(pivots, reduced, list(r))
        if any(v):
            pivots, reduced = echelon_add(pivots, reduced, v)
    return pivots, reduced


def echelon_clear(pivots, rows, v, weighted=False):
    """v with its pivot coordinates cleared by the rows of a reduced
    echelon form, v scaled by the row's pivot entry at each step; with
    `weighted`, v has one more entry (a homogeneous weight), scaled the
    same way.  v is zero after it exactly when it lies in the row space."""
    for row, col in zip(rows, pivots):
        f = v[col]
        if f:
            p = row[col]
            v = [p * a - f * b for a, b in zip(v, row)] + \
                ([p * v[-1]] if weighted else [])
    return v


def echelon_add(pivots, rows, v):
    """(pivots, rows) of the reduced echelon form with the row v added,
    where v is nonzero and cleared by the rows (`echelon_clear`): its
    first nonzero column becomes a pivot, cleared from the other rows."""
    col = next(i for i, a in enumerate(v) if a)
    row = primitive(v, v[col])
    p = row[col]
    rows = [primitive([p * a - r[col] * b for a, b in zip(r, row)])
            if r[col] else r for r in rows]
    k = bisect(pivots, col)
    return pivots[:k] + (col,) + pivots[k:], (*rows[:k], row, *rows[k:])


# -- sparse rational elimination -------------------------------------------------

def rref_sparse(rows, ncols):
    """Reduced row echelon form of sparse Fraction rows.

    Two-phase: incremental forward reduction (each incoming row reduces
    against current pivots), then one backward pass to clear pivot columns
    from earlier pivot rows, each step one `_axpy`.  Returns (pivot_cols,
    reduced_rows) with each reduced row having a 1 in its pivot column and
    zeros in all others.
    """
    pivots = {}
    for src in rows:
        row = dict(src)
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = 1 / row[col]
                pivots[col] = {j: v * inv for j, v in row.items()}
                break
            _axpy(row, prow, row[col])
    cols = sorted(pivots)
    for idx in range(len(cols) - 1, 0, -1):
        col = cols[idx]
        prow = pivots[col]
        for c2 in cols[:idx]:
            r2 = pivots[c2]
            if col in r2:
                _axpy(r2, prow, r2[col])
    return cols, [pivots[c] for c in cols]


def rank_sparse(rows, ncols) -> int:
    return len(rref_sparse(rows, ncols)[0])


def nullspace_sparse(rows, ncols):
    """Basis of the right kernel as sparse Fraction dicts (one per free col)."""
    pivots, reduced = rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = {j: Fraction(1)}
        for prow, pcol in zip(reduced, pivots):
            v = prow.get(j)
            if v:
                vec[pcol] = -v
        basis.append(vec)
    return basis


def rank_int_rows(rows, ncols) -> int:
    """Rank over ℚ of integer sparse rows (independent elimination path)."""
    return rank_sparse(
        [{j: Fraction(v) for j, v in r.items()} for r in rows], ncols)
