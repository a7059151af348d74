"""Finite homological algebra: sparse integer matrices, chain and double
complexes with validated differentials, homology via Smith normal form.

A `SparseIntMatrix` stores linalg's sparse rows, {row: {col: value}} with
the rows in the order their first entry was set, and `elementary_divisors`
hands copies of them, in that order, to `linalg.smith_normal_form_sparse`:
the order sets the cost of the elimination, not its result.  Every
boundary matrix of the package (`tuple_complex` here and the bar complex)
nets the faces of each basis element with `intvec.net_faces`, the one
alternating face sum.  No command builds a `DoubleComplex`: the tests
build Dupont's flag double complex with it, and its total complex is a
name the benchmark's tracer wraps."""

from collections import namedtuple

from ..intvec import net_faces
from ..linalg import _axpy, smith_normal_form_sparse
from ..errors import DegreeOutOfRange, InvalidComplex, SizeCap


class SparseIntMatrix:
    """Sparse integer matrix of shape rows × cols.  `sparse_rows` holds
    the nonzero entries as {row: {col: value}}: the rows in the order their
    first entry was set, the entries of a row in the order they were set,
    an empty row absent."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.sparse_rows = {}
        if entries:
            for (i, j), v in (entries.items()
                              if isinstance(entries, dict) else entries):
                self[i, j] = v

    def __getitem__(self, key):
        i, j = key
        row = self.sparse_rows.get(i)
        return row.get(j, 0) if row else 0

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        row = self.sparse_rows.get(i)
        if value:
            if row is None:
                row = self.sparse_rows[i] = {}
            row[j] = int(value)
        elif row and j in row:
            del row[j]
            if not row:
                del self.sparse_rows[i]

    def add_at(self, i, j, value):
        self[i, j] = self[i, j] + value

    def items(self):
        """The nonzero entries as (row, col, value), row by row."""
        return [(i, j, v) for i, row in self.sparse_rows.items()
                for j, v in row.items()]

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        """self·other, each row of it one sum of rows of `other`."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.rows, other.cols)
        below = other.sparse_rows
        for i, row in self.sparse_rows.items():
            acc = {}
            for k, v in row.items():
                if k in below:
                    _axpy(acc, below[k], -v)
            if acc:
                out.sparse_rows[i] = acc
        return out

    def is_zero(self) -> bool:
        return not self.sparse_rows

    def smith(self):
        """(U, D, V) as SparseIntMatrix with U·self·V = D in Smith normal
        form, from the rows in index order."""
        U, diag, Vt = smith_normal_form_sparse(
            [dict(self.sparse_rows.get(i, ())) for i in range(self.rows)],
            self.cols)
        n, m = self.rows, self.cols
        return (SparseIntMatrix(n, n, [((i, j), x) for i, row in enumerate(U)
                                       for j, x in row.items()]),
                SparseIntMatrix(n, m, [((k, k), x)
                                       for k, x in enumerate(diag)]),
                SparseIntMatrix(m, m, [((i, j), x) for j, row in enumerate(Vt)
                                       for i, x in row.items()]))

    def elementary_divisors(self):
        """The nonzero diagonal of the Smith normal form, from copies of
        the stored rows in their order; a zero row adds no divisor and is
        not stored, so only the rows that hold an entry are reduced."""
        return smith_normal_form_sparse(
            [dict(row) for row in self.sparse_rows.values()], self.cols,
            transforms=False)[1]

    def __repr__(self):
        nnz = sum(map(len, self.sparse_rows.values()))
        return f"SparseIntMatrix({self.rows}x{self.cols}, {nnz} nnz)"


def smith_normal_form(m: SparseIntMatrix):
    """Spec surface: (U, D, V) as SparseIntMatrix triple with U·m·V = D."""
    return m.smith()


class HomologyResult(namedtuple("HomologyResult", "degree betti torsion")):
    """H_degree ≅ ℤ^betti ⊕ ℤ/t₁ ⊕ ℤ/t₂ ⊕ …, where `torsion` holds the
    elementary divisors tᵢ > 1, each dividing the next."""

    __slots__ = ()

    def __str__(self):
        parts = []
        if self.betti:
            parts.append(f"Z^{self.betti}" if self.betti > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """Graded free ℤ-modules with validated boundary maps.

    boundaries[k] maps degree k to degree k−1 and has shape
    (rank(k−1), rank(k)); ∂∂ = 0 is checked on construction.
    """

    def __init__(self, ranks: dict, boundaries: dict, labels=None):
        self.ranks = dict(ranks)
        self.boundaries = dict(boundaries)
        self.labels = labels or {}
        self._divisors = {}
        self.validate()

    def degrees(self):
        return sorted(self.ranks)

    def validate(self):
        for k, mat in self.boundaries.items():
            lo = self.ranks.get(k - 1, 0)
            hi = self.ranks.get(k, 0)
            if (mat.rows, mat.cols) != (lo, hi):
                raise InvalidComplex(
                    f"∂_{k} has shape {mat.rows}x{mat.cols}, "
                    f"wanted {lo}x{hi}")
        for k in sorted(self.boundaries):
            upper = self.boundaries.get(k + 1)
            if upper is None:
                continue
            if not self.boundaries[k].matmul(upper).is_zero():
                raise InvalidComplex(f"∂_{k} ∘ ∂_{k + 1} != 0")

    def boundary_or_zero(self, k) -> SparseIntMatrix:
        mat = self.boundaries.get(k)
        if mat is None:
            return SparseIntMatrix(self.ranks.get(k - 1, 0),
                                   self.ranks.get(k, 0))
        return mat

    def elementary_divisors(self, k) -> list:
        """Nonzero elementary divisors of ∂_k, computed once per complex;
        their count is the rank of ∂_k over ℚ."""
        divisors = self._divisors.get(k)
        if divisors is None:
            divisors = self._divisors[k] = (
                self.boundary_or_zero(k).elementary_divisors())
        return divisors

    def homology(self, k: int) -> HomologyResult:
        if k not in self.ranks:
            raise DegreeOutOfRange(f"degree {k} not in complex")
        divisors = self.elementary_divisors(k + 1)
        betti = (self.ranks[k] - len(self.elementary_divisors(k))
                 - len(divisors))
        torsion = tuple(d for d in divisors if d > 1)
        return HomologyResult(k, betti, torsion)


def tuple_complex(basis, top: int) -> ChainComplex:
    """The complex on the tuples basis[k] ({degree: [tuple]}) up to degree
    `top`, whose ∂ takes the faces (−1)^i·(t without entry i), netted by
    `net_faces`; every face, a zero net one too, must be in the basis one
    degree down (else KeyError)."""
    boundaries = {}
    for k in range(1, top + 1):
        rows = {t: i for i, t in enumerate(basis[k - 1])}
        mat = boundaries[k] = SparseIntMatrix(len(rows), len(basis[k]))
        for col, t in enumerate(basis[k]):
            for face, c in net_faces([(1, t)]).items():
                mat[rows[face], col] = c
    return ChainComplex({k: len(b) for k, b in basis.items()}, boundaries,
                        labels=dict(basis))


class DoubleComplex:
    """Bigraded modules with horizontal/vertical differentials.

    horizontal[(p, q)] maps (p, q) → (p−1, q) and vertical[(p, q)] maps
    (p, q) → (p, q−1) with the (−1)^p twist already applied, so squares
    vanish and the two directions anticommute.
    """

    def __init__(self, ranks: dict, horizontal: dict, vertical: dict,
                 labels=None):
        self.ranks = dict(ranks)
        self.horizontal = dict(horizontal)
        self.vertical = dict(vertical)
        self.labels = labels or {}
        self.validate()

    def rank(self, p, q) -> int:
        return self.ranks.get((p, q), 0)

    def _get(self, table, p, q, rows_pq):
        mat = table.get((p, q))
        if mat is None:
            return SparseIntMatrix(self.ranks.get(rows_pq, 0),
                                   self.rank(p, q))
        return mat

    def validate(self):
        for (p, q), mat in self.horizontal.items():
            want = (self.rank(p - 1, q), self.rank(p, q))
            if (mat.rows, mat.cols) != want:
                raise InvalidComplex(f"∂'({p},{q}) shape {mat.rows}x"
                                     f"{mat.cols}, wanted {want}")
        for (p, q), mat in self.vertical.items():
            want = (self.rank(p, q - 1), self.rank(p, q))
            if (mat.rows, mat.cols) != want:
                raise InvalidComplex(f"∂''({p},{q}) shape {mat.rows}x"
                                     f"{mat.cols}, wanted {want}")
        for (p, q) in self.ranks:
            h2 = self._get(self.horizontal, p - 1, q, (p - 2, q)).matmul(
                self._get(self.horizontal, p, q, (p - 1, q)))
            if not h2.is_zero():
                raise InvalidComplex(f"∂'∂' != 0 at ({p},{q})")
            v2 = self._get(self.vertical, p, q - 1, (p, q - 2)).matmul(
                self._get(self.vertical, p, q, (p, q - 1)))
            if not v2.is_zero():
                raise InvalidComplex(f"∂''∂'' != 0 at ({p},{q})")
            hv = self._get(self.horizontal, p, q - 1, (p - 1, q - 1)).matmul(
                self._get(self.vertical, p, q, (p, q - 1)))
            vh = self._get(self.vertical, p - 1, q, (p - 1, q - 1)).matmul(
                self._get(self.horizontal, p, q, (p - 1, q)))
            total = SparseIntMatrix(hv.rows, hv.cols)
            for i, j, v in hv.items() + vh.items():
                total.add_at(i, j, v)
            if not total.is_zero():
                raise InvalidComplex(f"∂'∂'' + ∂''∂' != 0 at ({p},{q})")

    def total_complex(self) -> ChainComplex:
        """Tot_k = ⊕_{p+q=k}, differential ∂' + ∂''."""
        degrees = {}
        offsets = {}
        for (p, q) in sorted(self.ranks):
            k = p + q
            offsets[(p, q)] = degrees.get(k, 0)
            degrees[k] = degrees.get(k, 0) + self.rank(p, q)
        boundaries = {}
        for k in sorted(degrees):
            if (k - 1) not in degrees:
                continue
            mat = SparseIntMatrix(degrees[k - 1], degrees[k])
            for (p, q), off in offsets.items():
                if p + q != k:
                    continue
                for part, below in ((self.horizontal, (p - 1, q)),
                                    (self.vertical, (p, q - 1))):
                    block = part.get((p, q))
                    if block is not None and below in offsets:
                        dst = offsets[below]
                        for i, j, v in block.items():
                            mat.add_at(dst + i, off + j, v)
            boundaries[k] = mat
        return ChainComplex(degrees, boundaries)
