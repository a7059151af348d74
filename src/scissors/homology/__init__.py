"""Finite homological algebra: sparse integer matrices, chain and double
complexes with validated differentials, homology via Smith normal form."""

from collections import namedtuple
from fractions import Fraction

from ..linalg import (
    rank_sparse,
    smith_normal_form_dense,
    smith_normal_form_sparse,
)
from ..errors import DegreeOutOfRange, InvalidComplex, SizeCap


class SparseIntMatrix:
    """Sparse integer matrix; entries indexed by (row, col), zeros absent."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in (entries.items()
                              if isinstance(entries, dict) else entries):
                self[i, j] = v

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} outside {self.rows}x{self.cols}")
        if value:
            self.entries[key] = int(value)
        else:
            self.entries.pop(key, None)

    def add_at(self, i, j, value):
        self[i, j] = self[i, j] + value

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = Fraction(v)
        return rows

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = SparseIntMatrix(self.rows, other.cols)
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                out.add_at(i, j, v * w)
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def rank(self) -> int:
        return rank_sparse(self.row_dicts(), self.cols)

    def smith(self):
        """(U, D, V) dense with U·self·V = D in Smith normal form."""
        U, D, V = smith_normal_form_dense(self.to_dense(), self.rows,
                                          self.cols)
        return U, D, V

    def elementary_divisors(self):
        """The nonzero diagonal of the Smith normal form; a zero row adds no
        divisor, so only the rows that hold an entry are built."""
        rows = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return smith_normal_form_sparse(list(rows.values()), self.cols,
                                        transforms=False)[1]

    def __repr__(self):
        return (f"SparseIntMatrix({self.rows}x{self.cols}, "
                f"{len(self.entries)} nnz)")


def smith_normal_form(m: SparseIntMatrix):
    """Spec surface: (U, D, V) as SparseIntMatrix triple with U·m·V = D."""
    U, D, V = m.smith()

    def wrap(dense):
        out = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    out[i, j] = v
        return out

    return wrap(U), wrap(D), wrap(V)


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

    def __init__(self, ranks: dict, boundaries: dict, labels=None,
                 validate: bool = True):
        self.ranks = dict(ranks)
        self.boundaries = dict(boundaries)
        self.labels = labels or {}
        self._divisors = {}
        if validate:
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


class DoubleComplex:
    """Bigraded modules with horizontal/vertical differentials.

    horizontal[(p, q)] maps (p, q) → (p−1, q) and vertical[(p, q)] maps
    (p, q) → (p, q−1) with the (−1)^p twist already applied, so squares
    vanish and the two directions anticommute.
    """

    def __init__(self, ranks: dict, horizontal: dict, vertical: dict,
                 labels=None, validate: bool = True):
        self.ranks = dict(ranks)
        self.horizontal = dict(horizontal)
        self.vertical = dict(vertical)
        self.labels = labels or {}
        if validate:
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
            for (i, j), v in hv.entries.items():
                total.add_at(i, j, v)
            for (i, j), v in vh.entries.items():
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
                h = self.horizontal.get((p, q))
                if h is not None and (p - 1, q) in offsets:
                    dst = offsets[(p - 1, q)]
                    for (i, j), v in h.entries.items():
                        mat.add_at(dst + i, off + j, v)
                v_ = self.vertical.get((p, q))
                if v_ is not None and (p, q - 1) in offsets:
                    dst = offsets[(p, q - 1)]
                    for (i, j), val in v_.entries.items():
                        mat.add_at(dst + i, off + j, val)
            boundaries[k] = mat
        return ChainComplex(degrees, boundaries)
