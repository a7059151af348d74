"""Flag double complex on a finite point configuration.

Columns are indexed by strict flags U₀ ⊃ … ⊃ U_p of proper affine subspaces
drawn from the spans of point subsets; the column at a flag holds simplicial
chains on tuples of configuration points inside U_p.  The horizontal
differential is the alternating sum of flag-entry deletions (the p = 0 face
lands in the augmentation column of chains with proper span), the vertical
one is (−1)^p times the simplicial boundary.  Appending the span of a chain's
tuple to its flag, with an alternating sign, is a null-homotopy of the
augmented rows: ∂′s + s∂′ = id, checked basis element by basis element.
"""

from fractions import Fraction
from itertools import combinations, product

from ..geom import make_point
from . import DoubleComplex, SizeCap, SparseIntMatrix

POOL_CAP = 512


class PoolExplosion(SizeCap):
    pass


class SpanMissingFromPool(KeyError):
    pass


class AffineSubspace:
    """Affine subspace in canonical (RREF directions + reduced base) form."""

    def __init__(self, base, directions):
        # directions: list of vectors; reduce to RREF over ℚ
        rows = [list(d) for d in directions]
        cols = len(base)
        pivots = []
        r = 0
        for col in range(cols):
            piv = None
            for i in range(r, len(rows)):
                if rows[i][col] != 0:
                    piv = i
                    break
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
        # the pivot rows once every later pivot column is cleared from them
        self.directions = tuple(tuple(row) for row in rows[:r])
        self.pivots = tuple(pivots)
        # canonical base: zero out the pivot coordinates
        b = [Fraction(c) for c in base]
        for row, col in zip(self.directions, self.pivots):
            f = b[col]
            if f:
                b = [a - f * v for a, v in zip(b, row)]
        self.base = tuple(b)
        self.dim = len(self.directions)

    def key(self):
        return (self.dim, self.directions, self.base)

    def contains_point(self, p) -> bool:
        v = [a - b for a, b in zip(p, self.base)]
        for row, col in zip(self.directions, self.pivots):
            f = v[col]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return all(c == 0 for c in v)

    def contains_subspace(self, other: "AffineSubspace") -> bool:
        if other.dim > self.dim:
            return False
        if not self.contains_point(other.base):
            return False
        origin = self.base
        for d in other.directions:
            if not self.contains_point(tuple(a + b
                                             for a, b in zip(origin, d))):
                return False
        return True

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim})"


def span_of_points(points) -> AffineSubspace:
    base = points[0]
    dirs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    return AffineSubspace(base, dirs)


def subspace_pool(points, dim: int, spans=None):
    """All proper affine spans of subsets of the configuration.

    A proper span is spanned by at most `dim` of the points, so only subsets
    of that size are enumerated.  If `spans` is a dict, it receives the pool
    index of the span of each of them, keyed by its sorted index tuple, or
    −1 where the span is the whole space.
    """
    pool = []
    index = {}
    n = len(points)
    for size in range(1, min(n, dim) + 1):
        for subset in combinations(range(n), size):
            sub = span_of_points([points[i] for i in subset])
            j = -1
            if sub.dim < dim:  # the whole space is excluded
                j = index.setdefault(sub.key(), len(pool))
                if j == len(pool):
                    pool.append(sub)
                    if len(pool) > POOL_CAP:
                        raise PoolExplosion(f"more than {POOL_CAP} subspaces")
            if spans is not None:
                spans[subset] = j
    return pool


class FlagComplex:
    """The finite flag double complex of a point configuration."""

    def __init__(self, points, dim: int, p_max: int, q_max: int):
        self.points = [make_point(p) for p in points]
        if not all(isinstance(c, Fraction) for p in self.points for c in p):
            raise ValueError("flag machinery expects rational points")
        self.dim = dim
        self.p_max = p_max
        self.q_max = q_max
        # span table: pool index of the span of a sorted index tuple
        self._spans = {}
        self.pool = subspace_pool(self.points, dim, self._spans)
        # per subspace: the point indices inside.  A point of a span of
        # dimension k < dim lies, with k others, in a subset of k + 1 points
        # that spans it, so the table's subsets cover every member.
        member_sets = [set() for _ in self.pool]
        for subset, j in self._spans.items():
            if j >= 0:
                member_sets[j].update(subset)
        self.members = [tuple(sorted(m)) for m in member_sets]
        # every pool subspace is the span of its members, so B ⊆ A exactly
        # when members(B) ⊆ members(A)
        self.contains = {}
        for i, a in enumerate(self.pool):
            for j, b in enumerate(self.pool):
                if a.dim > b.dim and member_sets[j] <= member_sets[i]:
                    self.contains.setdefault(i, []).append(j)
        self.flags = {p: [] for p in range(p_max + 1)}
        self.flag_index = {}
        for i in range(len(self.pool)):
            self._grow_flags((i,))
        for p, fl in self.flags.items():
            self.flag_index[p] = {f: k for k, f in enumerate(fl)}
        self._tuple_spans = {}  # raw point tuple -> pool index or −1
        self._faces = {}  # flag -> ((face, sign), ...) for dprime

    def _grow_flags(self, flag):
        p = len(flag) - 1
        if p > self.p_max:
            return
        self.flags[p].append(flag)
        for nxt in self.contains.get(flag[-1], ()):
            self._grow_flags(flag + (nxt,))

    def _span_index(self, tup) -> int:
        """Pool index of the span of a point tuple, −1 for the whole space."""
        hit = self._tuple_spans.get(tup)
        if hit is None:
            key = tuple(sorted(set(tup)))
            hit = self._spans.get(key)
            if hit is None:
                # more than dim distinct points: their span is the least
                # pool subspace holding them all, if one does
                pts = set(key)
                hit = self._spans[key] = min(
                    (j for j, m in enumerate(self.members)
                     if pts.issubset(m)),
                    key=lambda j: self.pool[j].dim, default=-1)
            self._tuple_spans[tup] = hit
        return hit

    def tuple_span_index(self, tup) -> int:
        """Pool index of the span of a point tuple; raises if missing."""
        hit = self._span_index(tup)
        if hit < 0:
            raise SpanMissingFromPool(
                f"span of {tuple(sorted(set(tup)))} not in pool")
        return hit

    # -- basis enumeration ----------------------------------------------

    def column_basis(self, p: int, q: int):
        """Basis (flag, tuple) of the column at flag length p+1, degree q."""
        out = []
        for flag in self.flags.get(p, ()):
            pts = self.members[flag[-1]]
            for tup in product(pts, repeat=q + 1):
                out.append((flag, tup))
        return out

    def augmentation_basis(self, q: int):
        """Tuples with proper span (the p = −1 augmentation column)."""
        return [tup for tup in product(range(len(self.points)), repeat=q + 1)
                if self._span_index(tup) >= 0]

    # -- operators on formal vectors (dict basis-key -> int) -------------

    def dprime(self, p: int, flag, tup, corrupt_sign: bool = False):
        """Horizontal differential of a basis element at column level p."""
        faces = self._faces.get(flag)
        if faces is None:
            faces = self._faces[flag] = tuple(
                (flag[:i] + flag[i + 1:], -1 if i % 2 else 1)
                for i in range(len(flag)))
        # the faces of a strict flag are distinct, so no sign cancels
        out = {}
        for sub, sign in faces:
            key = (len(sub) - 1, sub, tup) if sub else ("aug", tup)
            out[key] = sign
        if corrupt_sign:
            out[key] = -sign
        return out

    def s_map(self, level, flag, tup):
        """Signed span-appending homotopy; level is p or 'aug' (= −1)."""
        span_idx = self.tuple_span_index(tup)
        if level == "aug":
            return {(0, (span_idx,), tup): 1}
        p = level
        if flag[-1] == span_idx:
            return {}
        if span_idx not in self.contains.get(flag[-1], ()):
            # span not strictly inside the last flag entry: not applicable
            raise SpanMissingFromPool("span not below the flag end")
        sign = (-1) ** (p + 1)
        return {(p + 1, flag + (span_idx,), tup): sign}

    # -- matrices for the DoubleComplex type ------------------------------

    def double_complex(self) -> DoubleComplex:
        ranks = {}
        index = {}
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                basis = self.column_basis(p, q)
                ranks[(p, q)] = len(basis)
                index[(p, q)] = {b: i for i, b in enumerate(basis)}
        horizontal = {}
        vertical = {}
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                basis = self.column_basis(p, q)
                if p >= 1:
                    mat = SparseIntMatrix(ranks[(p - 1, q)], ranks[(p, q)])
                    for col, (flag, tup) in enumerate(basis):
                        for key, v in self.dprime(p, flag, tup).items():
                            if key[0] == "aug":
                                continue
                            _, sub, t = key
                            mat.add_at(index[(p - 1, q)][(sub, t)], col, v)
                    horizontal[(p, q)] = mat
                if q >= 1:
                    mat = SparseIntMatrix(ranks[(p, q - 1)], ranks[(p, q)])
                    twist = (-1) ** p
                    for col, (flag, tup) in enumerate(basis):
                        for i in range(len(tup)):
                            face = tup[:i] + tup[i + 1:]
                            row = index[(p, q - 1)][(flag, face)]
                            mat.add_at(row, col, twist * (-1) ** i)
                    vertical[(p, q)] = mat
        return DoubleComplex(ranks, horizontal, vertical,
                             labels={"flags": self.flags})

    def augmentation_complex(self):
        """The p = −1 column as a ChainComplex (proper-span tuples)."""
        from . import ChainComplex
        basis = {q: self.augmentation_basis(q)
                 for q in range(self.q_max + 1)}
        index = {q: {t: i for i, t in enumerate(basis[q])} for q in basis}
        ranks = {q: len(basis[q]) for q in basis}
        boundaries = {}
        for q in range(1, self.q_max + 1):
            mat = SparseIntMatrix(ranks[q - 1], ranks[q])
            for col, tup in enumerate(basis[q]):
                for i in range(len(tup)):
                    face = tup[:i] + tup[i + 1:]
                    # faces of a proper-span tuple keep proper span
                    mat.add_at(index[q - 1][face], col, (-1) ** i)
            boundaries[q] = mat
        return ChainComplex(ranks, boundaries, labels=basis)


def flag_double_complex(points, dim: int, p_max: int,
                        q_max: int) -> FlagComplex:
    return FlagComplex(points, dim, p_max, q_max)


def verify_flag_nullhomotopy(fc: FlagComplex,
                             corrupt_sign: bool = False) -> bool:
    """Check ∂′s + s∂′ = id on every basis element of the augmented rows."""
    for q in range(fc.q_max + 1):
        # augmentation column: s then the p=0 augmentation face
        for tup in fc.augmentation_basis(q):
            total = {}
            for key, v in fc.s_map("aug", None, tup).items():
                _, flag, t = key
                for k2, v2 in fc.dprime(0, flag, t, corrupt_sign).items():
                    total[k2] = total.get(k2, 0) + v * v2
            want = {("aug", tup): 1}
            if {k: v for k, v in total.items() if v} != want:
                return False
        for p in range(fc.p_max + 1):
            for (flag, tup) in fc.column_basis(p, q):
                total = {}
                # ∂′ s
                for key, v in fc.s_map(p, flag, tup).items():
                    pp, fl, t = key
                    for k2, v2 in fc.dprime(pp, fl, t,
                                            corrupt_sign).items():
                        total[k2] = total.get(k2, 0) + v * v2
                # s ∂′
                for key, v in fc.dprime(p, flag, tup, corrupt_sign).items():
                    if key[0] == "aug":
                        _, t = key
                        inner = fc.s_map("aug", None, t)
                    else:
                        pp, fl, t = key
                        if len(fl) - 1 > fc.p_max:
                            continue
                        inner = fc.s_map(pp, fl, t)
                    for k2, v2 in inner.items():
                        total[k2] = total.get(k2, 0) + v * v2
                want = {(p, flag, tup): 1}
                if {k: v for k, v in total.items() if v} != want:
                    return False
    return True
