"""Flag double complex on a finite point configuration.

Columns are indexed by strict flags U₀ ⊃ … ⊃ U_p of proper affine subspaces
drawn from the spans of point subsets; the column at a flag holds simplicial
chains on tuples of configuration points inside U_p.  The horizontal
differential is the alternating sum of flag-entry deletions (the p = 0 face
lands in the augmentation column of chains with proper span), the vertical
one is (−1)^p times the simplicial boundary.  Appending the span of a chain's
tuple to its flag, with an alternating sign, is a null-homotopy of the
augmented rows: ∂′s + s∂′ = id, checked basis element by basis element.

Subspaces are keyed by an integer canonical form from fraction-free
elimination of the points' integer homogeneous coordinates; a flag is a
tuple of indices into the subspace pool.
"""

from fractions import Fraction
from itertools import combinations, product

from ..geom import make_point, to_homog
from ..linalg import echelon_int, primitive
from . import DoubleComplex, SizeCap, SparseIntMatrix

POOL_CAP = 512


class PoolExplosion(SizeCap):
    pass


class SpanMissingFromPool(KeyError):
    pass


class AffineSubspace:
    """Affine subspace in an exact canonical form, from fraction-free
    integer elimination.

    `directions` are the rows of the reduced echelon form of the direction
    space, each scaled to a primitive integer vector with a positive pivot
    entry (at its index in `pivots`) and zeros at the other pivots; `base`
    is the point of the subspace whose pivot coordinates are 0, in primitive
    integer homogeneous coordinates (weight last, positive).  Both depend
    on the subspace alone, so `key` identifies it.
    """

    def __init__(self, hs):
        """The span of points given in integer homogeneous coordinates."""
        *b, w = hs[0]
        self.pivots, self.directions = echelon_int(
            [[x * w - y * h[-1] for x, y in zip(h[:-1], b)] for h in hs[1:]])
        self.dim = len(self.pivots)
        h = self._clear(list(hs[0]), weighted=True)
        self.base = primitive(h, h[-1])

    def _clear(self, v, weighted=False):
        """v with its pivot coordinates cleared by the direction rows, v
        scaled by the row's pivot entry at each step; with `weighted`, v
        is homogeneous and its weight is scaled the same way."""
        for row, col in zip(self.directions, self.pivots):
            f = v[col]
            if f:
                p = row[col]
                v = [p * a - f * b for a, b in zip(v, row)] + \
                    ([p * v[-1]] if weighted else [])
        return v

    def key(self):
        return (self.dim, self.directions, self.base)

    def _holds(self, h) -> bool:
        """Whether the point with homogeneous coordinates h lies in here."""
        *x, u = h
        *b, w = self.base
        return not any(self._clear([a * w - c * u for a, c in zip(x, b)]))

    def contains_point(self, p) -> bool:
        return self._holds(to_homog(tuple(map(Fraction, p))))

    def contains_subspace(self, other: "AffineSubspace") -> bool:
        if other.dim > self.dim or not self._holds(other.base):
            return False
        return not any(any(self._clear(list(d))) for d in other.directions)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim})"


def span_of_points(points) -> AffineSubspace:
    return AffineSubspace([to_homog(tuple(map(Fraction, p)))
                                     for p in points])


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
    homog = [to_homog(tuple(map(Fraction, p))) for p in points]
    for size in range(1, min(n, dim) + 1):
        for subset in combinations(range(n), size):
            sub = AffineSubspace([homog[i] for i in subset])
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
        self._faces = {}  # flag -> ((face, sign), ...), flag_faces

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

    # -- the horizontal differential ---------------------------------------

    def flag_faces(self, flag):
        """((face, sign), ...) of the horizontal differential ∂′ at a flag:
        the flag with its i-th entry deleted, sign (−1)^i.  The face of a
        one-entry flag is (), the augmentation column."""
        faces = self._faces.get(flag)
        if faces is None:
            faces = self._faces[flag] = tuple(
                (flag[:i] + flag[i + 1:], -1 if i % 2 else 1)
                for i in range(len(flag)))
        return faces

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
                    below = index[(p - 1, q)]
                    for col, (flag, tup) in enumerate(basis):
                        for sub, v in self.flag_faces(flag):
                            mat.add_at(below[(sub, tup)], col, v)
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
    """Check ∂′s + s∂′ = id on every basis element of the augmented rows.

    s appends the span of an element's tuple to its flag, with sign
    (−1)^(p+1) at level p (+1 in the augmentation column, the flag ()),
    and is 0 where the flag already ends at the span.  Both operators keep
    the tuple, so ∂′s + s∂′ of (flag, tuple) is a sum of flags on that
    tuple: its terms are listed from the faces of the flag and of the flag
    with the span appended, sorted, and once equal flags are merged they
    must be the flag alone with coefficient 1.  The span of each tuple is
    looked up once.  `corrupt_sign` flips the sign of the last face of
    every ∂′, which must make the check fail.
    """
    def corrupted(flag):
        f = fc.flag_faces(flag)
        return f[:-1] + ((f[-1][0], -f[-1][1]),)

    faces = corrupted if corrupt_sign else fc.flag_faces
    # s is defined where the span lies strictly inside the flag's end
    inside = [set(fc.contains.get(i, ())) for i in range(len(fc.pool))]
    known_span = fc._tuple_spans.get
    for q in range(fc.q_max + 1):
        columns = [((), fc.augmentation_basis(q))]
        for p in range(fc.p_max + 1):
            columns += [(flag, product(fc.members[flag[-1]], repeat=q + 1))
                        for flag in fc.flags.get(p, ())]
        for flag, tuples in columns:
            last = flag[-1] if flag else None
            sign_up = -1 if len(flag) % 2 else 1  # s at this flag
            # s ∂′: the faces with their last entries and the sign of s there
            down = [(sub, sub[-1] if sub else None, -sign_up * sign)
                    for sub, sign in (faces(flag) if flag else ())]
            for tup in tuples:
                span = known_span(tup, -1)
                if span < 0:
                    span = fc.tuple_span_index(tup)
                terms = []
                if last != span:  # ∂′ s
                    if last is not None and span not in inside[last]:
                        raise SpanMissingFromPool(
                            "span not below the flag end")
                    terms += [(sub, sign_up * sign)
                              for sub, sign in faces(flag + (span,))]
                for sub, end, sign in down:
                    if end != span:
                        if end is not None and span not in inside[end]:
                            raise SpanMissingFromPool(
                                "span not below the flag end")
                        terms.append((sub + (span,), sign))
                # merge equal flags: the sum must be 1·flag
                terms.sort()
                merged = []
                for k, c in terms:
                    if merged and merged[-1][0] == k:
                        c += merged.pop()[1]
                    if c:
                        merged.append((k, c))
                if merged != [(flag, 1)]:
                    return False
    return True
