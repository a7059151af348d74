"""Flags of a finite point configuration and the null-homotopy of the flag
double complex.

Dupont's flag double complex has a column for each strict flag
U₀ ⊃ … ⊃ U_p of proper affine subspaces drawn from the spans of point
subsets; the column at a flag holds simplicial chains on tuples of
configuration points inside U_p.  The horizontal differential is the
alternating sum of flag-entry deletions (the p = 0 face lands in the
augmentation column of chains with proper span), the vertical one is
(−1)^p times the simplicial boundary.  Appending the span of a chain's
tuple to its flag, with an alternating sign, is a null-homotopy of the
augmented rows: ∂′s + s∂′ = id.  Its value at a basis element depends on
the flag and the span of the tuple alone, so it is checked once per such
pair.

What stays here is what the `flag-nullhomotopy` suite and the benchmark
run: the subspace pool, the flags, the augmentation basis, the faces of a
flag and `verify_flag_nullhomotopy`.  The matrices of the double complex
and of its augmentation column are built only by the tests, as an oracle
of that check.

Subspaces are keyed by an integer canonical form from fraction-free
elimination of the points' integer homogeneous coordinates, grown one point
at a time; a flag is a tuple of indices into the subspace pool.  The faces
of a flag depend on that tuple alone, so `flag_faces` is one memo of
`net_faces` for the whole process, shared by every flag complex and
bounded at FLAG_FACES_CACHE flags.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from ..geom import make_point, to_homog
from ..linalg import echelon_add, echelon_clear, net_faces, primitive
from . import SizeCap

POOL_CAP = 512
# flags whose faces `flag_faces` keeps, least recently used out first
FLAG_FACES_CACHE = 4096


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

    def __init__(self, pivots, directions, base):
        self.pivots, self.directions, self.base = pivots, directions, base
        self.dim = len(pivots)

    @classmethod
    def point(cls, h) -> "AffineSubspace":
        """The point with integer homogeneous coordinates h."""
        return cls((), (), primitive(h, h[-1]))

    def _offset(self, h):
        """The direction from the base to the point with homogeneous
        coordinates h, cleared by the direction rows: zero exactly when the
        point lies in here."""
        *x, u = h
        *b, w = self.base
        return echelon_clear(self.pivots, self.directions,
                             [a * w - c * u for a, c in zip(x, b)])

    def join(self, h) -> "AffineSubspace":
        """The span of this subspace and the point with integer homogeneous
        coordinates h: this subspace itself when the point lies in it, else
        the canonical form with one more direction row, whose pivot column
        is cleared from the base as well."""
        v = self._offset(h)
        if not any(v):
            return self
        pivots, directions = echelon_add(self.pivots, self.directions, v)
        base = echelon_clear(pivots, directions, list(self.base),
                             weighted=True)
        return AffineSubspace(pivots, directions, primitive(base, base[-1]))

    def key(self):
        return (self.dim, self.directions, self.base)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AffineSubspace(dim={self.dim})"


def subspace_pool(points, dim: int, spans=None):
    """All proper affine spans of subsets of the configuration.

    A proper span is spanned by at most `dim` of the points, so only subsets
    of that size are enumerated, and any `dim` points span a proper
    subspace.  Each subset's span is its prefix subset's span joined with
    its last point: the prefix's pool index when the point lies in it, else
    one more direction row.  If `spans` is a dict, it receives the pool
    index of the span of each subset, keyed by its sorted index tuple.
    """
    pool = []
    index = {}
    table = {} if spans is None else spans
    n = len(points)
    homog = [to_homog(make_point(p)) for p in points]
    for size in range(1, min(n, dim) + 1):
        for subset in combinations(range(n), size):
            h = homog[subset[-1]]
            if size == 1:
                sub = AffineSubspace.point(h)
            else:
                j = table[subset[:-1]]
                sub = pool[j].join(h)
                if sub is pool[j]:
                    table[subset] = j
                    continue
            j = table[subset] = index.setdefault(sub.key(), len(pool))
            if j == len(pool):
                pool.append(sub)
                if len(pool) > POOL_CAP:
                    raise PoolExplosion(f"more than {POOL_CAP} subspaces")
    return pool


@lru_cache(maxsize=FLAG_FACES_CACHE)
def flag_faces(flag: tuple) -> tuple:
    """((face, sign), ...) of the horizontal differential ∂′ at a flag:
    the flag with its i-th entry deleted, sign (−1)^i (`net_faces`).  The
    face of a one-entry flag is (), the augmentation column.

    The faces depend on the index tuple alone, so one cache serves every
    flag complex of the process, bounded at FLAG_FACES_CACHE flags."""
    return tuple(net_faces([(1, flag)]).items())


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
        for i in range(len(self.pool)):
            self._grow_flags((i,))
        self._tuple_spans = {}  # raw point tuple -> pool index or −1

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

    def augmentation_basis(self, q: int):
        """Tuples with proper span (the p = −1 augmentation column)."""
        return [tup for tup in product(range(len(self.points)), repeat=q + 1)
                if self._span_index(tup) >= 0]

    # -- the horizontal differential ---------------------------------------

    flag_faces = staticmethod(flag_faces)  # one cache for every complex


def flag_double_complex(points, dim: int, p_max: int,
                        q_max: int) -> FlagComplex:
    return FlagComplex(points, dim, p_max, q_max)


def verify_flag_nullhomotopy(fc: FlagComplex) -> bool:
    """Check ∂′s + s∂′ = id on every basis element of the augmented rows.

    s appends the span of an element's tuple to its flag, with sign
    (−1)^(p+1) at level p (+1 in the augmentation column, the flag ()),
    and is 0 where the flag already ends at the span.  Both operators keep
    the tuple, and s reads only the tuple's span, so ∂′s + s∂′ of
    (flag, tuple) is the same sum of flags for every tuple of one span,
    whatever its degree q.  The check therefore runs once per flag and
    span: each column's distinct spans are listed once per flag end, over
    every degree, with every tuple's span looked up (a tuple of full span
    raises `SpanMissingFromPool`, as does a span not below the flag end).
    The terms, from the faces of the flag and of the flag with the span
    appended, are summed by flag and must come to the flag alone with
    coefficient 1.  The faces of ∂′ come from `fc.flag_faces`.
    """
    faces = fc.flag_faces
    # s is defined where the span lies strictly inside the flag's end
    inside = [set(fc.contains.get(i, ())) for i in range(len(fc.pool))]
    known_span = fc._tuple_spans.get

    def spans_of(tuples):
        """The distinct spans of the tuples, in order of first appearance;
        every tuple's span is looked up, so a missing one raises."""
        found = {}
        for tup in tuples:
            span = known_span(tup, -1)
            if span < 0:
                span = fc.tuple_span_index(tup)
            found[span] = None
        return list(found)

    degrees = range(fc.q_max + 1)
    # the tuples of a column depend only on the flag's end, and those of
    # every degree q are listed together, since the check does not read q
    columns = [((), spans_of(tup for q in degrees
                             for tup in fc.augmentation_basis(q)))]
    end_spans = {}
    for p in range(fc.p_max + 1):
        for flag in fc.flags.get(p, ()):
            last = flag[-1]
            if last not in end_spans:
                pts = fc.members[last]
                end_spans[last] = spans_of(
                    tup for q in degrees for tup in product(pts, repeat=q + 1))
            columns.append((flag, end_spans[last]))
    for flag, spans in columns:
        last = flag[-1] if flag else None
        sign_up = -1 if len(flag) % 2 else 1  # s at this flag
        # s ∂′: the faces with their last entries and the sign of s there
        down = [(sub, sub[-1] if sub else None, -sign_up * sign)
                for sub, sign in (faces(flag) if flag else ())]
        for span in spans:
            # ∂′s + s∂′ less the flag itself, summed by flag: must vanish
            total = {flag: -1}
            if last != span:  # ∂′ s
                if last is not None and span not in inside[last]:
                    raise SpanMissingFromPool("span not below the flag end")
                for sub, sign in faces(flag + (span,)):
                    total[sub] = total.get(sub, 0) + sign_up * sign
            for sub, end, sign in down:
                if end != span:
                    if end is not None and span not in inside[end]:
                        raise SpanMissingFromPool(
                            "span not below the flag end")
                    sub += (span,)
                    total[sub] = total.get(sub, 0) + sign
            if any(total.values()):
                return False
    return True
