"""Exact polytope geometry in E¹, E², E³.

Points are tuples of exact scalars (Fraction, or a number-field element when
irrational).  Each vertex has one homogeneous point, weight last and
positive: integers when the point is rational, and otherwise its coordinates
followed by weight 1 (`to_homog`, `VertexTable.homog`).  Every
orientation is the sign of `predicates.orient` on those points and every
volume is one determinant of them (`_volume`), whatever their scalars.

A vertex is identified only by its int id in one vertex table, where each
point is interned once by its exact vertex_key; the table is the one place
that keeps the key.  A chain's terms are tuples of ids, on which reduction,
boundaries, boundary facets and dihedral edges work, from the JSON reader
to the writer; Simplex objects are built from the table's points only when
a chain is iterated, their equality and hash computed from the vertices'
keys on demand, and `VertexTable.ranks` orders ids by value.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from operator import mul

from ..angles import AnglePair
from ..errors import GeometryError
from ..intvec import net_faces
from ..numbers import as_scalar, format_number, format_sqrt, scalar_sign
from . import predicates as hp


class DimensionMismatch(GeometryError):
    pass


class NonManifoldBoundary(GeometryError):
    pass


class PointOnBoundary(GeometryError):
    pass


class InvalidPolytope(GeometryError):
    pass


# -- points -------------------------------------------------------------------

def make_point(coords) -> tuple:
    """The point with the coordinates `coords`, each normalized by
    `as_scalar`; a tuple of `Fraction`s is one already and is returned as
    it is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple([as_scalar(c) for c in coords])


def to_homog(p) -> tuple:
    """The homogeneous point of p, weight last and positive: integers when
    every coordinate is rational, else the coordinates with weight 1."""
    k = [c.as_integer_ratio() for c in p if type(c) is Fraction]
    if len(k) != len(p):
        return (*p, 1)
    den = lcm(*[q for _, q in k])
    return tuple([n * (den // q) for n, q in k]) + (den,)


def from_homog(h) -> tuple:
    w = h[-1]
    return tuple(Fraction(c, w) for c in h[:-1])


# -- simplices and chains -----------------------------------------------------

def _coord_id(c):
    c = as_scalar(c)
    return c.as_integer_ratio() if isinstance(c, Fraction) else c.key()


def vertex_key(p) -> tuple:
    """Exact identity key of a point, by which simplices compare and hash.

    A rational coordinate is keyed by its (numerator, denominator) pair,
    which compares and hashes as ints, an irrational one by its scalar key.
    The keys do not order points by value: `VertexTable.ranks` does.
    """
    k = [c.as_integer_ratio() for c in p if type(c) is Fraction]
    if len(k) == len(p):
        return tuple(k)
    return tuple(map(_coord_id, p))


class Simplex:
    """Ordered vertex tuple, equal by its exact key (the tuple of its
    vertices' vertex_key) and hashed by that key.

    A simplex is how points enter a chain and how a chain's terms are read
    back; the chain itself, and everything computed from it, works on the
    vertex ids of its table, which holds each vertex's key.  A simplex keeps
    no key of its own: `key`, equality and the hash compute it from the
    vertices on each call.  Orientation and volume read the vertices'
    homogeneous points (`to_homog`).
    """

    __slots__ = ("dim_ambient", "vertices")

    def __init__(self, dim_ambient: int, vertices: tuple):
        if dim_ambient not in (1, 2, 3):
            raise DimensionMismatch("ambient dimension must be 1, 2 or 3")
        for v in vertices:
            if len(v) != dim_ambient:
                raise DimensionMismatch("vertex dimension mismatch")
        # vertex tuples longer than dim+1 are allowed as formal chain
        # generators (the subdivision homotopy raises degree by one); they
        # are necessarily degenerate and excluded from geometric operations
        self.dim_ambient = dim_ambient
        self.vertices = vertices

    def key(self) -> tuple:
        return tuple(map(vertex_key, self.vertices))

    def __eq__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"Simplex(dim_ambient={self.dim_ambient!r}, "
                f"vertices={self.vertices!r})")


def simplex(dim, *vertices) -> Simplex:
    return Simplex(dim, tuple(make_point(v) for v in vertices))


class VertexTable:
    """Points with int ids, interned by their vertex_key: equal points share
    one id, whatever scalar type gives their coordinates.  The id is the
    only identity of a vertex, and the table the only place that keeps its
    key; `ranks` orders the ids by value.

    A point added as None with a rational key is built from the key, as
    `Fraction`s, on first use (`point`).  A table only grows, so an id,
    once given, stays valid; chains derived from one another share their
    table, and `memo` keeps what is derived from its ids for all of them
    (the subdivision of `homology.simplicial`, the ranks).
    """

    __slots__ = ("points", "keys", "index", "memo")

    def __init__(self):
        self.points = []
        self.keys = []
        self.index = {}  # vertex_key -> id
        self.memo = {}

    def add(self, p, k=None) -> int:
        """The id of point p, whose vertex_key k is computed here when not
        given."""
        if k is None:
            k = vertex_key(p)
        i = self.index.get(k)
        if i is None:
            i = self.index[k] = len(self.points)
            self.points.append(p)
            self.keys.append(k)
        return i

    def point(self, i) -> tuple:
        p = self.points[i]
        if p is None:
            p = self.points[i] = tuple([Fraction(n, d)
                                        for n, d in self.keys[i]])
        return p

    def homog(self, i) -> tuple:
        """The homogeneous point of point i (`to_homog`): integers when it
        is rational, whatever scalars it was given in."""
        return to_homog(make_point(self.point(i)))

    def ranks(self) -> list:
        """Each id's rank in the value order of the points: coordinate by
        coordinate, a rational one as ("q", value) and an irrational one by
        its scalar key (so before every rational).  Computed once for each
        size of the table."""
        r = self.memo.get("ranks")
        if r is None or len(r) != len(self.keys):
            order = sorted(range(len(self.keys)), key=lambda i: [
                ("q", Fraction(*c)) if type(c[0]) is int else c
                for c in self.keys[i]])
            r = self.memo["ranks"] = [0] * len(order)
            for rank, i in enumerate(order):
                r[i] = rank
        return r


class SimplexChain:
    """Integer formal sum of ordered simplices in a fixed ambient dimension.

    A term is a coefficient on a tuple of vertex ids into the chain's
    VertexTable, so reduction, boundaries and sums cancel faces on int
    tuples.  The ids are the chain's only terms: a chain built from
    simplices interns their vertices in its table, and `terms` builds the
    (coefficient, Simplex) terms from the table's points each time it is
    read.

    Derived chains share their operand's table.  Adding a chain on another
    table adds the vertices its terms use to the left operand's table, and
    sd and H add their barycenters to the table of the chain they
    subdivide; a table only grows, so the ids of every chain on it stay
    valid.
    """

    __slots__ = ("dim_ambient", "table", "ids")

    def __init__(self, dim_ambient: int, terms=()):
        self.dim_ambient = dim_ambient
        self.table = table = VertexTable()
        self.ids = []
        for c, s in terms:
            if c == 0:
                continue
            if s.dim_ambient != dim_ambient:
                raise DimensionMismatch("mixed ambient dimensions in chain")
            self.ids.append((int(c), tuple(map(table.add, s.vertices))))

    @classmethod
    def from_ids(cls, dim_ambient: int, table: VertexTable,
                 ids: list) -> "SimplexChain":
        """The chain of (nonzero coefficient, id tuple) terms over `table`."""
        ch = object.__new__(cls)
        ch.dim_ambient = dim_ambient
        ch.table = table
        ch.ids = ids
        return ch

    @property
    def terms(self) -> list:
        """The (coefficient, Simplex) terms, built from the table's points."""
        dim, point = self.dim_ambient, self.table.point
        return [(c, Simplex(dim, tuple(map(point, v)))) for c, v in self.ids]

    def _ids_of(self, other) -> list:
        """The terms of `other` as id tuples over this chain's table."""
        if other.dim_ambient != self.dim_ambient:
            raise DimensionMismatch("mixed ambient dimensions in chain")
        if other.table is self.table:
            return other.ids
        t, add = other.table, self.table.add
        m = {i: add(t.points[i], t.keys[i])
             for i in {i for _, v in other.ids for i in v}}
        return [(c, tuple([m[i] for i in v])) for c, v in other.ids]

    def reduce(self) -> "SimplexChain":
        """Merge equal ordered simplices (equal id tuples) and drop zero
        coefficients; the chain itself when no two terms merge."""
        acc = {}
        for c, t in self.ids:
            acc[t] = acc.get(t, 0) + c
        if len(acc) == len(self.ids):  # coefficients are nonzero
            return self
        return SimplexChain.from_ids(self.dim_ambient, self.table,
                                     [(c, t) for t, c in acc.items() if c])

    def __add__(self, other):
        return SimplexChain.from_ids(self.dim_ambient, self.table,
                                     self.ids + self._ids_of(other)).reduce()

    def __neg__(self):
        return SimplexChain.from_ids(self.dim_ambient, self.table,
                                     [(-c, t) for c, t in self.ids])

    def __sub__(self, other):
        return self.__add__(-other)

    def is_zero(self) -> bool:
        return not self.reduce().ids

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self):
        return f"SimplexChain(E{self.dim_ambient}, {len(self.ids)} terms)"


# -- volume and orientation ---------------------------------------------------

def _volume(rows):
    """Signed volume det(p₁−p₀, …, pₙ−p₀)/n! of the simplex on n+1
    homogeneous points with positive weights: (−1)ⁿ·hdet(rows)/(n!·∏w), as
    moving the weight column first is a cyclic shift (see `orient`)."""
    n = len(rows) - 1
    w = factorial(n)
    for r in rows:
        w *= r[-1]
    det = hp.hdet(rows)
    return (-det if n % 2 else det) * Fraction(1, w)


def simplex_volume(s: Simplex):
    """Signed volume det(a₁-a₀, ..., a_n-a₀)/n! of a top simplex."""
    if len(s.vertices) != s.dim_ambient + 1:
        raise DimensionMismatch("volume needs a top-dimensional simplex")
    return _volume(list(map(to_homog, s.vertices)))


def orientation_sign(s: Simplex) -> int:
    if len(s.vertices) != s.dim_ambient + 1:
        raise DimensionMismatch("orientation needs a top simplex")
    return hp.orient(list(map(to_homog, s.vertices)))


def boundary(chain: SimplexChain) -> SimplexChain:
    """Alternating-sum face chain, Σ (−1)^i c·(t without vertex i) over
    its terms in order, netted on the id tuples (`intvec.net_faces`);
    ∂∂ = 0."""
    acc = net_faces(chain.ids)
    return SimplexChain.from_ids(chain.dim_ambient, chain.table,
                                 [(c, f) for f, c in acc.items() if c])


def _swap_last_two(t):
    return t and t[:-2] + t[:-3:-1]


# -- polytopes ------------------------------------------------------------------

class Polytope:
    """Simplicial dissection with disjoint interiors and manifold boundary."""

    def __init__(self, chain: SimplexChain, name: str = "",
                 validate: bool = True, exact_strict: bool = False):
        dim, t = chain.dim_ambient, chain.table
        # id on chain.table -> id on a table of the cells' vertices alone,
        # numbered in order of first appearance
        ids = {}
        cells = []
        for c, v in chain.reduce().ids:
            if len(v) != dim + 1:
                raise InvalidPolytope("polytope cells must be top simplices")
            sgn = hp.orient([t.homog(i) for i in v])
            if sgn == 0:
                continue
            if sgn < 0:
                v = _swap_last_two(v)
            if c < 0:
                raise InvalidPolytope("negative cell multiplicity")
            cells.extend([(1, tuple([ids.setdefault(i, len(ids))
                                     for i in v]))] * c)
        if not cells:
            raise InvalidPolytope("empty polytope")
        table = VertexTable()
        for i in ids:
            table.add(t.points[i], t.keys[i])
        self.chain = SimplexChain.from_ids(dim, table, cells)
        self.dim = dim
        self.name = name
        self._facets = self._edges = None
        if validate:
            self.validate(exact_strict=exact_strict)

    def facets(self):
        """The boundary facets as vertex-id tuples over the chain's table
        (`_facet_ids`), computed on the first call."""
        if self._facets is None:
            self._facets = _facet_ids(self.chain)
        return self._facets

    def edges(self):
        """dihedral_edges of the polytope, computed on the first call."""
        if self._edges is None:
            self._edges = dihedral_edges(self)
        return self._edges

    def volume(self):
        homog = self.chain.table.homog
        total = Fraction(0)
        for _, v in self.chain.ids:
            total = total + _volume([homog(i) for i in v])
        return total

    def validate(self, exact_strict: bool = False) -> None:
        if len({v for _, v in self.chain.ids}) < len(self.chain.ids):
            raise InvalidPolytope("repeated cell")
        table = self.chain.table
        points = [table.homog(i) for i in range(len(table.keys))]
        cells = [tuple([points[i] for i in v]) for _, v in self.chain.ids]
        planes = list(map(_facet_planes, cells))
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if not _disjoint(cells[i], cells[j], planes[i], planes[j]):
                    raise InvalidPolytope(
                        f"cells {i} and {j} have overlapping interiors")
        if self.dim >= 2:
            self.facets()  # raises on non-manifold boundary
        if exact_strict:
            from .refine import chain_covers_once
            if not chain_covers_once(self.chain):
                raise InvalidPolytope("strict coverage cross-check failed")

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"Polytope(E{self.dim},{nm} {len(self.chain)} cells)"


# -- pairwise interior disjointness by separating planes ----------------------

def _facet_planes(cell) -> list:
    """The functional of each facet of a cell of n+1 homogeneous points in
    Eⁿ, `hp.hyperplane` of the cell without one vertex, signed so that the
    cell lies on its nonpositive side."""
    planes = []
    for i, v in enumerate(cell):
        f = hp.hyperplane(cell[:i] + cell[i + 1:])
        if scalar_sign(hp.apply_functional(f, v)) > 0:
            f = tuple([-c for c in f])
        planes.append(f)
    return planes


def _beyond(f, cell) -> bool:
    """Whether every vertex of the cell is on the nonnegative side of f."""
    return all(scalar_sign(hp.apply_functional(f, q)) >= 0 for q in cell)


def _disjoint(a, b, planes_a, planes_b) -> bool:
    """Whether the open cells with homogeneous vertices a and b, whose
    facet planes are planes_a and planes_b (`_facet_planes`), are disjoint:
    whether some plane has a weakly on one side and b weakly on the other.
    Each facet of the difference body a − b comes from a facet of a, of b
    or, in E³, an edge of each, so it is enough to try the facet planes and
    in E³ each plane through an edge pq of a parallel to an edge rs of b:
    through p, q and rs as a point of weight 0.  Parallel edges give the
    zero functional, on which a's other two vertices both lie."""
    if any(_beyond(f, b) for f in planes_a) or \
            any(_beyond(f, a) for f in planes_b):
        return True
    if len(a) < 4:
        return False
    dirs = [tuple([x * r[-1] - y * s[-1] for x, y in zip(s[:-1], r[:-1])])
            + (0,) for r, s in combinations(b, 2)]
    for (i, p), (j, q) in combinations(enumerate(a), 2):
        rest = [a[k] for k in range(4) if k != i and k != j]
        for d in dirs:
            f = hp.hyperplane([p, q, d])
            s0, s1 = (scalar_sign(hp.apply_functional(f, x)) for x in rest)
            side = s0 or s1
            if side and s0 * s1 >= 0 and all(
                    scalar_sign(hp.apply_functional(f, x)) * side <= 0
                    for x in b):
                return True
    return False


# -- boundary surface extraction ----------------------------------------------

def _facet_ids(chain: SimplexChain) -> list:
    """Net oriented boundary facets of a top-dimensional chain as id tuples
    sorted by rank, the last two swapped on a negative one; raises
    NonManifoldBoundary unless they form a closed manifold hypersurface.

    Each cell is sorted by rank once and signed by the parity of the
    sorting permutation; its face without vertex i is then the sorted cell
    without that vertex's position k, with the sign (−1)^k.  The faces
    are taken for i = 0 … n−1, so the facets keep the cells' order."""
    rank = chain.table.ranks()
    net = {}
    for c, v in chain.ids:
        n = len(v)
        if n > 2 and len(set(v)) < n:
            raise InvalidPolytope("degenerate facet in boundary")
        r = [rank[u] for u in v]
        order = sorted(range(n), key=r.__getitem__)
        if sum([a > b for a, b in combinations(r, 2)]) & 1:
            c = -c
        s = [v[i] for i in order]
        pos = [0] * n
        for k, i in enumerate(order):
            pos[i] = k
        for i in range(n):
            k = pos[i]
            canon = tuple(s[:k] + s[k + 1:])
            net[canon] = net.get(canon, 0) + (-c if k & 1 else c)
    facets = []
    for f, m in net.items():
        if m == 0:
            continue
        if abs(m) != 1:
            raise NonManifoldBoundary(f"facet multiplicity {m}")
        facets.append(_swap_last_two(f) if m < 0 else f)
    if not facets or len(facets[0]) < 2:
        return facets  # E¹: facets are points, no ridges to check
    # ∂∂ = 0 cancels the signs at every ridge, so two facets that share a
    # ridge always induce opposite orientations on it and only the count
    # can fail: a ridge in four or more facets, as where two cells meet
    # along it alone, is a pinch of the surface
    ridges = {}
    for f in facets:
        for i in range(len(f)):
            r = frozenset(f[:i] + f[i + 1:])
            ridges[r] = ridges.get(r, 0) + 1
    for n in ridges.values():
        if n != 2:
            raise NonManifoldBoundary(f"ridge shared by {n} facets")
    return facets


def boundary_facets(chain: SimplexChain):
    """Net oriented boundary facets of a top-dimensional chain, as tuples
    of points (orientation induced from the chain); see `_facet_ids`."""
    point = chain.table.point
    return [tuple(map(point, f)) for f in _facet_ids(chain)]


# -- dihedral edges -------------------------------------------------------------

class DihedralEdge:
    """An edge's endpoints, length and interior dihedral angle (an
    AnglePair); `marker` is set on the extra full-π term emitted alongside
    a reflex edge.

    An edge of a rational polytope keeps its squared length `length2`, a
    Fraction, and builds `length`, its square root in `numberfield`, only
    when it is read (its JSON needs none); its angle is given by cos² and
    the sign of cos (`AnglePair.from_cos2`).
    """

    __slots__ = ("endpoints", "_length", "angle", "marker", "length2")

    def __init__(self, endpoints, length, angle, marker=False,
                 length2=None):
        self.endpoints = endpoints
        self._length = length
        self.angle = angle
        self.marker = marker
        self.length2 = length2

    @property
    def length(self):
        if self._length is None:
            from ..numberfield import sqrt

            self._length = sqrt(self.length2)
        return self._length

    def __eq__(self, other):
        if not isinstance(other, DihedralEdge):
            return NotImplemented
        return (self.endpoints,
                self.length if self.length2 is None else self.length2,
                self.angle, self.marker) == \
            (other.endpoints,
             other.length if other.length2 is None else other.length2,
             other.angle, other.marker)

    __hash__ = None

    def __repr__(self):
        return (f"DihedralEdge(endpoints={self.endpoints!r}, "
                f"length={self.length!r}, angle={self.angle!r}, "
                f"marker={self.marker!r})")

    def to_json(self):
        length = format_number(as_scalar(self.length)) \
            if self.length2 is None else format_sqrt(self.length2)
        return {
            "endpoints": [[format_number(as_scalar(c)) for c in p]
                          for p in self.endpoints],
            "length": length,
            "angle": self.angle.to_json(),
            "marker": self.marker,
        }


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _scaled_points(table: VertexTable):
    """(points, w): the table's points scaled once by the lcm w of their
    weights, so the points of a rational table are all integer."""
    points = [table.homog(i) for i in range(len(table.keys))]
    w = lcm(*[h[-1] for h in points])
    return [tuple([x * (w // h[-1]) for x in h[:-1]]) for h in points], w


_STRAIGHT = AnglePair.from_cos2(Fraction(1), -1)  # θ = π


def dihedral_edges(p: Polytope):
    """Edge lengths and interior dihedral angles of a 3-polytope boundary.

    When the differences of the vertices to the first vertex are rational,
    as on a rational polytope or one moved by an irrational translation,
    which leaves them unchanged, each edge is computed from those
    differences scaled to integers (`_scaled_points`) as its squared
    length, the cos² of its angle between the integer facet normals and
    the sign of the cosine: no square root is taken."""
    if p.dim != 3:
        raise DimensionMismatch("dihedral edges need a 3-polytope")
    table = p.chain.table
    rank = table.ranks()
    incident = {}  # edge as its sorted rank pair -> [(a, b, opposite)]
    for f in p.facets():
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            key = (rank[a], rank[b]) if rank[a] < rank[b] else \
                (rank[b], rank[a])
            incident.setdefault(key, []).append((a, b, f[(i + 2) % 3]))
    points = [table.point(i) for i in range(len(table.keys))]
    scaled = VertexTable()
    for q in points:
        d = tuple(map(as_scalar, _sub(q, points[0])))
        if not all(type(c) is Fraction for c in d):
            scaled = None
            break
        scaled.add(d)
    rational, w = scaled is not None, 1
    if rational:
        points, w = _scaled_points(scaled)
    edges = []
    for key in sorted(incident):
        tris = incident[key]
        if len(tris) != 2:
            raise NonManifoldBoundary("edge not shared by exactly 2 facets")
        (a1, b1, r1), (a2, b2, r2) = tris
        pts = [points[i] for i in (a1, b1, r1, a2, b2, r2)]
        edges.extend(_edge((table.point(a1), table.point(b1)), pts, w,
                           rational))
    return edges


def _edge(ends, pts, w, rational):
    """The DihedralEdges of the edge a1b1 between the facets a1b1r1 and
    a2b2r2, pts = [a1, b1, r1, a2, b2, r2]: integer points scaled by w on
    the rational path, else points with w = 1.  θ is π minus the angle
    between the facet normals at a convex edge; a reflex edge reports that
    angle, θ − π, after a full-π marker term."""
    a1, b1, r1, a2, b2, r2 = pts
    d = _sub(b1, a1)
    n1 = _cross3(d, _sub(r1, a1))
    n2 = _cross3(_sub(b2, a2), _sub(r2, a2))
    dot12 = sum(map(mul, n1, n2))
    bend = scalar_sign(sum(map(mul, n1, _sub(r2, a1))))
    # the sign of cosθ; the cosine between the normals has that of dot12
    sign = scalar_sign(dot12) * (-1 if bend < 0 else 1)
    if rational:
        length, length2 = None, Fraction(sum(map(mul, d, d)), w * w)
        cos2 = Fraction(dot12 * dot12,
                        sum(map(mul, n1, n1)) * sum(map(mul, n2, n2)))
        angle = AnglePair.from_cos2(cos2, sign) if bend else _STRAIGHT
    else:
        from ..algebraic import sqrt_nonneg

        length, length2 = sqrt_nonneg(_dot(d, d)), None
        angle = _STRAIGHT
        if bend:
            # cos² stays in the coordinates' field; cos and sin are square
            # roots over it.  A rational cos² is kept, so that π − θ is
            # written exactly as the angle of that cos² with cos θ > 0
            cos2 = as_scalar(dot12 * dot12 / (_dot(n1, n1) * _dot(n2, n2)))
            if type(cos2) is Fraction:
                angle = AnglePair.from_cos2(cos2, sign)
            else:
                cos = sqrt_nonneg(cos2)
                angle = AnglePair.from_cos(-cos if sign < 0 else cos)
    edge = DihedralEdge(ends, length, angle, False, length2)
    if bend > 0:
        return [DihedralEdge(ends, length, _STRAIGHT, True, length2), edge]
    return [edge]


# -- prisms ----------------------------------------------------------------------

def prism(polygon: Polytope, height) -> Polytope:
    """Right prism over a 2-polytope, Kuhn-triangulated (3 tets per triangle)."""
    if polygon.dim != 2:
        raise DimensionMismatch("prism base must be a 2-polytope")
    h = as_scalar(height)
    if scalar_sign(h) <= 0:
        raise GeometryError("prism height must be positive")
    tets = []
    zero = Fraction(0)
    table = polygon.chain.table
    rank = table.ranks()
    for _, tri in polygon.chain.ids:
        vs = [table.point(i) for i in sorted(tri, key=rank.__getitem__)]
        b = [v + (zero,) for v in vs]
        t = [v + (h,) for v in vs]
        # monotone staircase along the global vertex order: neighbouring
        # prisms agree on the diagonals of shared vertical quads; Polytope
        # orients the cells
        for tet in ((b[0], b[1], b[2], t[2]),
                    (b[0], b[1], t[1], t[2]),
                    (b[0], t[0], t[1], t[2])):
            tets.append((1, Simplex(3, tet)))
    return Polytope(SimplexChain(3, tets),
                    name=f"prism({polygon.name or 'polygon'})")


# -- signed indicator -------------------------------------------------------------

def point_in_open_simplex(s: Simplex, x) -> bool:
    base = orientation_sign(s)
    if base == 0:
        return False
    # the orientations with x in place of each vertex in turn
    hs = list(map(to_homog, s.vertices))
    hx = [to_homog(x)]
    for t in (hp.orient(hs[:i] + hx + hs[i + 1:]) for i in range(len(hs))):
        if t == 0:
            raise PointOnBoundary("point on a facet hyperplane")
        if t != base:
            return False
    return True


def signed_indicator(chain: SimplexChain, x) -> int:
    """Σ coeff · [x ∈ interior] over the orientation-normalized chain.

    A negatively ordered simplex counts with flipped sign, so the result is
    the exact evaluation of the chain's signed measure at x.
    """
    x = make_point(x)
    total = 0
    for c, s in chain:  # a degenerate cell contains no point
        if orientation_sign(s) < 0:
            s, c = Simplex(s.dim_ambient, _swap_last_two(s.vertices)), -c
        if point_in_open_simplex(s, x):
            total += c
    return total
