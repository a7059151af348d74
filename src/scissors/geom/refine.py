"""Exact common refinement of simplex chains against facet hyperplanes.

Every cell of a chain is split by every facet hyperplane of the chain, one
plane after another.  The pieces of a cell are tuples of indices into one
vertex table: the cell's integer homogeneous vertices (converted once per
simplex), followed by the cut points made so far.  For each plane every
vertex of the table is evaluated once.  A piece that strictly straddles the
plane is cut at its first crossing edge, and the two halves are split in
turn until every piece lies weakly on one side (each cut removes at least
one crossing pair).  A cut point lies on its plane, so it carries the value
0 there, and an edge cut by a plane is cut once for all pieces that share
it.  When no vertex of the table lies strictly on both sides of a plane, no
piece crosses it, and every piece takes that side at once.

The split records each piece's strict side of every plane.  A cell is an
intersection of half-spaces of those planes, so the side vectors of its
pieces are exactly the arrangement regions inside it.  The chain's signed
measure is zero iff, for every region, the coefficients of the cells that
hold it sum to zero.  Rational inputs run on the integer homogeneous kernel;
other exact scalars take the same loop through the generic backend.
"""

import os
from fractions import Fraction

from ..algebraic import scalar_sign
from ..errors import ParseError, RefinementTooLarge
from ..linalg import primitive
from . import (
    Polytope,
    Simplex,
    SimplexChain,
    _flip_last_two,
    orientation_sign,
)
from . import predicates as hp

DEFAULT_CELL_CAP = 50000


def cell_cap() -> int:
    """The refinement cap from SCISSORS_CELL_CAP, DEFAULT_CELL_CAP if unset."""
    raw = os.environ.get("SCISSORS_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(
            f"SCISSORS_CELL_CAP must be a positive integer, got {raw!r}")
    return cap


# -- backends -----------------------------------------------------------------

class _HomogBackend:
    """Integer homogeneous points; all geometry through the predicate kernel."""

    def __init__(self, dim: int):
        self.dim = dim

    def from_simplex(self, s: Simplex):
        return s.homog()

    @staticmethod
    def planes(cells):
        """Distinct facet planes of the cells, each in canonical form."""
        out = {}
        seen = set()
        for pts in cells:
            for i in range(len(pts)):
                facet = pts[:i] + pts[i + 1:]
                # a facet that cells share spans one plane: take it once
                key = frozenset(facet)
                if key in seen:
                    continue
                seen.add(key)
                func = hp.hyperplane(facet)
                if any(func):
                    out.setdefault(primitive(func))
        return list(out)

    @staticmethod
    def apply(func, p):
        return hp.apply_functional(func, p)

    @staticmethod
    def cut(alpha, beta, a, b):
        return hp.cut_point(alpha, beta, a, b)

    @staticmethod
    def sign(v):
        return (v > 0) - (v < 0)


class _ScalarBackend:
    """Generic exact scalars (Fraction, field elements, AlgebraicReal)."""

    def __init__(self, dim: int):
        self.dim = dim

    def from_simplex(self, s: Simplex):
        return tuple(v + (Fraction(1),) for v in s.vertices)

    @staticmethod
    def planes(cells):
        """Facet planes of the cells, one per class of proportional ones."""
        out = []
        for pts in cells:
            for i in range(len(pts)):
                # the kernel's cofactor formula is exact on any scalars
                func = hp.hyperplane(pts[:i] + pts[i + 1:])
                if (any(scalar_sign(c) != 0 for c in func)
                        and not any(_proportional(func, g) for g in out)):
                    out.append(func)
        return out

    @staticmethod
    def apply(func, p):
        acc = Fraction(0)
        for a, b in zip(func, p):
            acc = acc + a * b
        return acc

    @staticmethod
    def cut(alpha, beta, a, b):
        # the weight β·w_a − α·w_b is positive when α < 0 < β; keeping it
        # positive lets the raw sign of a functional give a vertex's side
        if scalar_sign(alpha) > 0:
            alpha, beta, a, b = beta, alpha, b, a
        return tuple(beta * ai - alpha * bi for ai, bi in zip(a, b))

    @staticmethod
    def sign(v):
        return scalar_sign(v)


def _proportional(f, g) -> bool:
    n = len(f)
    for i in range(n):
        for j in range(i + 1, n):
            if scalar_sign(f[i] * g[j] - f[j] * g[i]) != 0:
                return False
    return True


# -- the splitting engine -------------------------------------------------------

def _split_by_plane(frontier, table, func, bit, B):
    """Split every (piece, mask) of `frontier` by the plane `func`.

    A piece is a tuple of indices into `table`, the vertex list it shares
    with the other pieces of its cell.  Each vertex is evaluated once; a cut
    point lies on the plane, so it carries the value 0 and is appended to
    `table` once per cut edge.  A piece that still straddles the plane is
    cut at its first strictly crossing edge, and the two sub-pieces follow
    it in the frontier.  Returns the new frontier, whose masks carry each
    piece's strict side of the plane in `bit`."""
    vals = [B.apply(func, p) for p in table]
    signs = [B.sign(v) for v in vals]
    if 1 not in signs or -1 not in signs:
        # the pieces' vertices all come from the table, so no piece
        # straddles the plane, and a full-dimensional piece has a vertex
        # off it
        if 1 in signs:
            return [(piece, mask | (1 << bit)) for piece, mask in frontier]
        return frontier
    cuts = {}
    nxt = []
    for whole, mask in frontier:
        stack = [whole]
        while stack:
            piece = stack.pop()
            sg = [signs[v] for v in piece]
            if 1 not in sg or -1 not in sg:
                nxt.append((piece, mask | ((1 in sg) << bit)))
                continue
            i = next(i for i, s in enumerate(sg) if s)
            j = sg.index(-sg[i], i + 1)
            a, b = piece[i], piece[j]
            key = (a, b) if a < b else (b, a)
            c = cuts.get(key)
            if c is None:
                c = cuts[key] = len(table)
                table.append(B.cut(vals[a], vals[b], table[a], table[b]))
                vals.append(0)
                signs.append(0)
            stack.append(piece[:j] + (c,) + piece[j + 1:])
            stack.append(piece[:i] + (c,) + piece[i + 1:])
    return nxt


def split_simplex(pts, func, B, sides=None):
    """Sub-simplices of `pts`, each weakly on one side of the plane `func`.

    When `sides` is a list, each piece's strict side is appended to it
    (True for func > 0)."""
    table = list(pts)
    frontier = _split_by_plane([(tuple(range(len(table))), 0)], table, func,
                               0, B)
    if sides is not None:
        sides.extend(bool(mask) for _, mask in frontier)
    return [tuple(table[v] for v in piece) for piece, _ in frontier]


def _normalized_terms(chain: SimplexChain):
    """(coeff·ε, positively oriented simplex) per nondegenerate top cell."""
    terms = []
    for c, s in chain.reduce():
        sgn = orientation_sign(s)
        if sgn == 0:
            continue
        if sgn < 0:
            s, c = _flip_last_two(s), -c
        terms.append((c, s))
    return terms


def _backend_for(terms, dim):
    if all(s.homog() is not None for _, s in terms):
        return _HomogBackend(dim)
    return _ScalarBackend(dim)


def refinement_pieces(chain: SimplexChain, cap=None):
    """Every cell split by every facet plane of the whole chain.

    Returns (pieces, cells, B): `cells` holds (coefficient, homogeneous
    points) per positively oriented cell, and each piece is (k, sides) for
    a piece of cell k, where bit p of `sides` is set when the piece lies on
    the positive side of the p-th plane.  No piece meets a plane in its
    interior, so `sides` names the region of the plane arrangement that
    holds the piece."""
    terms = _normalized_terms(chain)
    if not terms:
        return [], [], None
    B = _backend_for(terms, chain.dim_ambient)
    cells = [(c, B.from_simplex(s)) for c, s in terms]
    planes = B.planes([pts for _, pts in cells])
    cap = cap if cap is not None else cell_cap()
    pieces = []
    for k, (_, pts) in enumerate(cells):
        _, frontier = _refine_cell(pts, planes, B, cap, len(pieces))
        pieces.extend((k, mask) for _, mask in frontier)
    return pieces, cells, B


def _refine_cell(pts, planes, B, cap, done):
    """(table, frontier): the cell `pts` split by every plane, each piece
    a tuple of indices into the vertex table with its side mask.  Raises
    RefinementTooLarge once the pieces, with `done` found before, pass
    `cap`."""
    table = list(pts)
    frontier = [(tuple(range(len(table))), 0)]
    for bit, func in enumerate(planes):
        frontier = _split_by_plane(frontier, table, func, bit, B)
        if len(frontier) + done > cap:
            raise RefinementTooLarge(f"refinement exceeded {cap} cells")
    return table, frontier


def _coverage(chain: SimplexChain, cap):
    """Σ c_k over the cells k holding each arrangement region in the chain.

    Every cell is an intersection of half-spaces of the arrangement, so a
    region lies in cell k exactly when some piece of cell k has the
    region's sides."""
    pieces, cells, _ = refinement_pieces(chain, cap)
    totals = {}
    for k, sides in set(pieces):
        totals[sides] = totals.get(sides, 0) + cells[k][0]
    return totals.values()


def chain_vanishes(chain: SimplexChain, cap=None) -> bool:
    """Exact decision: the signed measure of the chain is identically zero."""
    return all(t == 0 for t in _coverage(chain, cap))


def chain_covers_once(chain: SimplexChain, cap=None) -> bool:
    """Every point off the arrangement inside some cell of the chain is
    covered with total coefficient exactly 1."""
    return all(t == 1 for t in _coverage(chain, cap))


# -- spec-level operations --------------------------------------------------------

def verify_dissection(whole: Polytope, parts, cap=None) -> bool:
    """True iff [whole] − Σ[parts] vanishes exactly as a signed measure."""
    if any(p.dim != whole.dim for p in parts):
        raise ValueError("ambient dimension mismatch")
    vol = whole.volume()
    for p in parts:
        vol = vol - p.volume()
    if scalar_sign(vol) != 0:
        return False  # necessary condition, fails fast
    chain = whole.chain
    for p in parts:
        chain = chain - p.chain
    return chain_vanishes(chain, cap)


def phi_boundary_chain(points, dim: int) -> SimplexChain:
    """The signed facet chain Σ (−1)^i [p₀ … p̂ᵢ … p_{dim+1}] of dim+2 points.

    Flat faces are kept: they have measure zero, and the refinement drops
    them when it orients the cells (`_normalized_terms`)."""
    points = tuple(points)
    if len(points) != dim + 2:
        raise ValueError(f"need {dim + 2} points in E{dim}")
    return SimplexChain(dim, [((-1) ** i,
                               Simplex(dim, points[:i] + points[i + 1:]))
                              for i in range(len(points))])


def phi_boundary_check(points, dim: int, cap=None) -> bool:
    """Vanishing of the oriented-facet chain of dim+2 points (always true)."""
    from . import make_point
    pts = [make_point(p) for p in points]
    return chain_vanishes(phi_boundary_chain(pts, dim), cap)
