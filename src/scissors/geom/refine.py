"""Exact decisions on simplex chains: vanishing and single coverage.

`chain_vanishes` decides whether a chain's signed measure is zero by a
recursion on dimension that splits no cell: the chain vanishes exactly
when, on every hyperplane spanned by a facet of its reduced boundary, the
facets there, projected into the hyperplane, form a vanishing chain one
dimension down (see its docstring for why).  `verify_dissection` and
`phi_boundary_check` rest on it.

`chain_covers_once`, the `--exact-strict` cross-check, refines instead: it
splits every cell by the facet hyperplanes of the chain and tallies the
regions.  It works on the reduced chain's vertex ids, each with its one
homogeneous point (`VertexTable.homog`), on which every sign is exact.
Cells are oriented and flipped as id tuples, the facet planes come from
their id facets, each vertex set once, and every plane is evaluated once at
every vertex.

A convex cell that lies weakly on one side of a plane has no piece or cut
point across it.  So a cell is split only by the planes whose signs on its
own vertices are strictly mixed; every other plane sets its bit in the
cell's base mask (when a vertex of the cell lies on its + side), which every
piece of the cell carries.  The pieces of a cell are tuples of indices into
one vertex table: the cell's vertices, followed by the cut points made so
far.  For each crossing plane only the cut points are evaluated, as the
cell's own vertices carry their values already.  A piece that strictly
straddles the plane is cut at its first crossing edge, and the two halves
are split in turn until every piece lies weakly on one side (each cut
removes at least one crossing pair).  A cut point lies on its plane, so it
carries the value 0 there, and an edge cut by a plane is cut once for all
pieces that share it.

The split records each piece's strict side of every plane.  A cell is an
intersection of half-spaces of those planes, so the side vectors of its
pieces are exactly the arrangement regions inside it, and a region's total
is the sum of the coefficients of the cells that hold it.

Both checks stop at `cell_cap()`, read from SCISSORS_CELL_CAP each time
one starts; it is their only cap.
"""

import os
from itertools import combinations

from ..errors import ParseError, RefinementTooLarge
from ..intvec import net_faces
from ..numbers import scalar_sign
from . import (
    DimensionMismatch,
    Polytope,
    SimplexChain,
    VertexTable,
    _swap_last_two,
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


# -- planes ---------------------------------------------------------------------

def _group_by_plane(items):
    """[(functional, [key, ...])] for the (key, functional) items, one per
    plane (`plane_key`) in order of first appearance, zero functionals
    dropped.  A plane is named by its first functional, negated when its
    first nonzero entry is negative."""
    groups = {}
    for k, func in items:
        key = hp.plane_key(func)
        if key is None:
            continue
        g = groups.get(key)
        if g is None:
            if next(scalar_sign(c) for c in func if scalar_sign(c)) < 0:
                func = tuple([-c for c in func])
            g = groups[key] = (func, [])
        g[1].append(k)
    return list(groups.values())


# -- the splitting engine -------------------------------------------------------

def _split_by_plane(frontier, table, func, bit, known=()):
    """Split every (piece, mask) of `frontier` by the plane `func`.

    A piece is a tuple of indices into `table`, the vertex list it shares
    with the other pieces of its cell.  `known` holds the plane's values at
    the first vertices of the table; every other vertex is evaluated here,
    once.  A cut point lies on the plane, so it carries the value 0 and is
    appended to `table` once per cut edge.  A piece that still straddles
    the plane is cut at its first strictly crossing edge, and the two
    sub-pieces follow it in the frontier.  Returns the new frontier, whose
    masks carry each piece's strict side of the plane in `bit`."""
    vals = [*known,
            *(hp.apply_functional(func, p) for p in table[len(known):])]
    signs = [scalar_sign(v) for v in vals]
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
            i = min(sg.index(1), sg.index(-1))
            j = sg.index(-sg[i], i + 1)
            a, b = piece[i], piece[j]
            key = (a, b) if a < b else (b, a)
            c = cuts.get(key)
            if c is None:
                c = cuts[key] = len(table)
                table.append(hp.cut_point(vals[a], vals[b], table[a],
                                           table[b]))
                vals.append(0)
                signs.append(0)
            stack.append(piece[:j] + (c,) + piece[j + 1:])
            stack.append(piece[:i] + (c,) + piece[i + 1:])
    return nxt


def split_simplex(pts, func):
    """Sub-simplices of `pts`, each weakly on one side of the plane `func`."""
    table = list(pts)
    frontier = _split_by_plane([(tuple(range(len(table))), 0)], table,
                               func, 0)
    return [tuple(table[v] for v in piece) for piece, _ in frontier]


def _oriented_cells(chain: SimplexChain):
    """(cells, points) for the nondegenerate top cells of the reduced
    chain: `cells` holds (coefficient·ε, vertex tuple) per cell, ordered
    positively, whose vertices index `points`, the homogeneous point of
    each vertex id the chain uses."""
    dim = chain.dim_ambient
    terms = chain.reduce().ids
    local = {}
    for _, t in terms:
        if len(t) != dim + 1:
            raise DimensionMismatch("orientation needs a top simplex")
        for v in t:
            local.setdefault(v, len(local))
    points = list(map(chain.table.homog, local))
    cells = []
    for c, t in terms:
        t = tuple([local[v] for v in t])
        sgn = hp.orient([points[v] for v in t])
        if sgn:
            cells.append((c, t) if sgn > 0 else (-c, _swap_last_two(t)))
    return cells, points


def _planes(cells, points):
    """(functional, vertices of its first facet) per distinct facet plane
    of the cells, each facet's vertex set taken once."""
    seen = set()
    facets = []
    for _, t in cells:
        for i in range(len(t)):
            f = t[:i] + t[i + 1:]
            key = frozenset(f)
            if key not in seen:
                seen.add(key)
                facets.append(f)
    return [(func, fs[0]) for func, fs in _group_by_plane(
        [(f, hp.hyperplane([points[v] for v in f])) for f in facets])]


def refinement_pieces(chain: SimplexChain):
    """Every cell split by every facet plane of the whole chain.

    Returns (pieces, cells, planes): `cells` holds (coefficient,
    homogeneous points) per positively oriented cell, `planes` the
    functional of each distinct facet plane, and each piece is (k, sides)
    for a piece of cell k, where bit p of `sides` is set when the piece
    lies on the positive side of planes[p].  No piece meets a plane in its
    interior, so `sides` names the region of the plane arrangement that
    holds the piece.

    Each plane is evaluated once at each vertex of the chain.  A plane
    whose signs on a cell's vertices are not strictly mixed leaves the cell
    whole: its bit is set in every piece of the cell when some vertex of
    the cell lies on its positive side."""
    cells, points = _oriented_cells(chain)
    if not cells:
        return [], [], []
    planes = _planes(cells, points)
    cap = cell_cap()
    vals = []
    pos = []  # per plane, the vertices on its positive side as a bit set
    neg = []
    for func, facet in planes:
        # the plane passes through the vertices of its facet
        row = [0 if v in facet else hp.apply_functional(func, p)
               for v, p in enumerate(points)]
        sg = [scalar_sign(x) for x in row]
        vals.append(row)
        pos.append(sum(1 << v for v, s in enumerate(sg) if s > 0))
        neg.append(sum(1 << v for v, s in enumerate(sg) if s < 0))
    pieces = []
    for k, (_, t) in enumerate(cells):
        here = sum(1 << v for v in t)
        base = 0
        crossing = []
        for bit, (func, _) in enumerate(planes):
            if pos[bit] & here:
                if neg[bit] & here:
                    crossing.append((bit, func, [vals[bit][v] for v in t]))
                else:
                    base |= 1 << bit
        _, frontier = _refine_cell([points[v] for v in t], crossing, base,
                                   cap, len(pieces))
        pieces.extend((k, mask) for _, mask in frontier)
    return (pieces, [(c, tuple([points[v] for v in t])) for c, t in cells],
            [func for func, _ in planes])


def _refine_cell(pts, crossing, base, cap, done):
    """(table, frontier): the cell `pts` split by the planes `crossing`,
    each (bit, functional, its values at `pts`), every piece a tuple of
    indices into the vertex table with its side mask over `base`, the
    sides of the planes that do not cross the cell.  Raises
    RefinementTooLarge once the pieces, with `done` found before, pass
    `cap`."""
    table = list(pts)
    frontier = [(tuple(range(len(table))), base)]
    if done + 1 > cap:
        raise RefinementTooLarge(f"refinement exceeded {cap} cells")
    for bit, func, known in crossing:
        frontier = _split_by_plane(frontier, table, func, bit, known)
        if len(frontier) + done > cap:
            raise RefinementTooLarge(f"refinement exceeded {cap} cells")
    return table, frontier


def _coverage(chain: SimplexChain):
    """Σ c_k over the cells k holding each arrangement region in the chain.

    Every cell is an intersection of half-spaces of the arrangement, so a
    region lies in cell k exactly when some piece of cell k has the
    region's sides."""
    pieces, cells, _ = refinement_pieces(chain)
    totals = {}
    for k, sides in set(pieces):
        totals[sides] = totals.get(sides, 0) + cells[k][0]
    return totals.values()


def chain_vanishes(chain: SimplexChain) -> bool:
    """Exact decision: the signed measure of the chain is identically zero.

    The decision recurses on dimension and splits no cell.  A d-chain c in
    Eᵈ vanishes exactly when, for every hyperplane H spanned by a facet of
    its reduced boundary ∂c, the facets of ∂c on H, projected into H, form
    a (d−1)-chain that vanishes; in E⁰ a chain vanishes when its
    coefficients sum to 0.

    Why: the chain's indicator Σ c_k·[σ_k] is constant off the facet
    hyperplanes, and its jump across H, at almost every point of H, is the
    signed measure of ∂c restricted to H (a facet on H is oriented in H by
    the side of H its cell lies on).  If every jump is zero, the indicator
    is constant, and compact support makes it zero; conversely a zero
    indicator has no jumps.  A degenerate cell has no measure, and its
    facets vanish in the one hyperplane they span.

    Facets cancel formally first (`_net_facets`): each cell is sorted once
    and signed by the parity of its sorting permutation, and its faces,
    taken from the sorted tuple, are sorted already, so each facet is keyed
    by its sorted id tuple.  A facet whose functional is zero has
    measure zero in every hyperplane and is dropped.  The rest are grouped
    by their plane and projected into it by dropping a coordinate where
    the normal is nonzero, one injective chart of H for every facet on it,
    so the ids still cancel formally one level down.

    Raises RefinementTooLarge when the cells read, at all levels together,
    pass `cell_cap()`."""
    dim = chain.dim_ambient
    cells = chain.reduce().ids
    for _, t in cells:
        if len(t) != dim + 1:
            raise DimensionMismatch("orientation needs a top simplex")
    budget = _Budget(cell_cap())
    budget.read(len(cells))
    facets = _net_facets(cells)
    if not facets:
        return True
    used = {v for f in facets for v in f}
    return _facets_vanish(facets, {v: chain.table.homog(v) for v in used},
                          budget)


class _Budget:
    """The cells `chain_vanishes` may still read before the cap."""

    __slots__ = ("left", "cap")

    def __init__(self, cap):
        self.left = self.cap = cap

    def read(self, n):
        self.left -= n
        if self.left < 0:
            raise RefinementTooLarge(
                f"chain check exceeded {self.cap} cells")


def _net_facets(cells) -> dict:
    """{sorted id tuple: net coefficient} of the facets of ∂ of the
    (coefficient, id tuple) cells, the zero ones dropped.

    Each cell is sorted once and its coefficient signed by the parity of
    the sorting permutation, counted by its strict inversions (so a
    repeated id costs no sign) only when the cell is not sorted already.
    The faces of the sorted tuple, netted by the face loop of `boundary`
    (`intvec.net_faces`), are sorted already."""
    signed = []
    for c, t in cells:
        s = tuple(sorted(t))
        if s != t and sum([a > b for a, b in combinations(t, 2)]) & 1:
            c = -c
        signed.append((c, s))
    net = net_faces(signed)
    return {f: c for f, c in net.items() if c}


def _facets_vanish(net, point, budget) -> bool:
    """Whether the facets of `net` ({ids: coefficient}) on each hyperplane,
    projected into it, form a vanishing chain; `point` holds the
    homogeneous point of each id."""
    groups = _group_by_plane(
        [(f, hp.hyperplane([point[v] for v in f])) for f in net])
    for func, members in groups:
        budget.read(len(members))
        if len(func) == 2:  # points of E¹: the chain on each is in E⁰
            if sum(net[f] for f in members):
                return False
            continue
        j = next(i for i in range(len(func) - 1) if scalar_sign(func[i]))
        proj = {v: point[v][:j] + point[v][j + 1:]
                for f in members for v in f}
        down = _net_facets([(net[f], f) for f in members])
        if down and not _facets_vanish(down, proj, budget):
            return False
    return True


def chain_covers_once(chain: SimplexChain) -> bool:
    """Every point off the arrangement inside some cell of the chain is
    covered with total coefficient exactly 1."""
    return all(t == 1 for t in _coverage(chain))


# -- spec-level operations --------------------------------------------------------

def verify_dissection(whole: Polytope, parts) -> bool:
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
    return chain_vanishes(chain)


def phi_boundary_chain(points, dim: int) -> SimplexChain:
    """The signed facet chain Σ (−1)^i [p₀ … p̂ᵢ … p_{dim+1}] of dim+2 points,
    on one vertex table that holds each point once.

    Flat faces are kept: they have measure zero, and the chain's boundary
    cancels formally (∂∂ = 0), so `chain_vanishes` decides it without
    reading a point."""
    points = tuple(points)
    if len(points) != dim + 2:
        raise ValueError(f"need {dim + 2} points in E{dim}")
    if dim not in (1, 2, 3):
        raise DimensionMismatch("ambient dimension must be 1, 2 or 3")
    if any(len(p) != dim for p in points):
        raise DimensionMismatch("vertex dimension mismatch")
    table = VertexTable()
    ids = tuple([table.add(p) for p in points])
    return SimplexChain.from_ids(dim, table,
                                 [((-1) ** i, ids[:i] + ids[i + 1:])
                                  for i in range(len(ids))])


def phi_boundary_check(points, dim: int) -> bool:
    """Vanishing of the oriented-facet chain of dim+2 points (always true).
    The points go to the vertex table as given: `vertex_key` keys int,
    `Fraction` and algebraic coordinates, in tuples or lists, alike."""
    return chain_vanishes(phi_boundary_chain(points, dim))
