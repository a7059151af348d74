"""Exact common refinement of simplex chains against facet hyperplanes.

The core primitive splits a simplex along one hyperplane by repeatedly
cutting a strictly crossing edge at its intersection point (each cut removes
at least one crossing pair, so the recursion terminates with sub-simplices
weakly on one side).  Splitting every cell of a chain by every facet
hyperplane of the chain yields pieces whose interiors avoid all facet planes;
the chain's signed measure is zero iff the signed indicator vanishes at every
piece centroid.  Rational inputs run on the integer homogeneous kernel.
"""

import os
from fractions import Fraction

from ..algebraic import scalar_sign
from . import (
    Polytope,
    Simplex,
    SimplexChain,
    _flip_last_two,
    _scalar_det,
    canon_plane,
    orientation_sign,
    to_homog,
)
from . import predicates as hp

DEFAULT_CELL_CAP = 50000


class RefinementTooLarge(RuntimeError):
    """Piece count exceeded the configured cap; verdict is Unknown."""


def cell_cap() -> int:
    return int(os.environ.get("SCISSORS_CELL_CAP", DEFAULT_CELL_CAP))


# -- backends -----------------------------------------------------------------

class _HomogBackend:
    """Integer homogeneous points; all geometry through the predicate kernel."""

    def __init__(self, dim: int):
        self.dim = dim

    def from_simplex(self, s: Simplex):
        return tuple(to_homog(v) for v in s.vertices)

    def facet_planes(self, pts):
        n1 = len(pts)
        out = []
        for i in range(n1):
            sub = [pts[j] for j in range(n1) if j != i]
            func = hp.hyperplane(sub)
            canon = self.canon(func)
            if canon is not None:
                out.append(canon)
        return out

    canon = staticmethod(canon_plane)

    @staticmethod
    def apply(func, p):
        return hp.apply_functional(func, p)

    @staticmethod
    def cut(alpha, beta, a, b):
        return hp.cut_point(alpha, beta, a, b)

    @staticmethod
    def centroid(pts):
        return hp.centroid(pts)

    @staticmethod
    def orient(pts):
        return hp.orient(list(pts))

    @staticmethod
    def sign(v):
        return (v > 0) - (v < 0)


class _ScalarBackend:
    """Generic exact scalars (mixture of Fraction and AlgebraicReal)."""

    def __init__(self, dim: int):
        self.dim = dim

    def from_simplex(self, s: Simplex):
        return tuple(v + (Fraction(1),) for v in s.vertices)

    def facet_planes(self, pts):
        n1 = len(pts)
        out = []
        for i in range(n1):
            sub = [pts[j] for j in range(n1) if j != i]
            func = self._hyperplane(sub)
            if any(scalar_sign(c) != 0 for c in func):
                out.append(tuple(func))
        return out

    @staticmethod
    def _hyperplane(points):
        n1 = len(points[0])
        out = []
        for col in range(n1):
            sub = [[p[j] for j in range(n1) if j != col] for p in points]
            out.append((-1) ** ((n1 - 1) + col) * _scalar_det(sub))
        return out

    @staticmethod
    def apply(func, p):
        acc = Fraction(0)
        for a, b in zip(func, p):
            acc = acc + a * b
        return acc

    @staticmethod
    def cut(alpha, beta, a, b):
        return tuple(beta * ai - alpha * bi for ai, bi in zip(a, b))

    @staticmethod
    def centroid(pts):
        n1 = len(pts[0])
        out = []
        for i in range(n1):
            acc = Fraction(0)
            for p in pts:
                acc = acc + p[i] * (Fraction(1) / p[-1])
            out.append(acc)
        return tuple(out)

    def orient(self, pts):
        rows = [[p[i] * (Fraction(1) / p[-1]) for i in range(self.dim)]
                for p in pts]
        base = rows[0]
        mat = [[r[i] - base[i] for i in range(self.dim)] for r in rows[1:]]
        return scalar_sign(_scalar_det(mat))

    canon = staticmethod(lambda func: None)

    @staticmethod
    def sign(v):
        return scalar_sign(v)


def _proportional(f, g, B) -> bool:
    n = len(f)
    for i in range(n):
        for j in range(i + 1, n):
            if B.sign(f[i] * g[j] - f[j] * g[i]) != 0:
                return False
    return True


# -- the splitting engine -------------------------------------------------------

def _split_one(pts, func, B, out):
    vals = [B.apply(func, p) for p in pts]
    signs = [B.sign(v) for v in vals]
    for i in range(len(pts)):
        if signs[i] == 0:
            continue
        for j in range(i + 1, len(pts)):
            if signs[j] == 0 or signs[j] == signs[i]:
                continue
            cut = B.cut(vals[i], vals[j], pts[i], pts[j])
            _split_one(pts[:i] + (cut,) + pts[i + 1:], func, B, out)
            _split_one(pts[:j] + (cut,) + pts[j + 1:], func, B, out)
            return
    out.append(pts)


def split_simplex(pts, func, B):
    out = []
    _split_one(tuple(pts), func, B, out)
    return out


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
    if all(s.is_rational() for _, s in terms):
        return _HomogBackend(dim)
    return _ScalarBackend(dim)


def _point_in_cell(x, cell, base_sign, B) -> bool:
    for i in range(len(cell)):
        if B.orient(cell[:i] + (x,) + cell[i + 1:]) != base_sign:
            return False
    return True


def refinement_pieces(chain: SimplexChain, cap=None):
    """Pieces of every cell split by every facet plane of the whole chain."""
    terms = _normalized_terms(chain)
    if not terms:
        return [], [], None
    B = _backend_for(terms, chain.dim_ambient)
    cells = [(c, B.from_simplex(s)) for c, s in terms]
    planes = []
    seen = set()
    for _, pts in cells:
        for func in B.facet_planes(pts):
            canon = B.canon(func)
            if canon is not None:
                if canon not in seen:
                    seen.add(canon)
                    planes.append(func)
            elif not any(_proportional(func, g, B) for g in planes):
                planes.append(func)
    cap = cap if cap is not None else cell_cap()
    pieces = []
    for _, pts in cells:
        frontier = [pts]
        for func in planes:
            nxt = []
            for piece in frontier:
                nxt.extend(split_simplex(piece, func, B))
                if len(nxt) + len(pieces) > cap:
                    raise RefinementTooLarge(
                        f"refinement exceeded {cap} cells")
            frontier = nxt
        pieces.extend(frontier)
    return pieces, cells, B


def chain_vanishes(chain: SimplexChain, cap=None) -> bool:
    """Exact decision: the signed measure of the chain is identically zero."""
    pieces, cells, B = refinement_pieces(chain, cap)
    if B is None:
        return True
    orient_of = [B.orient(pts) for _, pts in cells]
    for piece in pieces:
        x = B.centroid(piece)
        total = 0
        for (c, pts), base in zip(cells, orient_of):
            if _point_in_cell(x, pts, base, B):
                total += c
        if total != 0:
            return False
    return True


def chain_covers_once(chain: SimplexChain, cap=None) -> bool:
    """Every refinement piece of the chain is covered exactly once."""
    pieces, cells, B = refinement_pieces(chain, cap)
    if B is None:
        return True
    orient_of = [B.orient(pts) for _, pts in cells]
    for piece in pieces:
        x = B.centroid(piece)
        total = 0
        for (c, pts), base in zip(cells, orient_of):
            if _point_in_cell(x, pts, base, B):
                total += c
        if total != 1:
            return False
    return True


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
    """The signed facet chain Σ (−1)^i (full-dimensional faces only)."""
    points = tuple(points)
    if len(points) != dim + 2:
        raise ValueError(f"need {dim + 2} points in E{dim}")
    terms = []
    for i in range(len(points)):
        face = Simplex(dim, points[:i] + points[i + 1:])
        if orientation_sign(face) == 0:
            continue  # lower-dimensional hull: dropped
        terms.append(((-1) ** i, face))
    return SimplexChain(dim, terms)


def phi_boundary_check(points, dim: int, cap=None) -> bool:
    """Vanishing of the oriented-facet chain of dim+2 points (always true)."""
    from . import make_point
    pts = [make_point(p) for p in points]
    return chain_vanishes(phi_boundary_chain(pts, dim), cap)
