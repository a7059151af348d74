"""Constructions that tests check the package against, and that no command,
suite or benchmark item runs, so they live here and not in `src/`.

- Dupont's flag double complex of a `FlagComplex`, with its augmentation
  column: its matrices, whose identities `DoubleComplex` validates, are the
  oracle of the null-homotopy check `verify_flag_nullhomotopy`.
- Affine spans of points and their containment, on the canonical form of
  `flags.AffineSubspace`.
- Stock polygons and Hill's tetrahedron, the rank over ℚ of a sparse matrix, and element tests
  in a field tower.
"""

from fractions import Fraction
from itertools import product

from scissors.algebraic import make_algebraic, sqrt_nonneg
from scissors.geom import make_point, to_homog
from scissors.geom.convex import polygon_from_cycle, tetrahedron
from scissors.homology import DoubleComplex, SparseIntMatrix, tuple_complex
from scissors.homology.flags import AffineSubspace
from scissors.intvec import net_faces
from scissors.linalg import echelon_clear, rank_int_rows

# -- affine spans -------------------------------------------------------------

def span_of_points(points) -> AffineSubspace:
    hs = [to_homog(make_point(p)) for p in points]
    span = AffineSubspace.point(hs[0])
    for h in hs[1:]:
        span = span.join(h)
    return span


def _holds(space: AffineSubspace, h) -> bool:
    """Whether the point with homogeneous coordinates h lies in `space`."""
    return not any(space._offset(h))


def contains_point(space: AffineSubspace, p) -> bool:
    return _holds(space, to_homog(make_point(p)))


def contains_subspace(space: AffineSubspace, other: AffineSubspace) -> bool:
    if other.dim > space.dim or not _holds(space, other.base):
        return False
    return not any(
        any(echelon_clear(space.pivots, space.directions, list(d)))
        for d in other.directions)


# -- the flag double complex --------------------------------------------------

def column_basis(fc, p: int, q: int):
    """Basis (flag, tuple) of the column at flag length p+1, degree q."""
    out = []
    for flag in fc.flags.get(p, ()):
        pts = fc.members[flag[-1]]
        for tup in product(pts, repeat=q + 1):
            out.append((flag, tup))
    return out


def double_complex(fc) -> DoubleComplex:
    """The matrices of the flag double complex of `fc`, the faces of each
    flag read from `fc.flag_faces`."""
    ranks = {}
    index = {}
    for p in range(fc.p_max + 1):
        for q in range(fc.q_max + 1):
            basis = column_basis(fc, p, q)
            ranks[(p, q)] = len(basis)
            index[(p, q)] = {b: i for i, b in enumerate(basis)}
    horizontal = {}
    vertical = {}
    for p in range(fc.p_max + 1):
        for q in range(fc.q_max + 1):
            basis = column_basis(fc, p, q)
            if p >= 1:
                mat = SparseIntMatrix(ranks[(p - 1, q)], ranks[(p, q)])
                below = index[(p - 1, q)]
                for col, (flag, tup) in enumerate(basis):
                    for sub, v in fc.flag_faces(flag):
                        mat[below[(sub, tup)], col] = v
                horizontal[(p, q)] = mat
            if q >= 1:
                mat = SparseIntMatrix(ranks[(p, q - 1)], ranks[(p, q)])
                twist = (-1) ** p
                below = index[(p, q - 1)]
                for col, (flag, tup) in enumerate(basis):
                    for face, c in net_faces([(twist, tup)]).items():
                        mat[below[(flag, face)], col] = c
                vertical[(p, q)] = mat
    return DoubleComplex(ranks, horizontal, vertical,
                         labels={"flags": fc.flags})


def augmentation_complex(fc):
    """The p = −1 column as a ChainComplex (proper-span tuples, whose faces
    keep proper span)."""
    return tuple_complex({q: fc.augmentation_basis(q)
                          for q in range(fc.q_max + 1)}, fc.q_max)


# -- stock polygons -----------------------------------------------------------

def right_triangle(leg_a, leg_b):
    return polygon_from_cycle([(0, 0), (leg_a, 0), (0, leg_b)],
                              name="right triangle")


def unit_square():
    return polygon_from_cycle([(0, 0), (1, 0), (1, 1), (0, 1)],
                              name="unit square")


def regular_hexagon(side=1):
    """Regular hexagon of the given side, centered at the origin."""
    s = Fraction(side)
    h = sqrt_nonneg(Fraction(3, 4)) * s  # side·√3/2
    half = Fraction(1, 2) * s
    cyc = [(s, 0), (half, h), (-half, h), (-s, 0), (-half, -h), (half, -h)]
    return polygon_from_cycle(cyc, name="regular hexagon")


def hill_tetrahedron():
    """Hill's tetrahedron with cos α = 1/3, scissors congruent to a cube:
    the vertices 0, v₁, v₁ + v₂ and v₁ + v₂ + v₃ for v₁ = (1, 0, 0),
    v₂ = (1/3, 2√2/3, 0) and v₃ = (1/3, √2/6, √30/6)."""
    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r30 = make_algebraic([-30, 0, 1], (5, 6))
    third = Fraction(1, 3)
    points = [(0, 0, 0)]
    for step in ((1, 0, 0), (third, 2 * r2 / 3, 0),
                 (third, r2 / 6, r30 / 6)):
        points.append(tuple(a + b for a, b in zip(points[-1], step)))
    return tetrahedron(*points)


# -- views of package objects -------------------------------------------------

def rational_rank(mat: SparseIntMatrix) -> int:
    """The rank over ℚ, by Fraction row reduction (`rank_int_rows`, the
    oracle of the Smith normal form)."""
    return rank_int_rows(mat.sparse_rows.values(), mat.cols)


def tower_is_zero(tower, x) -> bool:
    return not tower.reduce(x)


def tower_equal(tower, a, b) -> bool:
    return tower.reduce(a) == tower.reduce(b)
