"""Integer vectors and id tuples: the two helpers that the geometry, the
polynomials and the chains share, apart from the eliminations of `linalg`.

- `primitive` divides an integer vector by its content and fixes its sign:
  plane functionals, homogeneous points and integer polynomials.
- `net_faces` is the one alternating face sum, Σ (−1)^i c·(t without entry
  i), netted by face: the boundaries of id-tuple chains and every boundary
  matrix of `homology`.

They live in this module, which imports only `itertools` and `math`, so
that a command that reads a polytope or rechecks a certificate loads no
`linalg`.
"""

from itertools import combinations
from math import gcd


def primitive(v, lead=None) -> tuple:
    """The integer vector v divided by its content and negated when `lead`
    is negative; the zero vector comes back unchanged.  `lead` is an entry
    of v, by default its first nonzero one, and so comes out positive; a
    caller that wants v's own signs, or all of them flipped, passes 1 or
    −1."""
    g = gcd(*v)
    if not g:
        return tuple(v)
    if lead is None:
        lead = next(a for a in v if a)
    if lead < 0:
        g = -g
    return tuple([a // g for a in v])


def net_faces(cells) -> dict:
    """{face: net coefficient} of the (coefficient, tuple) cells, zeros
    kept: `combinations(t, n − 1)` read back to front, so the i-th face of
    t omits entry i and carries (−1)^i·c; the empty tuple has none."""
    net = {}
    for c, t in cells:
        n = len(t)
        if n:
            faces = [*combinations(t, n - 1)]
            faces.reverse()
            for f in faces:
                net[f] = net.get(f, 0) + c
                c = -c
    return net
