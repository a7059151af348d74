"""Simplicial chain machinery: the dimension of an affine span, barycentric
subdivision with its chain homotopy, and a torus model giving the
exterior-algebra betti numbers of free abelian groups at desk scale.  The
suites and the benchmark run all of it; the span filtration of tuple
complexes is built only by the tests.

sd and H work on the vertex-id tuples of a chain: the barycenters they
make are added to the chain's vertex table, and their results are chains
on that table, so the terms of sd^r(c), H_r(c) and c cancel as int
tuples.  One memoized recursion per table gives both sd(σ) and H(σ) of
each ordered face σ, from one barycenter lookup, and each barycenter
grows from the memoized mean of its face without its last vertex, one
gcd per coordinate."""

from fractions import Fraction
from itertools import permutations, product
from math import gcd

from ..geom import SimplexChain, make_point, to_homog
from ..linalg import echelon_int
from . import ChainComplex, SizeCap, tuple_complex


# -- affine span ----------------------------------------------------------------

def affine_span_dim(points) -> int:
    """Exact dimension of the affine span of a tuple of rational points
    (Fraction or int coordinates)."""
    hs = [to_homog(make_point(p)) for p in points]
    *b, w = hs[0]
    return len(echelon_int(
        [[x * w - y * h[-1] for x, y in zip(h[:-1], b)] for h in hs[1:]])[0])


# -- barycentric subdivision ------------------------------------------------------

def _accumulate(out, chain, sub, part):
    """out += Σ c·sd(t) (part 0) or Σ c·H(t) (part 1) over the id-tuple
    chain {t: c}, from the subdivision `sub`."""
    for t, c in chain.items():
        for u, cu in sub.sd_h(t)[part].items():
            out[u] = out.get(u, 0) + c * cu
    return out


class _Subdivision:
    """sd and the homotopy H on ordered vertex-id tuples over one vertex
    table, shared by every chain on it (`of`).

    A barycenter is interned by the multiset of ids it averages, then by
    its vertex key, so equal points always share an id and id-tuple chains
    need no reduction by point.  Its coordinates come from face means
    (`_mean`): the mean of a sorted id tuple grows from the memoized mean
    of the tuple without its last id and that id's point, each rational
    coordinate a (numerator, denominator) pair reduced by one gcd, so it
    keys exactly as the `Fraction` mean would.  A coordinate with an
    irrational term is None there; its scalar mean, in the barycenter,
    grows from the face's in the same way (`_scalar_mean`).
    Only the barycenters themselves enter the table, in the order sd_h
    first reaches them.  sd(τ) and H(τ) of each ordered face τ are computed
    together, once per table (`sd_h`), so sd^r(c), H_r(c) and H_r(∂c)
    share their faces' images, and each face's barycenter is looked up
    once for both.
    """

    def __init__(self, table):
        self.table = table
        self._means = {}
        self._scalars = {}
        self._bary = {}
        self._sdh = {}

    @classmethod
    def of(cls, chain: SimplexChain) -> "_Subdivision":
        """The subdivision of the chain's table, made on first use."""
        sub = chain.table.memo.get("sd")
        if sub is None:
            sub = chain.table.memo["sd"] = cls(chain.table)
        return sub

    def _mean(self, key) -> tuple:
        """The mean of the points of the sorted id tuple `key`: per
        coordinate its (num, den) key pair, or None when a term is
        irrational (keyed ("a", …)).  With m ids, the mean n₁/d₁ of the
        first m − 1 and the last point's n₂/d₂ give
        ((m − 1)·n₁·d₂ + n₂·d₁) / (m·d₁·d₂)."""
        mean = self._means.get(key)
        if mean is None:
            last = self.table.keys[key[-1]]
            m = len(key)
            if m == 1:
                mean = tuple([c if type(c[0]) is int else None
                              for c in last])
            else:
                mean = []
                for a, c in zip(self._mean(key[:-1]), last):
                    if a is None or type(c[0]) is not int:
                        mean.append(None)
                        continue
                    n1, d1 = a
                    n2, d2 = c
                    num = (m - 1) * n1 * d2 + n2 * d1
                    den = m * d1 * d2
                    g = gcd(num, den)
                    mean.append((num // g, den // g))
                mean = tuple(mean)
            self._means[key] = mean
        return mean

    def _scalar_mean(self, key, d):
        """Coordinate d of the mean of the points of `key` as a scalar,
        where `_mean` has None: the mean s₁ of the first m − 1 ids (its key
        pair, or this scalar mean again) and the last point's x give
        ((m − 1)·s₁ + x) / m."""
        s = self._scalars.get((key, d))
        if s is None:
            x = self.table.point(key[-1])[d]
            m = len(key)
            if m == 1:
                s = x
            else:
                a = self._mean(key[:-1])[d]
                s1 = Fraction(*a) if a else self._scalar_mean(key[:-1], d)
                s = (s1 * (m - 1) + x) * Fraction(1, m)
            self._scalars[(key, d)] = s
        return s

    def _barycenter(self, t) -> int:
        key = tuple(sorted(t))
        b = self._bary.get(key)
        if b is None:
            mean = self._mean(key)
            table = self.table
            if None in mean:  # the scalar mean where a term is irrational
                p = tuple(Fraction(*c) if c else self._scalar_mean(key, d)
                          for d, c in enumerate(mean))
                b = table.add(p)
            else:  # built from its key on first use
                b = table.add(None, mean)
            self._bary[key] = b
        return b

    def sd_h(self, t) -> tuple:
        """(sd(σ), H(σ)) of the ordered face σ = t, from one pass over its
        faces: sd(σ) = b_σ * sd(∂σ), the identity on vertices, and
        H(σ) = −b_σ * (σ + H(∂σ)), 0 on vertices; ∂H + H∂ = sd − id."""
        hit = self._sdh.get(t)
        if hit is None:
            if len(t) < 2:  # a vertex, or the empty tuple: sd(()) = 0
                hit = ({t: 1} if t else {}), {}
            else:
                b = self._barycenter(t)
                sd, h = hit = {}, {(b,) + t: -1}
                for i in range(len(t)):
                    fsd, fh = self.sd_h(t[:i] + t[i + 1:])
                    c = -1 if i % 2 else 1
                    for u, cu in fsd.items():
                        u = (b,) + u
                        sd[u] = sd.get(u, 0) + c * cu
                    for u, cu in fh.items():
                        u = (b,) + u
                        h[u] = h.get(u, 0) - c * cu
            self._sdh[t] = hit
        return hit


def _check_rounds(rounds: int):
    if rounds < 0:
        raise ValueError("rounds must be >= 0")


def _on_table(chain: SimplexChain, terms: dict) -> SimplexChain:
    return SimplexChain.from_ids(chain.dim_ambient, chain.table,
                                 [(c, t) for t, c in terms.items() if c])


def barycentric_sd(chain: SimplexChain) -> SimplexChain:
    """sd(σ) = b_σ * sd(∂σ) recursively; identity on vertices."""
    return sd_power(chain, 1)


def sd_power(chain: SimplexChain, rounds: int) -> SimplexChain:
    """sd^r of the chain, on its vertex table with the new barycenters."""
    _check_rounds(rounds)
    sub = _Subdivision.of(chain)
    terms = {t: c for c, t in chain.reduce().ids}
    for _ in range(rounds):
        terms = _accumulate({}, terms, sub, 0)
    return _on_table(chain, terms)


def subdivision_homotopy(chain: SimplexChain, rounds: int) -> SimplexChain:
    """H_r = Σ_{i<r} H∘sd^i, satisfying ∂H_r + H_r∂ = sd^r − id exactly."""
    _check_rounds(rounds)
    sub = _Subdivision.of(chain)
    terms = {t: c for c, t in chain.reduce().ids}
    total = {}
    for i in range(rounds):
        if i:
            terms = _accumulate({}, terms, sub, 0)
        _accumulate(total, terms, sub, 1)
    return _on_table(chain, total)


# -- torus model -------------------------------------------------------------------

TORUS_GRID = 3  # a Kuhn cell moves distinct axes by 1 mod 3: no repeats


def _kuhn_torus_cells(n: int):
    verts = list(product(range(TORUS_GRID), repeat=n))
    cells = []
    for base in verts:
        for perm in permutations(range(n)):
            cur = list(base)
            cell = [tuple(cur)]
            for axis in perm:
                cur[axis] = (cur[axis] + 1) % TORUS_GRID
                cell.append(tuple(cur))
            cells.append(tuple(cell))
    return cells


def torus_complex(n: int) -> ChainComplex:
    """Simplicial n-torus from the Kuhn triangulation of a 3^n grid."""
    if n not in (1, 2, 3):
        raise SizeCap("torus model supports n in {1, 2, 3}")
    simplices = {k: set() for k in range(n + 1)}
    simplices[n].update(tuple(sorted(cell)) for cell in _kuhn_torus_cells(n))
    for k in range(n, 0, -1):
        for s in simplices[k]:
            for i in range(len(s)):
                simplices[k - 1].add(s[:i] + s[i + 1:])
    return tuple_complex({k: sorted(simplices[k]) for k in simplices}, n)


def torus_homology(n: int):
    """HomologyResults of the n-torus model, degrees 0..n."""
    cx = torus_complex(n)
    return [cx.homology(k) for k in range(n + 1)]
