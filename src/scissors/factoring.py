"""Factoring over ℤ and the resultant: the part of the integer polynomial
layer that only number-field growth (`algebraic`) and the field towers of
`kahler` need.

It is kept apart from `poly`'s ring arithmetic so that a command on
rational input, which prints square roots of rationals at most, loads none
of it.  Polynomials are `poly`'s sparse dicts, and dense coefficient lists
(constant first) for factoring.
"""

from itertools import combinations
from math import isqrt

from .errors import SizeCap
from .intvec import primitive
from .poly import _diff, _gcd, _mul, _pow, _prem, _quotient, _scale, _split
from .rng import SplitMix64


def resultant(a, b, i):
    """Res_{x_i}(a, b) over ℤ[the other variables], with the sign of the
    Sylvester determinant (a's rows first), by the subresultant remainder
    sequence: each pseudo-remainder is divided exactly by g·h^δ, so the
    coefficients grow no faster than the subresultants (Cohen, *A Course
    in Computational Algebraic Number Theory*, Algorithm 3.3.7)."""
    if not a or not b:
        return {}
    one = {(0,) * len(next(iter(a))): 1}
    da, db = max(e[i] for e in a), max(e[i] for e in b)
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        sign = -1 if da % 2 and db % 2 else 1
    g = h = one
    while db:
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r, k = _prem(a, b, i)
        lb = _split(b, i)[db]
        r = _mul(r, _pow(lb, delta + 1 - k, one))  # the full lb^(δ+1)
        if not r:
            return {}
        a, b = b, _quotient(r, _mul(g, _pow(h, delta, one)))
        da, db, g = db, max(e[i] for e in b), lb
        if delta:
            h = _quotient(_pow(g, delta, one), _pow(h, delta - 1, one))
    # b is free of x_i: the last step is h ← h^(1−da)·b^da
    h = _quotient(_pow(b, da, one), _pow(h, max(da - 1, 0), one))
    return _scale(h, sign)


# -- factoring over ℤ ----------------------------------------------------------
# Univariate polynomials here are dense coefficient lists, constant first,
# with no zero leading coefficient; modulo m their entries lie in [0, m).

# Zassenhaus tries up to 2^(r−1) subsets of r modular factors: 2^16 covers
# r = 17, past the 16 factors that the minimal polynomial of
# √2 + √3 + √5 + √7 + √11 (degree 32) has modulo every prime
MAX_RECOMBINATIONS = 1 << 16
# the modular factorization with the fewest factors among this many primes
# is lifted
_PRIMES_TRIED = 3


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mul_mod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _add_mod(a, b, m, sign=1):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] += sign * y
    return _trim([c % m for c in out])


def _sub_mod(a, b, m):
    return _add_mod(a, b, m, -1)


def _divmod_mod(a, b, m):
    """(q, r) with a ≡ q·b + r (mod m) and deg r < deg b; lc(b) is a unit
    mod m."""
    inv, db, low = pow(b[-1], -1, m), len(b) - 1, b[:-1]
    r = list(a)  # reduced mod m only where read, and at the end
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] * inv % m
        if c:
            for j, y in enumerate(low):
                r[i + j] -= c * y
    return _trim(q), _trim([c % m for c in r[:db]])


def _monic_mod(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_mod(a, b, p):
    """The monic gcd modulo the prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _gcdex_mod(a, b, p):
    """(s, t) with s·a + t·b ≡ 1 (mod p) for coprime a, b."""
    r0, s0, t0, r1, s1, t1 = a, [1], [], b, [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        s = _sub_mod(s0, _mul_mod(q, s1, p), p)
        t = _sub_mod(t0, _mul_mod(q, t1, p), p)
        r0, s0, t0, r1, s1, t1 = r1, s1, t1, r, s, t
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pow_mod(a, e, g, p):
    """a^e modulo g and p."""
    out, a = [1], _divmod_mod(a, g, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), g, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), g, p)[1]
    return out


def _distinct_degree(f, p):
    """[(g, d)] for the monic squarefree f mod p: g the product of f's
    irreducible factors of degree d.  The p-th power map is the matrix of
    the rows x^(ip) mod f, so each x^(p^d) costs one product with it."""
    n = len(f) - 1
    rows, row = [], [1] + [0] * (n - 1)
    for i in range(n):
        rows.append(row)
        for _ in range(p):  # row·x^p by p shifts by x
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(c - top * a) % p for c, a in zip(row, f)]
    out, g, h, d = [], f, [0, 1], 1
    while 2 * d <= len(g) - 1:
        acc = [0] * n
        for c, r in zip(h, rows):
            if c:
                for j, v in enumerate(r):
                    acc[j] += c * v
        h = _trim([c % p for c in acc])  # x^(p^d) mod f
        common = _gcd_mod(g, _sub_mod(h, [0, 1], p), p)
        if len(common) > 1:
            out.append((common, d))
            g = _divmod_mod(g, common, p)[0]
        d += 1
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors of degree d of g mod the odd prime p,
    a product of such factors (Cantor and Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randint(0, p - 1) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gcd_mod(g, _sub_mod(_pow_mod(a, (p ** d - 1) // 2, g, p), [1],
                                 p), p)
        if 1 < len(b) < len(g):
            return (_equal_degree(b, d, p, rng)
                    + _equal_degree(_divmod_mod(g, b, p)[0], d, p, rng))


def _hensel_step(m, f, g, h, s, t):
    """f ≡ g·h, s·g + t·h ≡ 1 (mod m), h monic, lifted to mod m² (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, Algorithm 15.10)."""
    M = m * m
    e = _sub_mod(f, _mul_mod(g, h, M), M)
    q, r = _divmod_mod(_mul_mod(s, e, M), h, M)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, M), _mul_mod(q, g, M), M), M)
    h = _add_mod(h, r, M)
    b = _sub_mod(_add_mod(_mul_mod(s, g, M), _mul_mod(t, h, M), M), [1], M)
    c, d = _divmod_mod(_mul_mod(s, b, M), h, M)
    s = _sub_mod(s, d, M)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, M), _mul_mod(c, g, M), M), M)
    return g, h, s, t


def _hensel(f, factors, p, l):
    """The monic factors mod p of f, whose leading coefficient is a unit mod
    p, lifted to mod p^l; f is its leading coefficient times their product
    mod p.  The factors are split in two halves whose products are lifted
    together, quadratically, to the first p^(2^j) ≥ p^l, the modulus to
    which each half is then split again."""
    pl = p ** l
    if len(factors) == 1:
        inv = pow(f[-1], -1, pl)
        return [[c * inv % pl for c in f]]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _gcdex_mod(g, h, p)
    q = p
    while q < pl:
        g, h, s, t = _hensel_step(q, f, g, h, s, t)
        q *= q
    return _hensel(g, factors[:k], p, l) + _hensel(h, factors[k:], p, l)


def _symmetric(a, m):
    return [c - m if 2 * c > m else c for c in a]


def _recombine(f, lifted, pl, bound):
    """f's irreducible factors from its monic factors mod pl: for subsets
    of the lifted factors in increasing size, the product G with lc(f) and
    the product H of the rest, symmetric mod pl, are a true split of
    lc(f)·f once ‖G‖₁·‖H‖₁ ≤ bound < pl/2 (Zassenhaus).  A subset is first
    tested on the constant term alone.  Raises SizeCap past
    MAX_RECOMBINATIONS subsets."""
    left, out, size, tried = list(range(len(lifted))), [], 1, 0
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            tried += 1
            if tried > MAX_RECOMBINATIONS:
                raise SizeCap(f"factoring a polynomial of degree "
                              f"{len(f) - 1} needs more than "
                              f"{MAX_RECOMBINATIONS} recombinations of "
                              f"{len(lifted)} modular factors")
            lc = f[-1]
            c = lc
            for i in subset:
                c = c * lifted[i][0] % pl
            c = c - pl if 2 * c > pl else c
            if not c or lc * f[0] % c:
                continue
            G, H = [lc], [lc]
            for i in left:
                if i in subset:
                    G = _mul_mod(G, lifted[i], pl)
                else:
                    H = _mul_mod(H, lifted[i], pl)
            G, H = _symmetric(G, pl), _symmetric(H, pl)
            if sum(map(abs, G)) * sum(map(abs, H)) <= bound:
                out.append(primitive(G, G[-1]))
                f = list(primitive(H, H[-1]))
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    return out + [tuple(f)]


def _primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def factor(coeffs) -> list:
    """The irreducible factors over ℤ of the squarefree part of the integer
    polynomial `coeffs` (constant first), each primitive with a positive
    leading coefficient, sorted by degree, then coefficients; [] for a
    constant.  Factored modulo an odd prime (distinct-degree, then
    equal-degree splitting from a fixed SplitMix64 stream), Hensel-lifted
    past the Mignotte bound and recombined (Cohen, *A Course in
    Computational Algebraic Number Theory*, §3.5).  Raises SizeCap past
    MAX_RECOMBINATIONS."""
    f = _trim([int(c) for c in coeffs])
    if len(f) < 2:
        return []
    a = {(k,): c for k, c in enumerate(f) if c}
    a = _gcd(a, _diff(a, 0))[1]  # the squarefree part
    f = list(primitive([a.get((k,), 0) for k in range(max(a)[0] + 1)],
                       a[max(a)]))
    out = []
    if not f[0]:  # x divides f once
        out.append((0, 1))
        f = f[1:]
    if len(f) > 2:
        out += _factor_squarefree(f)
    elif len(f) == 2:
        out.append(tuple(f))
    return sorted(out, key=lambda g: (len(g), g))


def _factor_squarefree(f):
    """The irreducible factors of a primitive squarefree f with f(0) ≠ 0
    and deg f ≥ 2."""
    n, lc = len(f) - 1, f[-1]
    best = None
    primes, tried = _primes(), 0
    while tried < _PRIMES_TRIED:
        p = next(primes)
        if lc % p == 0:
            continue
        fp = _monic_mod([c % p for c in f], p)
        dfp = _trim([i * c % p for i, c in enumerate(fp)][1:])
        if len(_gcd_mod(fp, dfp, p)) > 1:
            continue  # not squarefree mod p
        tried += 1
        parts = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in parts)
        if count == 1:
            return [tuple(f)]
        if best is None or count < best[0]:
            best = count, p, parts
    _, p, parts = best
    rng = SplitMix64(p)
    factors = sorted(u for g, d in parts for u in _equal_degree(g, d, p, rng))
    # a factor of f has coefficients at most 2^n·‖f‖₂ (Mignotte); with
    # lc(f) that bounds G and H in _recombine
    bound = abs(lc) * (isqrt(n + 1) + 1) * max(map(abs, f)) << n
    l, pl = 1, p
    while pl <= 2 * bound:
        l, pl = l + 1, pl * p
    lifted = _hensel(f, factors, p, l)
    return _recombine(f, [_symmetric(u, pl) for u in lifted], pl, bound)
