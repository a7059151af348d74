"""Sparse polynomials over ℤ, the package's integer polynomial ring:
dicts {exponent n-tuple: nonzero int}, leading terms in lex order.

Ring arithmetic, pseudo-division and exact division, contents (integer ones
through `intvec.primitive`), an exact gcd (Char, Geddes and Gonnet's GCDHEU,
then a primitive remainder sequence capped at PRS_BITS_CAP coefficient
bits) and square roots; and, on dense coefficient tuples in one variable
(constant first), the Sturm chains that isolate and order real roots.
`kahler`'s towers, the written interval of an irrational literal
(`canonical_interval`) and `algebraic` compute here.  Factoring over ℤ and
the resultant are in `factoring`, which a command on rational input never
loads.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import add

from .errors import SizeCap
from .intvec import primitive

# A pseudo-remainder of the fallback gcd (`_prs_gcd`) with a coefficient of
# more bits raises SizeCap.  No remainder in the package's tests passes 16
# bits.  With the evaluation gcd switched off, one inverse in the tower
# `t; u; c: t*c^3 = u - c` reached 4096 bits after 0.4 s and 18,000 bits
# after 15 s, unfinished (Python 3.11, 2-core Xeon).
PRS_BITS_CAP = 4096


def _add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _sub(a, b):
    return _add(a, b, -1)


def _neg(a):
    return {e: -c for e, c in a.items()}


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _pow(a, n, one):
    """a^n for n ≥ 0; `one` is the unit of a's ring."""
    return reduce(_mul, [a] * n, one)


def _scale(a, k):
    return {e: k * c for e, c in a.items()} if k else {}


def _primitive(a, lead):
    """a divided by its integer content, signed as `intvec.primitive`'s
    `lead` says."""
    return dict(zip(a, primitive(a.values(), lead)))


def _common_content(a, b):
    """(c, a/c, b/c) for nonzero a, b: c > 0 the gcd of all their
    coefficients."""
    values = primitive([*a.values(), *b.values()], 1)
    first = next(iter(a.values()))
    return (first // values[0], dict(zip(a, values)),
            dict(zip(b, values[len(a):])))


def _bits(a):
    """The bit length of a's largest coefficient."""
    return max((c.bit_length() for c in a.values()), default=0)


def _is_constant(a):
    return len(a) == 1 and not any(next(iter(a)))


def _is_one(a):
    return _is_constant(a) and next(iter(a.values())) == 1


def _diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def _split(a, i):
    """a as {degree in x_i: coefficient free of x_i}."""
    out = {}
    for e, c in a.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def _prem(a, b, i):
    """(r, k): r = lc(b)^k·a − q·b with deg r < deg b, degrees and lc in x_i."""
    B = _split(b, i)
    db = max(B)
    lb = B.pop(db)
    A = _split(a, i)
    k = 0
    while A:
        da = max(A)
        if da < db:
            break
        la = A.pop(da)
        if not _is_one(lb):
            A = {d: _mul(lb, c) for d, c in A.items()}
            k += 1
        for d, c in B.items():
            v = _sub(A.get(d + da - db, {}), _mul(la, c))
            if v:
                A[d + da - db] = v
            else:
                A.pop(d + da - db, None)
    return {e[:i] + (d,) + e[i + 1:]: c
            for d, part in A.items() for e, c in part.items()}, k


def _quotient(a, b):
    """a/b over ℤ[x…], or None when b does not divide a.  Leading terms in
    lex order come off a heap: each step adds only smaller terms."""
    if _is_constant(b):
        c = next(iter(b.values()))
        if any(v % c for v in a.values()):
            return None
        return {e: v // c for e, v in a.items()}
    lb = max(b)
    cb = b[lb]
    rest = [(e, v) for e, v in b.items() if e != lb]
    r, q = dict(a), {}
    heap = [tuple(-x for x in e) for e in r]
    heapify(heap)
    while heap:
        la = tuple(-x for x in heappop(heap))
        c = r.pop(la, 0)
        if not c:
            continue
        e = tuple(x - y for x, y in zip(la, lb))
        if min(e) < 0 or c % cb:
            return None
        c = q[e] = c // cb
        for eb, v in rest:
            k = tuple(map(add, e, eb))
            if k not in r:
                heappush(heap, tuple(-x for x in k))
            nv = r.get(k, 0) - c * v
            if nv:
                r[k] = nv
            else:
                del r[k]
    return q


def _positive(a):
    return _neg(a) if a and a[max(a)] < 0 else a


def _content(a, i):
    """(c, p) with a = c·p, c free of x_i, p primitive in x_i, lc(p) > 0."""
    c = {}
    for part in _split(a, i).values():
        c = _gcd(c, part)[0]
        if _is_one(c):
            break
    p = _quotient(a, c)
    if p[max(p)] < 0:
        c, p = _neg(c), _neg(p)
    return c, p


def _gcd(a, b):
    """(g, a/g, b/g): g the gcd over ℤ[x…], with a positive leading
    coefficient."""
    if not a or not b:
        g = _positive(a or b)
        return g, _quotient(a, g) if a else {}, _quotient(b, g) if b else {}
    if _is_constant(a) or _is_constant(b):
        g, a, b = _common_content(a, b)
        return {(0,) * len(next(iter(a))): g}, a, b
    found = _heuristic_gcd(a, b)
    if found is None:
        g = _prs_gcd(a, b)
        found = g, _quotient(a, g), _quotient(b, g)
        if found[1] is None or found[2] is None:
            raise ArithmeticError("the gcd does not divide its arguments")
    return found


def _heuristic_gcd(a, b):
    """(g, a/g, b/g) for nonzero a, b by evaluating a variable at a large
    integer ξ, a gcd one variable down and ξ-adic reconstruction (Char,
    Geddes and Gonnet's GCDHEU).  With ξ ≥ 2·min(‖a‖, ‖b‖) + 2 at every
    level, a candidate that divides both is the gcd; None when six values
    of ξ give none."""
    zero = (0,) * len(next(iter(a)))
    used = [i for i in range(len(zero))
            if any(e[i] for e in a) or any(e[i] for e in b)]
    common, a, b = _common_content(a, b)
    if not used:
        return {zero: common}, a, b
    i = used[-1]
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        at_a, at_b = _evaluate(a, i, xi), _evaluate(b, i, xi)
        if at_a and at_b:
            found = _heuristic_gcd(at_a, at_b)
            if found is None:
                return None
            parts = {}
            for e, c in found[0].items():
                k = 0
                while c:
                    digit = c % xi
                    if digit > xi // 2:
                        digit -= xi
                    if digit:
                        parts[e[:i] + (k,) + e[i + 1:]] = digit
                    c, k = (c - digit) // xi, k + 1
            if parts:
                g = _primitive(parts, parts[max(parts)])
                qa = _quotient(a, g)
                qb = None if qa is None else _quotient(b, g)
                if qb is not None:
                    return _scale(g, common), qa, qb
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(a, i, xi):
    """a with x_i = xi."""
    out = {}
    for e, c in a.items():
        key = e[:i] + (0,) + e[i + 1:]
        v = out.get(key, 0) + c * xi ** e[i]
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _prs_gcd(a, b):
    """gcd by contents and a primitive remainder sequence in the last
    variable either polynomial uses.  Raises SizeCap when a pseudo-remainder
    has a coefficient of more than PRS_BITS_CAP bits."""
    used = [i for i in range(len(next(iter(a))))
            if any(e[i] for e in a) or any(e[i] for e in b)]
    i = used[-1]
    ca, a = _content(a, i)
    cb, b = _content(b, i)
    c = _gcd(ca, cb)[0]
    if max(_split(a, i)) < max(_split(b, i)):
        a, b = b, a
    while any(e[i] for e in b):
        r, _ = _prem(a, b, i)
        if not r:
            return _positive(_mul(c, b))
        if _bits(r) > PRS_BITS_CAP:
            raise SizeCap(f"a remainder sequence of the exact gcd past "
                          f"{PRS_BITS_CAP} coefficient bits")
        a, b = b, _content(r, i)[1]
    return c  # b is ±1: the primitive parts are coprime


def _sqrt(p):
    """h ∈ ℤ[x…] with h² = p, or None; the terms of h come in decreasing
    order, each the leading term of the remainder over 2·lt(h)."""
    lead = max(p)
    root = isqrt(p[lead]) if p[lead] > 0 else -1
    if root * root != p[lead] or any(x % 2 for x in lead):
        return None
    bound = [max(e[i] for e in p) // 2 for i in range(len(lead))]
    top = tuple(x // 2 for x in lead)
    h = {top: root}
    r = _sub(p, _mul(h, h))
    while r:
        e = max(r)
        m = tuple(x - y for x, y in zip(e, top))
        if min(m) < 0 or any(x > b for x, b in zip(m, bound)) or \
                r[e] % (2 * root):
            return None
        term = {m: r[e] // (2 * root)}
        r = _sub(r, _mul(term, {**_scale(h, 2), **term}))
        h[m] = term[m]
    return h


def _is_rational_square(p):
    """Whether p ∈ ℤ[x…] is the square of a polynomial over ℚ."""
    if not p:
        return True
    lead = max(p)
    q = _primitive(p, p[lead])
    c = p[lead] // q[lead]
    return c > 0 and isqrt(c) ** 2 == c and _sqrt(q) is not None


# -- Sturm chains: dense tuples of ints, constant coefficient first ---------

def _strip(coeffs) -> tuple:
    """Drop zero leading coefficients; the zero polynomial is ()."""
    f = [int(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _sparse(f) -> dict:
    """A coefficient tuple as a polynomial in one variable."""
    return {(k,): c for k, c in enumerate(f) if c}


def _dense(p) -> list:
    """A polynomial in one variable as a coefficient list."""
    return [p.get((k,), 0) for k in range(max(p)[0] + 1)] if p else []


def _divide(a, b) -> tuple:
    """a/b over its content, for a primitive b that divides a over ℚ: by
    Gauss's lemma b then divides a over ℤ."""
    return primitive(_dense(_quotient(_sparse(a), _sparse(b))), 1)


def _canonical_single(coeffs) -> tuple:
    """Primitive positive-lc form for a polynomial already irreducible."""
    f = _strip(coeffs)
    return primitive(f, f[-1]) if f else f


def _sign_at(f, num: int, den: int) -> int:
    """Sign of f(num/den) for den > 0, by Horner on den^deg·f(num/den)."""
    if not f:
        return 0
    acc, dpow = f[-1], 1
    for c in f[-2::-1]:
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


@lru_cache(maxsize=4096)
def _chain_for(coeffs) -> list:
    """Sturm sequence of the squarefree part of f, the polynomial `coeffs`:
    f, f′, then minus each remainder, each scaled by a positive integer."""
    f = _strip(coeffs)
    chain = [f]
    df = tuple(i * c for i, c in enumerate(f))[1:]
    if df:
        chain.append(primitive(df, 1))
    while len(chain) > 1 and len(chain[-1]) > 1:
        b = chain[-1]
        r, k = _prem(_sparse(chain[-2]), _sparse(b), 0)
        if not r:
            # b is gcd(f, f′) of positive degree: f has a repeated factor,
            # so restart on f / gcd(f, f′)
            return _chain_for(_divide(f, b))
        # r = lc(b)^k·(the remainder): −r is a positive multiple of minus
        # the remainder unless lc(b)^k < 0
        chain.append(primitive(_dense(r), 1 if b[-1] < 0 and k % 2 else -1))
    return chain


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_at(chain, x) -> int:
    num, den = x.numerator, x.denominator
    return _variations([_sign_at(s, num, den) for s in chain])


def _sturm_at_neg_inf(chain) -> int:
    return _variations([((s[-1] > 0) - (s[-1] < 0)) * (-1) ** (len(s) - 1)
                        for s in chain])


def count_roots(coeffs, lo, hi) -> int:
    """Distinct real roots of a squarefree integer polynomial in (lo, hi],
    for rational lo and hi."""
    if lo >= hi:
        return 0
    chain = _chain_for(tuple(coeffs))
    return _sturm_at(chain, lo) - _sturm_at(chain, hi)


def root_index(coeffs, lo) -> int:
    """The index (0-based) among the real roots of `coeffs` of the root
    isolated by an interval with left end lo."""
    chain = _chain_for(tuple(coeffs))
    return _sturm_at_neg_inf(chain) - _sturm_at(chain, lo)


@lru_cache(maxsize=4096)
def canonical_interval(coeffs, index) -> tuple:
    """The interval a literal is written with, for the real root of index
    `index` of the primitive irreducible polynomial `coeffs` of degree ≥ 2
    with a positive leading coefficient, constant first.  B is the least
    power of two with B ≥ 1 + max |cᵢ|/cₙ (i < n), so every root has
    |x| < B (Cauchy).  From (−B, B] the interval halves on the dyadic grid,
    keeping the half (lo, mid] or (mid, hi] that holds the root, and the
    first (lo, hi) that holds no other real root is returned.  It depends
    on the value alone: each side is decided by Sturm counts, one per
    halving, and a dyadic mid is never a root.  `numbers.format_surd` has
    it in closed form for a square root."""
    chain = _chain_for(coeffs)
    *rest, lead = coeffs
    top = -(-(lead + max(map(abs, rest))) // lead)  # ⌈1 + max |cᵢ|/cₙ⌉
    hi = Fraction(1 << (top - 1).bit_length())
    lo = -hi
    # Sturm counts at lo and hi; the roots in (lo, hi] are v_lo − v_hi, and
    # `index` counts those of them left of the root
    v_lo, v_hi = _sturm_at_neg_inf(chain), _sturm_at(chain, hi)
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _sturm_at(chain, mid)
        if index < v_lo - v_mid:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo, index = mid, v_mid, index - (v_lo - v_mid)
    return lo, hi
