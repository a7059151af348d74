"""The resultant of `scissors.factoring` against two oracles: the Sylvester
determinant at integer points, and sympy's resultant of the sums of roots
that grow a number field."""

from scissors.factoring import resultant
from scissors.linalg import det_small
from scissors.rng import SplitMix64


def _random_pair(rng, i):
    """Two polynomials in two variables of degree ≤ 8 in x_i, each given
    with its coefficient lists in the other variable (constant first), one
    per power of x_i from the top down.  About a third of the middle powers
    are missing, so pseudo-division skips degrees; the leading coefficient
    may vanish at an integer point, the Sylvester matrix keeps it."""
    out = []
    for _ in range(2):
        degree = rng.randint(0, 8)
        rows = []
        for k in range(degree, -1, -1):
            row = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            if k == degree and not any(row):
                row[0] = rng.choice((-2, -1, 1, 2))
            elif 0 < k < degree and rng.randint(0, 2) == 0:
                row = [0]
            rows.append(row)
        p = {}
        for k, row in zip(range(degree, -1, -1), rows):
            for j, c in enumerate(row):
                if c:
                    p[(k, j) if i == 0 else (j, k)] = c
        out.append((p, rows))
    return out


def _sylvester(rows_a, rows_b, x):
    """The Sylvester determinant of a and b with their coefficients taken at
    the other variable = x."""
    a = [sum(c * x ** j for j, c in enumerate(row)) for row in rows_a]
    b = [sum(c * x ** j for j, c in enumerate(row)) for row in rows_b]
    n, m = len(a) - 1, len(b) - 1
    M = [[0] * k + a + [0] * (m - 1 - k) for k in range(m)] + \
        [[0] * k + b + [0] * (n - 1 - k) for k in range(n)]
    return det_small(M)


def test_resultant_is_the_sylvester_determinant():
    for case in range(24):
        rng = SplitMix64.stream(2201, case)
        i = case % 2
        (a, rows_a), (b, rows_b) = _random_pair(rng, i)
        res = resultant(a, b, i)
        assert all(e[i] == 0 for e in res)
        for x in (-2, -1, 0, 1, 3):
            at = sum(c * x ** e[1 - i] for e, c in res.items())
            assert at == _sylvester(rows_a, rows_b, x), (case, x)
    # Res_y(2y − 3, y³ + x) = 2³·((3/2)³ + x); sympy's sign differs here
    assert resultant({(0, 1): 2, (0, 0): -3}, {(0, 3): 1, (1, 0): 1}, 1) == \
        {(1, 0): 8, (0, 0): 27}
    # pseudo-dividing y⁴ + 1 by 2y² + x skips y³: (x² + 4)²
    assert resultant({(0, 4): 1, (0, 0): 1}, {(0, 2): 2, (1, 0): 1}, 1) == \
        {(4, 0): 1, (2, 0): 8, (0, 0): 16}


def test_sum_candidates_match_sympy():
    # the factors of Res_y(f(y), g(x − y)) are those of sympy's resultant
    from math import comb

    from sympy.polys.densebasic import dmp_normal
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_resultant

    from scissors.algebraic import _norm_factors
    from scissors.factoring import factor

    def sympy_candidates(f, g):
        F = dmp_normal([[c] for c in reversed(f)], 1, ZZ)
        rows = []
        for k in range(len(g) - 1, -1, -1):
            cx = [(-1) ** k * g[i] * comb(i, k) for i in range(k, len(g))]
            rows.append(cx[::-1])
        G = dmp_normal(rows, 1, ZZ)
        return tuple(factor(dmp_resultant(F, G, 1, ZZ)[::-1]))

    for case in range(12):
        rng = SplitMix64.stream(2202, case)
        f, g = ([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                + [rng.randint(1, 3)] for _ in range(2))
        f, g = tuple(f), tuple(g)
        over_q = tuple((c,) for c in g)
        assert _norm_factors(f, over_q, 1) == sympy_candidates(f, g), case
