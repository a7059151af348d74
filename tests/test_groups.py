import pytest

from scissors.homology import HomologyResult, SizeCap, SparseIntMatrix
from scissors.homology.groups import (
    FiniteGroup,
    GModule,
    bar_complex,
    cyclic_group,
    cyclic_homology_oracle,
    group_homology,
    induced_module,
    restricted_group,
    shapiro_check,
    symmetric_group_3,
    trivial_group,
    trivial_module,
)
from oracles import augmentation_complex, rational_rank


def sign_module(group: FiniteGroup, signs) -> GModule:
    """Rank-1 module where element g acts by signs[g] ∈ {+1, −1}."""
    return GModule(group, 1, [[[int(s)]] for s in signs], name="sign")


def restrict_module(group: FiniteGroup, elements,
                    module: GModule) -> GModule:
    elems = list(elements)
    sub = restricted_group(group, elems)
    return GModule(sub, module.rank,
                   [module.action[g] for g in elems], name=module.name)


def coinvariants_rank_and_torsion(module: GModule):
    """H₀ = M_G directly from the action matrices (independent oracle)."""
    r = module.rank
    # columns are the relations g·m − m ranging over g and basis vectors m
    rows = []
    for g in range(module.group.n):
        A = module.action[g]
        for j in range(r):
            row = {}
            for i in range(r):
                v = A[i][j] - (1 if i == j else 0)
                if v:
                    row[i] = v
            if row:
                rows.append(row)
    mat = SparseIntMatrix(r, len(rows)) if rows else SparseIntMatrix(r, 0)
    for col, row in enumerate(rows):
        for i, v in row.items():
            mat[i, col] = v
    divisors = mat.elementary_divisors()
    betti = r - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return HomologyResult(0, betti, torsion)


def same(h, oracle):
    return h.betti == oracle.betti and h.torsion == oracle.torsion


def test_cyclic_groups_against_periodic_resolution():
    for m in (2, 3, 4):
        G = cyclic_group(m)
        hs = group_homology(G, trivial_module(G), 3)
        for k, h in enumerate(hs):
            assert same(h, cyclic_homology_oracle(m, k)), (m, k, h)


def test_z2_homology_values():
    G = cyclic_group(2)
    hs = group_homology(G, trivial_module(G), 3)
    assert (hs[0].betti, hs[0].torsion) == (1, ())
    assert (hs[1].betti, hs[1].torsion) == (0, (2,))
    assert (hs[2].betti, hs[2].torsion) == (0, ())
    assert (hs[3].betti, hs[3].torsion) == (0, (2,))


def test_h0_negation_action():
    # ℤ with the flip action of ℤ/2: coinvariants ℤ/2
    G = cyclic_group(2)
    M = sign_module(G, [1, -1])
    hs = group_homology(G, M, 1)
    assert (hs[0].betti, hs[0].torsion) == (0, (2,))
    oracle = coinvariants_rank_and_torsion(M)
    assert same(hs[0], oracle)


def test_h0_trivial_group_rank_n():
    G = trivial_group()
    M = trivial_module(G, rank=3)
    hs = group_homology(G, M, 1)
    assert (hs[0].betti, hs[0].torsion) == (3, ())


def test_degree0_matches_coinvariants_oracle():
    G = symmetric_group_3()
    M = trivial_module(G)
    hs = group_homology(G, M, 1)
    assert same(hs[0], coinvariants_rank_and_torsion(M))


def test_s3_homology():
    # H₁(S₃) = abelianization = ℤ/2
    G = symmetric_group_3()
    hs = group_homology(G, trivial_module(G), 2)
    assert (hs[0].betti, hs[0].torsion) == (1, ())
    assert (hs[1].betti, hs[1].torsion) == (0, (2,))


def test_shapiro_z4_z2():
    G = cyclic_group(4)
    H = [0, 2]
    subM = trivial_module(restricted_group(G, H))
    assert shapiro_check(G, H, subM, 3)


def test_shapiro_s3_z3():
    G = symmetric_group_3()
    # ⟨(123)⟩ = {identity, two 3-cycles}: indices 0, 1, 2 in our table
    H = [0, 1, 2]
    sub = restricted_group(G, H)
    assert sub.n == 3
    subM = trivial_module(sub)
    assert shapiro_check(G, H, subM, 2)


def test_shapiro_whole_group_tautology():
    G = cyclic_group(3)
    H = list(range(3))
    subM = trivial_module(restricted_group(G, H))
    assert shapiro_check(G, H, subM, 2)


def test_induced_module_rank():
    G = cyclic_group(4)
    M = induced_module(G, [0, 2], trivial_module(restricted_group(G, [0, 2])))
    assert M.rank == 2


def test_restrict_module_roundtrip():
    G = cyclic_group(6)
    M = trivial_module(G)
    sub = restrict_module(G, [0, 2, 4], M)
    assert sub.group.n == 3


def test_size_caps():
    G = cyclic_group(3)
    with pytest.raises(SizeCap):
        bar_complex(G, trivial_module(G), 5)


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([])


def _rational_betti(cx, k):
    """rank C_k − rank ∂_k − rank ∂_{k+1}, the ranks by Fraction rref."""
    return (cx.ranks[k] - rational_rank(cx.boundary_or_zero(k))
            - rational_rank(cx.boundary_or_zero(k + 1)))


def test_betti_numbers_match_rational_ranks():
    # the ranks of the boundaries come from their elementary divisors; a
    # Fraction rref of each boundary is the oracle
    from fractions import Fraction

    from scissors.homology.flags import flag_double_complex
    from scissors.rng import SplitMix64

    complexes = []
    for case in range(6):
        rng = SplitMix64.stream(611, case)
        if rng.randint(0, 1):
            G = symmetric_group_3()
            signs = [1, 1, 1, -1, -1, -1]
        else:
            m = 2 * rng.randint(1, 3)
            G = cyclic_group(m)
            signs = [(-1) ** g for g in range(m)]
        M = (sign_module(G, signs) if rng.randint(0, 1)
             else trivial_module(G, rng.randint(1, 2)))
        complexes.append(bar_complex(G, M, 3))
        dim = 2 + case % 2
        pts = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
               for _ in range(rng.randint(3, 5))]
        complexes.append(
            augmentation_complex(flag_double_complex(pts, dim, 1, 2)))
    for cx in complexes:
        for k in cx.degrees():
            assert cx.homology(k).betti == _rational_betti(cx, k), k


def _unnormalized_bar_complex(G, M, cap):
    """The coinvariant bar complex on all of G^k × basis(M) in degree k,
    degenerate tuples and faces included: the oracle of the normalized
    one."""
    from itertools import product

    from scissors.homology import ChainComplex, SparseIntMatrix

    basis = {k: [(t, m) for t in product(range(G.n), repeat=k)
                 for m in range(M.rank)] for k in range(cap + 1)}
    index = {k: {b: i for i, b in enumerate(basis[k])} for k in basis}
    boundaries = {}
    for k in range(1, cap + 1):
        mat = SparseIntMatrix(len(basis[k - 1]), len(basis[k]))
        for col, (t, m) in enumerate(basis[k]):
            inv = G.inv[t[0]]
            shifted = tuple(G.mul(inv, g) for g in t[1:])
            unit = tuple(int(i == m) for i in range(M.rank))
            for i, c in enumerate(M.act(inv, unit)):
                if c:
                    mat.add_at(index[k - 1][(shifted, i)], col, c)
            for i in range(1, k + 1):
                mat.add_at(index[k - 1][(t[:i - 1] + t[i:], m)], col,
                           (-1) ** i)
        boundaries[k] = mat
    return ChainComplex({k: len(b) for k, b in basis.items()}, boundaries)


def test_normalized_bar_complex_keeps_the_homology():
    # seeded groups and modules (trivial, sign, induced): the normalized
    # complex drops the degenerate tuples and has the homology of the full
    # one, on (|G| − 1)^k tuples per basis vector in degree k
    from scissors.rng import SplitMix64

    for case in range(9):
        rng = SplitMix64.stream(2501, case)
        G = symmetric_group_3() if case % 3 == 2 else \
            cyclic_group(2 * rng.randint(1, 2) + case % 3)
        kind = case // 3
        if kind == 0:
            M = trivial_module(G, rng.randint(1, 2))
        elif kind == 1:
            signs = ([1, 1, 1, -1, -1, -1] if G.name == "S3"
                     else [(-1) ** g for g in range(G.n)] if G.n % 2
                     == 0 else [1] * G.n)
            M = sign_module(G, signs)
        else:
            H = [0, 1, 2] if G.name == "S3" else \
                [0] if G.n % 2 else list(range(0, G.n, 2))
            M = induced_module(G, H, trivial_module(restricted_group(G, H)))
        cap = 3 if G.n * M.rank <= 6 else 2
        normal = bar_complex(G, M, cap + 1, _slack=1)
        full = _unnormalized_bar_complex(G, M, cap + 1)
        for k in range(cap + 1):
            assert normal.ranks[k] == (G.n - 1) ** k * M.rank
            a, b = normal.homology(k), full.homology(k)
            assert (a.betti, a.torsion) == (b.betti, b.torsion), \
                (G.name, M.name, k)
