from fractions import Fraction
from itertools import product

import pytest

from scissors.homology.flags import (
    FLAG_FACES_CACHE,
    SpanMissingFromPool,
    flag_double_complex,
    flag_faces,
    subspace_pool,
    verify_flag_nullhomotopy,
)
from scissors.intvec import net_faces
from scissors.rng import SplitMix64
from oracles import (
    augmentation_complex,
    contains_point,
    contains_subspace,
    double_complex,
    span_of_points,
)


def P(*coords):
    return tuple(Fraction(c) for c in coords)


def test_subspace_canonical_form():
    # the same line through two different point pairs has one canonical key
    l1 = span_of_points([P(0, 0), P(2, 2)])
    l2 = span_of_points([P(1, 1), P(5, 5)])
    assert l1.key() == l2.key()
    l3 = span_of_points([P(0, 1), P(1, 2)])
    assert l1.key() != l3.key()
    # a plane whose first direction row has an entry in the second pivot
    # column until the second row clears it
    plane = [P(-1, 1, -2), P(-1, -1, 0), P(-2, -2, 2), P(0, -1, -1)]
    keys = {span_of_points([plane[i] for i in sub]).key()
            for sub in ((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3))}
    assert len(keys) == 1


def test_subspace_containment():
    line = span_of_points([P(0, 0, 0), P(1, 1, 0)])
    plane = span_of_points([P(0, 0, 0), P(1, 1, 0), P(0, 0, 1)])
    assert contains_subspace(plane, line)
    assert not contains_subspace(line, plane)


def test_pool_three_generic_points_e2():
    pts = [P(0, 0), P(1, 0), P(0, 1)]
    pool = subspace_pool(pts, 2)
    dims = sorted(s.dim for s in pool)
    assert dims == [0, 0, 0, 1, 1, 1]  # 3 points + 3 lines


def test_flags_e2():
    fc = flag_double_complex([P(0, 0), P(1, 0), P(0, 1)], 2, 2, 1)
    # flags (line ⊃ point): each line contains 2 of the points → 6 of them
    assert len(fc.flags[1]) == 6
    assert len(fc.flags[0]) == 6


def test_nullhomotopy_three_points_e2():
    fc = flag_double_complex([P(0, 0), P(1, 0), P(0, 1)], 2, 2, 1)
    assert verify_flag_nullhomotopy(fc)


def test_nullhomotopy_four_points_e3():
    fc = flag_double_complex(
        [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)], 3, 2, 1)
    assert verify_flag_nullhomotopy(fc)


def test_nullhomotopy_five_points_e3():
    fc = flag_double_complex(
        [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)],
        3, 2, 1)
    assert verify_flag_nullhomotopy(fc)


def test_nullhomotopy_degenerate_configs():
    # collinear triple in E²; coplanar quadruple in E³
    fc = flag_double_complex([P(0, 0), P(1, 1), P(2, 2), P(1, 0)], 2, 1, 1)
    assert verify_flag_nullhomotopy(fc)
    fc3 = flag_double_complex(
        [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)], 3, 2, 1)
    assert verify_flag_nullhomotopy(fc3)


# the drawn configurations of the benchmark's `chains` workload
FLAG_SEED = 506


def _affine_bijection(rng):
    """x ↦ s·R·Q·x + t: Q a signed permutation of the axes, R a 3-4-5
    rotation in a coordinate plane, s a nonzero rational scale and t a
    rational translation."""
    perm = list(range(3))
    for i in range(2, 0, -1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    signs = [rng.randint(0, 1) * 2 - 1 for _ in range(3)]
    a = rng.randint(0, 2)
    b = (a + rng.randint(1, 2)) % 3
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    scale = Fraction(rng.randint(1, 7) * (rng.randint(0, 1) * 2 - 1),
                     rng.randint(1, 4))
    shift = [rng.fraction(6, 3) for _ in range(3)]

    def move(p):
        q = [signs[i] * p[perm[i]] for i in range(3)]
        return tuple(scale * sum(rot[i][k] * q[k] for k in range(3))
                     + shift[i] for i in range(3))
    return move


def test_flag_machinery_is_kept_by_rational_affine_bijections():
    # the pool, the members of each subspace and the flags depend on which
    # subsets of points span which subspaces, so a rational affine bijection
    # of the configuration keeps them, index for index
    for case in range(12):
        gen = SplitMix64.stream(FLAG_SEED, case)
        npts = gen.randint(3, 5)
        pts = [tuple(Fraction(gen.randint(-3, 3)) for _ in range(3))
               for _ in range(npts)]
        fc = flag_double_complex(pts, 3, 2, 1)
        assert verify_flag_nullhomotopy(fc), case
        counts = {p: len(flags) for p, flags in fc.flags.items()}
        rng = SplitMix64.stream(FLAG_SEED + 1, case)
        for _ in range(3):
            move = _affine_bijection(rng)
            moved = flag_double_complex([move(p) for p in pts], 3, 2, 1)
            assert len(moved.pool) == len(fc.pool), case
            assert moved.members == fc.members, case
            assert {p: len(flags) for p, flags in moved.flags.items()} \
                == counts, case
            assert verify_flag_nullhomotopy(moved), case


def verify_flipped(fc) -> bool:
    """`verify_flag_nullhomotopy` with the sign of the last face of every ∂′
    flipped, in a copy of the cached faces set on the instance as its
    `flag_faces`; the check must fail."""
    def flipped(flag):
        f = flag_faces(flag)
        return f[:-1] + ((f[-1][0], -f[-1][1]),)

    fc.flag_faces = flipped
    try:
        return verify_flag_nullhomotopy(fc)
    finally:
        del fc.flag_faces


def test_corrupted_sign_fails():
    fc = flag_double_complex([P(0, 0), P(1, 0), P(0, 1)], 2, 2, 1)
    assert not verify_flipped(fc)


def test_double_complex_validates():
    fc = flag_double_complex([P(0, 0), P(1, 0), P(0, 1)], 2, 1, 1)
    dc = double_complex(fc)  # construction validates the three identities
    assert dc.rank(0, 0) > 0


def test_total_complex_matches_augmentation_column():
    # rows are exact, so Tot(A_{p≥0}) has the homology of the augmentation
    # column; both sides computed by independent SNF runs
    pts = [P(0, 0), P(1, 0), P(0, 1), P(1, 1)]
    fc = flag_double_complex(pts, 2, 1, 1)
    dc = double_complex(fc)
    tot = dc.total_complex()
    aug = augmentation_complex(fc)
    for k in (0, 1):
        ht = tot.homology(k)
        ha = aug.homology(k)
        assert (ht.betti, ht.torsion) == (ha.betti, ha.torsion), k


def test_random_configs_nullhomotopy():
    for case in range(6):
        rng = SplitMix64.stream(31, case)
        dim = 2 if case % 2 == 0 else 3
        npts = rng.randint(3, 4 if dim == 2 else 5)
        pts = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
               for _ in range(npts)]
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        assert verify_flag_nullhomotopy(fc)


def _configurations():
    """12 seeded configurations, in which small coordinates make collinear,
    coplanar and repeated points common, and four collinear points with one
    off their line (their span lies in planes of the pool as well)."""
    for case in range(12):
        rng = SplitMix64.stream(37, case)
        dim = 2 if case % 2 == 0 else 3
        npts = rng.randint(3, 5)
        yield case, dim, [tuple(Fraction(rng.randint(-2, 2))
                                for _ in range(dim)) for _ in range(npts)]
    yield "line", 3, [P(t, 2 * t, 1 - t) for t in range(4)] + [P(0, 0, 5)]


def test_containment_from_members_matches_subspace_test():
    for case, dim, pts in _configurations():
        npts = len(pts)
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        got = {(i, j) for i, js in fc.contains.items() for j in js}
        want = {(i, j)
                for i, a in enumerate(fc.pool)
                for j, b in enumerate(fc.pool)
                if a.dim > b.dim and contains_subspace(a, b)}
        assert got == want, case
        # the span table against the subspace arithmetic used directly
        for s in fc.pool:
            assert sum(contains_subspace(s, t) and contains_subspace(t, s)
                       for t in fc.pool) == 1, case
        assert fc.members == [
            tuple(i for i, p in enumerate(pts) if contains_point(s, p))
            for s in fc.pool], case
        for q in range(dim + 1):  # tuples of more than dim points too
            proper = []
            for tup in product(range(npts), repeat=q + 1):
                span = span_of_points([pts[i] for i in sorted(set(tup))])
                if span.dim == dim:
                    with pytest.raises(SpanMissingFromPool):
                        fc.tuple_span_index(tup)
                    continue
                proper.append(tup)
                assert fc.pool[fc.tuple_span_index(tup)] == span, (case, tup)
            assert fc.augmentation_basis(q) == proper, (case, q)
        assert verify_flag_nullhomotopy(fc), case
        assert not verify_flipped(fc), case


def test_missing_containment_pair_raises():
    # every pair of the containment table is read by the check: with one
    # removed, the span of some tuple is no longer below a flag end
    for case, dim, pts in list(_configurations())[:4]:
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        pairs = [(i, j) for i, js in fc.contains.items() for j in js]
        assert pairs, case
        for i, j in pairs:
            kept = fc.contains[i]
            fc.contains[i] = [k for k in kept if k != j]
            with pytest.raises(SpanMissingFromPool):
                verify_flag_nullhomotopy(fc)
            fc.contains[i] = kept
        assert verify_flag_nullhomotopy(fc), case


def test_one_flipped_flag_fails_the_check():
    # the sign of the last face of ∂′ flipped at one flag alone: the check
    # reaches every flag, so each such corruption fails it
    for case, dim, pts in (("e2", 2, [P(0, 0), P(1, 0), P(0, 1), P(1, 1)]),
                           ("e3", 3, [P(0, 0, 0), P(1, 0, 0), P(0, 1, 0),
                                      P(0, 0, 1)])):
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        faces = fc.flag_faces
        every = [flag for fl in fc.flags.values() for flag in fl]
        for chosen in every:
            def flipped(flag, chosen=chosen):
                f = faces(flag)
                if flag != chosen:
                    return f
                return f[:-1] + ((f[-1][0], -f[-1][1]),)
            fc.flag_faces = flipped
            assert not verify_flag_nullhomotopy(fc), (case, chosen)
        del fc.flag_faces
        assert verify_flag_nullhomotopy(fc), case


# the flag battery of the `chains` benchmark workload, in E³ with p ≤ 2
BATTERY = [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],  # collinear
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],  # coplanar
]


def _every_flag(fc):
    return [flag for fl in fc.flags.values() for flag in fl]


def test_flag_faces_are_one_bounded_cache_of_net_faces():
    battery = [flag_double_complex([P(*p) for p in pts], 3, 2, 1)
               for pts in BATTERY]
    for fc in battery:
        assert verify_flag_nullhomotopy(fc)
        for flag in _every_flag(fc):
            assert fc.flag_faces(flag) == \
                tuple(net_faces([(1, flag)]).items()), flag
            # one cache for every complex of the process
            assert fc.flag_faces(flag) is flag_faces(flag)
    # a corrupted run after a warm honest one wraps the cached faces and
    # writes none of its own: the honest run after it passes, on this
    # complex and on a fresh one
    for pts, fc in zip(BATTERY, battery):
        assert not verify_flipped(fc), pts
        assert verify_flag_nullhomotopy(fc), pts
        fresh = flag_double_complex([P(*p) for p in pts], 3, 2, 1)
        assert verify_flag_nullhomotopy(fresh), pts
        for flag in _every_flag(fc):
            assert flag_faces(flag) == tuple(net_faces([(1, flag)]).items())
    # more distinct flags than the bound: the cache stays at its bound and
    # still nets each flag
    for i in range(FLAG_FACES_CACHE + 8):
        flag = (i, i + 1, i + 3)
        assert flag_faces(flag) == (((i + 1, i + 3), 1), ((i, i + 3), -1),
                                    ((i, i + 1), 1))
    info = flag_faces.cache_info()
    assert info.maxsize == FLAG_FACES_CACHE
    assert info.currsize <= info.maxsize
    assert all(verify_flag_nullhomotopy(fc) for fc in battery)
