import json
from fractions import Fraction

import pytest

from scissors.algebraic import make_algebraic, scalar_sign
from scissors.angles import AnglePair
from scissors.dehn import (
    compare_polytopes,
    dehn_invariant,
    dehn_sum,
    is_zero,
    nonzero_certificate,
    tensor_add,
    tensor_neg,
    tensor_normalize,
)
from scissors.geom import prism
from scissors.geom.convex import (
    box,
    regular_tetrahedron,
    scaled_simplices,
    transformed,
    unit_cube,
)
from oracles import regular_hexagon, right_triangle


def angle(c):
    return AnglePair.from_cos(c)


def _certificate(verdict, kind):
    """The one certificate of the type `kind` among the verdict's."""
    (cert,) = [c for c in verdict.certificates if c["type"] == kind]
    return cert


def test_rational_angle_dies():
    t = tensor_normalize([(Fraction(5), angle(Fraction(0)))])  # θ = π/2
    assert t.is_empty()
    assert t.rational_drops


def test_theta_plus_supplement_dies():
    t = tensor_normalize([(1, angle(Fraction(1, 3))),
                          (1, angle(Fraction(-1, 3)))])
    assert t.is_empty()


def test_additive_inverse_dies():
    t = tensor_normalize([(2, angle(Fraction(1, 3))),
                          (-2, angle(Fraction(1, 3)))])
    assert t.is_empty()


def test_double_angle_elimination():
    # 2θ1 + θ2 ≡ 0 (mod π) with cosθ1=1/3, cosθ2=7/9:
    # ℓ⊗θ2 rewrites to −2ℓ⊗θ1
    t = tensor_normalize([(1, angle(Fraction(1, 3))),
                          (2, angle(Fraction(7, 9)))])
    assert len(t.terms) == 1
    length, a = t.pairs()[0]
    assert a.cos in (Fraction(1, 3), Fraction(7, 9))
    assert scalar_sign(length) != 0


def test_each_substitution_takes_one_proposal(monkeypatch):
    # θ1 + θ2 = π and 2θ1 + θ3 = π for cos 1/3, −1/3, 7/9; the angle of
    # cos 1/5 has no relation with them, so the last search finds none;
    # θ2 is written as π − θ1 with its length negated, so PSLQ runs once
    # for 2θ1 + θ3 = π, the one relation used, and once to find none
    import mpmath

    from scissors.angles import find_angle_relations

    calls = []
    pslq = mpmath.pslq

    def counted(*args, **kwargs):
        calls.append(args)
        return pslq(*args, **kwargs)

    monkeypatch.setattr(mpmath, "pslq", counted)
    angles = [angle(Fraction(c)) for c in ("1/3", "-1/3", "7/9", "1/5")]
    t = tensor_normalize([(2 ** i, a) for i, a in enumerate(angles)])
    assert len(t.terms) == 2 and len(t.relations_used) == 1
    assert len(calls) == 2
    calls.clear()
    assert len(find_angle_relations(angles[:3])) == 1
    assert len(calls) == 1


def test_cube_invariant_zero():
    assert is_zero(dehn_invariant(unit_cube())) == "Zero"


def test_regular_tetra_invariant():
    t = regular_tetrahedron()  # edge 2√2
    d = dehn_invariant(t)
    assert is_zero(d) == "NonzeroCertified"
    length, a = d.pairs()[0]
    assert a.cos == Fraction(1, 3)
    # six edges of length 2√2 merge into one term
    assert scalar_sign(length * length - 6 * 6 * 8) == 0
    cert = nonzero_certificate(d)
    assert cert["two_cos_minpoly"] == ["-2", "3"]
    assert cert["monic"] is False


def test_prism_invariant_zero_hexagon():
    p = prism(regular_hexagon(1), 1)
    assert is_zero(dehn_invariant(p)) == "Zero"


def test_prism_invariant_zero_scalene_triangle():
    # irrational-angle base: vertical edges need the angle-sum relation
    base = right_triangle(1, 2)
    p = prism(base, 1)
    d = dehn_invariant(p)
    assert is_zero(d) == "Zero"


def test_dehn_additivity_box_split():
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    whole = box((0, 0, 0), (2, 1, 1))
    corners = [(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 1)]
    a_pts, b_pts = split_convex_points_3d(corners, (1, 1, 1, -2))
    a = convex_polytope_3d(a_pts)
    b = convex_polytope_3d(b_pts)
    da = dehn_invariant(a)
    db = dehn_invariant(b)
    dw = dehn_invariant(whole)
    diff = tensor_add(tensor_add(da, db), tensor_neg(dw))
    assert is_zero(diff) == "Zero"


def test_compare_cube_vs_scaled_tetra():
    cube = unit_cube()
    # scale regular tetra to volume 1: (8/3)s³ = 1 → s = (3/8)^(1/3)
    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    tet = scaled_simplices(regular_tetrahedron(), s)
    assert scalar_sign(tet.volume() - 1) == 0
    verdict = compare_polytopes(cube, tet)
    assert verdict.tag == "NotCongruent_Dehn"
    assert _certificate(verdict, "nonzero-dehn")["two_cos_minpoly"] == \
        ["-2", "3"]


def test_compare_cube_vs_rotated_cube():
    cube = unit_cube()
    R = [(Fraction(3, 5), Fraction(-4, 5), 0),
         (Fraction(4, 5), Fraction(3, 5), 0),
         (0, 0, 1)]
    moved = transformed(cube, R, shift=(7, -1, 2))
    verdict = compare_polytopes(cube, moved)
    assert verdict.tag == "Congruent_DSJ"


def test_compare_volume_mismatch():
    verdict = compare_polytopes(box((0, 0, 0), (1, 1, 2)), unit_cube())
    assert verdict.tag == "NotCongruent_Volume"


def test_compare_unknown_two_angle_families():
    # regular tetra vs a 1×2×3-leg trirectangular tetra, volumes matched:
    # the difference keeps several unrelated angles → Unknown
    from scissors.geom.convex import tetrahedron
    tri = tetrahedron((0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3))
    s = make_algebraic([-3, 0, 0, 8], (0, 1))  # tetra volume (8/3)s³ = 1
    tet = scaled_simplices(regular_tetrahedron(), s)
    assert scalar_sign(tri.volume() - tet.volume()) == 0
    verdict = compare_polytopes(tri, tet)
    assert verdict.tag == "Unknown"
    assert verdict.height_bound == 20


def _seeded_order(rng, pts):
    """A seeded permutation of pts (Fisher-Yates on SplitMix64)."""
    pts = list(pts)
    for i in range(len(pts) - 1, 0, -1):
        j = rng.randint(0, i)
        pts[i], pts[j] = pts[j], pts[i]
    return pts


def _cells(p):
    return {frozenset(s.vertices) for _, s in p.chain}


def _two_triangulations(rng):
    """One seeded rational hull, tetrahedralized from two point orders that
    give different cells (the hull is coned from its first point)."""
    from scissors.geom import GeometryError
    from scissors.geom.convex import convex_polytope_3d

    while True:
        pts = list(dict.fromkeys(tuple(rng.randint(0, 3) for _ in range(3))
                                 for _ in range(rng.randint(5, 7))))
        try:
            a = convex_polytope_3d(pts)
        except GeometryError:
            continue  # flat point sets have no hull; draw again
        for _ in range(4):
            b = convex_polytope_3d(_seeded_order(rng, pts))
            if _cells(b) != _cells(a):
                return a, b


def test_retriangulation_keeps_volume_and_dehn():
    # metamorphic: volume and D(P) do not depend on the triangulation
    from scissors.rng import SplitMix64

    for case in range(3):
        a, b = _two_triangulations(SplitMix64.stream(808, case))
        assert a.volume() == b.volume()
        diff = tensor_add(dehn_invariant(a), tensor_neg(dehn_invariant(b)))
        assert is_zero(diff) == "Zero"
        assert compare_polytopes(a, b).tag == "Congruent_DSJ"


# -- rational polytopes: blocks by square class -------------------------------

def _motion(rng):
    """A seeded signed permutation, then a 3-4-5 rotation in a coordinate
    plane, then a rational translation: (matrix rows, shift)."""
    perm = [0, 1, 2]
    for i in range(2, 0, -1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    m = [[0] * 3 for _ in range(3)]
    for i in range(3):
        m[i][perm[i]] = rng.choice((-1, 1))
    a = rng.randint(0, 2)
    b = (a + rng.randint(1, 2)) % 3
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    rows = [[sum(rot[i][k] * m[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    return rows, [rng.fraction(6, 3) for _ in range(3)]


def _rational_hull(rng):
    from scissors.geom import GeometryError
    from scissors.geom.convex import convex_polytope_3d

    while True:
        pts = list(dict.fromkeys(
            tuple(Fraction(rng.randint(0, 4)) for _ in range(3))
            for _ in range(rng.randint(5, 7))))
        try:
            return pts, convex_polytope_3d(pts)
        except GeometryError:
            continue  # flat point sets have no hull; draw again


def test_block_decision_is_invariant_on_rational_hulls():
    # metamorphic: signed permutations, 3-4-5 rotations and rational
    # translations keep the verdict and the block sizes, and a cut by a
    # plane keeps the verdict of the sum of the pieces; every difference is
    # zero, and a union of the moved pieces is Congruent_DSJ to the whole;
    # cutting one piece again by a second plane keeps D and the volume
    from scissors.geom import Polytope, SimplexChain
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    from scissors.rng import SplitMix64
    from scissors.suites import random_cutting_plane

    def sizes(t):
        return sorted(len(b) for b in t.blocks().values())

    for case in range(4):
        rng = SplitMix64.stream(2502, case)
        pts, p = _rational_hull(rng)
        d = dehn_invariant(p)
        assert all(m is not None for _c, m, _s, _a in d.terms)  # rational
        for _ in range(2):
            q = transformed(p, *_motion(rng))
            dq = dehn_invariant(q)
            assert (is_zero(dq), sizes(dq)) == (is_zero(d), sizes(d))
            assert is_zero(tensor_add(d, tensor_neg(dq))) == "Zero"
        func = random_cutting_plane(rng, pts)
        halves = split_convex_points_3d(pts, func)
        a, b = map(convex_polytope_3d, halves)
        pieces = tensor_add(dehn_invariant(a), dehn_invariant(b))
        assert is_zero(pieces) == is_zero(d)
        assert is_zero(tensor_add(d, tensor_neg(pieces))) == "Zero"
        # the pieces moved apart: translations past the hull's extent
        (ra, sa), (rb, sb) = _motion(rng), _motion(rng)
        sa = [c + 20 for c in sa]
        sb = [c - 20 for c in sb]
        cells = [(1, s) for piece in (transformed(a, ra, sa),
                                      transformed(b, rb, sb))
                 for _, s in piece.chain]
        apart = Polytope(SimplexChain(3, cells))
        assert compare_polytopes(p, apart).tag == "Congruent_DSJ"
        # re-dissection: a cut again by a second seeded plane
        again = random_cutting_plane(rng, halves[0])
        three = [b, *map(convex_polytope_3d,
                         split_convex_points_3d(halves[0], again))]
        total = tensor_add(tensor_add(*map(dehn_invariant, three[:2])),
                           dehn_invariant(three[2]))
        assert is_zero(tensor_add(d, tensor_neg(total))) == "Zero"
        assert sum(piece.volume() for piece in three) == p.volume()


def _tetra_pair():
    from scissors.geom.convex import tetrahedron

    one, half = Fraction(1), Fraction(1, 2)
    t1 = tetrahedron((0, 0, 0), (one, 0, 0), (0, one, 0), (0, 0, one))
    t2 = tetrahedron((0, 0, 0), (2, 0, 0), (0, one, 0), (0, 0, half))
    return t1, t2


def test_rational_tetrahedron_pair_is_not_congruent_by_a_block():
    # equal volumes 1/6; the difference has the blocks (5, 5) twice,
    # (17, 17) and (2, 2), and the first lone block certifies D ≠ 0; t2
    # rotated by π/4 about z and moved by (√2/2, 0, 1/3) keeps its ℓ² and
    # cos², so it gives the same verdict and certificates
    from scissors.geom.convex import transformed
    from scissors.report import recheck_certificates

    t1, t2 = _tetra_pair()
    h = make_algebraic([-2, 0, 1], (1, 2)) / 2
    moved = transformed(t2, ((h, -h, 0), (h, h, 0), (0, 0, 1)),
                        (h, 0, Fraction(1, 3)))
    verdicts = [compare_polytopes(t1, t2), compare_polytopes(t1, moved)]
    for verdict in verdicts:
        assert verdict.tag == "NotCongruent_Dehn"
        cert = _certificate(verdict, "dehn-block")
        assert (cert["type"], cert["m"], cert["s"]) == \
            ("dehn-block", "rat:2/1", "rat:2/1")
        assert cert["terms"] == verdict.witness["difference"]["terms"]
        assert len(cert["terms"]) == 4
        checks = recheck_certificates(
            {"certificates": verdict.certificates})["checks"]
        assert [c["pass"] for c in checks] == [True, True]
    assert verdicts[1] == verdicts[0]


def _negated(literal):
    """The literal of −x for the literal of x."""
    if isinstance(literal, str):
        p, q = literal[4:].split("/")
        return f"rat:{-int(p)}/{q}"
    f = [int(c) for c in literal["minpoly"]]
    g = [-c if i % 2 else c for i, c in enumerate(f)]
    if g[-1] < 0:
        g = [-c for c in g]
    neg = _negated("rat:" + literal["hi"]), _negated("rat:" + literal["lo"])
    return {"minpoly": [str(c) for c in g], "lo": neg[0][4:],
            "hi": neg[1][4:]}


def test_block_recheck_fails_on_mutated_certificates():
    import copy

    from scissors.report import recheck_certificates

    t1, t2 = _tetra_pair()
    cert = _certificate(compare_polytopes(t1, t2), "dehn-block")

    def passes(c):
        return recheck_certificates({"certificates": [c]})["checks"][0][
            "pass"]

    assert passes(cert)
    named = cert["terms"].index(cert["term"])
    other = (named + 1) % len(cert["terms"])
    mutants = []
    for field, value in (("m", "rat:3/1"), ("m", "rat:5/1"),
                         ("s", "rat:17/1"), ("s", "rat:8/1"),
                         ("m", "rat:0/1")):
        if value == "rat:8/1":
            value = "rat:7/1"  # 8 is in the class of 2
        c = copy.deepcopy(cert)
        c[field] = value
        mutants.append(c)
    # a second term moved into the named block: the supplementary angle of
    # the named term, with its length, in place of another term
    c = copy.deepcopy(cert)
    term = cert["term"]
    c["terms"][other] = {"length": term["length"],
                         "cos": _negated(term["cos"]), "sin": term["sin"]}
    mutants.append(c)
    # the named term twice
    c = copy.deepcopy(cert)
    c["terms"].append(copy.deepcopy(term))
    mutants.append(c)
    # the named term's angle made rational (cos² = 1/4)
    c = copy.deepcopy(cert)
    c["term"] = c["terms"][named] = {
        "length": term["length"], "cos": "rat:1/2",
        "sin": {"minpoly": ["-3", "0", "4"], "lo": "3/4", "hi": "7/8"}}
    mutants.append(c)
    for c in mutants:
        assert not passes(c), c


def test_single_term_blocks_make_no_search(monkeypatch):
    # every search runs on one block of two or more angles
    import scissors.dehn as dehn
    from scissors.dehn import _square_classes
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    from scissors.rng import SplitMix64
    from scissors.suites import random_box_corners, random_cutting_plane

    searched = []
    search = dehn.find_angle_relations

    def recorded(angles, height_bound=20):
        classes = _square_classes({a.cos2 * (1 - a.cos2) for a in angles})
        assert len(angles) >= 2
        assert len({r for r, _k in classes.values()}) == 1
        searched.append(len(angles))
        return search(angles, height_bound)

    monkeypatch.setattr(dehn, "find_angle_relations", recorded)
    t1, t2 = _tetra_pair()
    assert compare_polytopes(t1, t2).tag == "NotCongruent_Dehn"
    # the block (5, 5) of the difference
    assert searched == [2]
    for case in range(3):
        rng = SplitMix64.stream(303, 2 * case)
        corners = random_box_corners(rng)
        func = random_cutting_plane(rng, corners)
        whole = convex_polytope_3d(corners)
        a, b = (convex_polytope_3d(half)
                for half in split_convex_points_3d(corners, func))
        diff = tensor_add(dehn_invariant(whole), tensor_neg(
            tensor_add(dehn_invariant(a), dehn_invariant(b))))
        assert is_zero(diff) == "Zero"


def test_dehn_sum_normalizes_the_signed_edges_once():
    # the rational path and the generic one (the ∛(3/8) tetrahedron's
    # lengths are field elements): a polytope minus a moved copy of itself
    # cancels term by term, and a sum of one polytope is its invariant
    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for p in (box((0, 0, 0), (1, 2, 3)), regular_tetrahedron(),
              scaled_simplices(regular_tetrahedron(), vol1)):
        moved = transformed(p, identity, (Fraction(1, 7), 2, 0))
        assert dehn_sum([(1, p), (-1, moved)]).is_empty()
        assert dehn_sum([(1, p)]) == dehn_invariant(p)
        twice = dehn_sum([(2, p), (-1, moved)])
        assert is_zero(tensor_add(twice, tensor_neg(dehn_invariant(p)))) \
            == "Zero"


def test_algebraic_redissection_keeps_dehn_verdicts(monkeypatch):
    # metamorphic: every dissection case at seed 303 moved by (√2/3, 0, 0)
    # keeps the verdicts of W − A − B and of W − A, and W − A − B still
    # cancels without a relation search
    import scissors.dehn as dehn
    from scissors.algebraic import sqrt_nonneg
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    from scissors.rng import SplitMix64
    from scissors.suites import (
        random_box_corners,
        random_cutting_plane,
        random_tet_corners,
    )

    searched = []
    search = dehn.find_angle_relations

    def recorded(angles, height_bound=20):
        searched.append(len(angles))
        return search(angles, height_bound)

    monkeypatch.setattr(dehn, "find_angle_relations", recorded)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    shift = (sqrt_nonneg(2) / 3, 0, 0)
    verdicts = set()
    for case in range(25):
        rng = SplitMix64.stream(303, case)
        corners = (random_box_corners(rng) if case % 2 == 0
                   else random_tet_corners(rng))
        halves = split_convex_points_3d(
            corners, random_cutting_plane(rng, corners))
        parts = [convex_polytope_3d(p) for p in (corners, *halves)]
        moved = [transformed(p, identity, shift) for p in parts]
        got = []
        for whole, a, b in (parts, moved):
            del searched[:]
            got.append((is_zero(dehn_sum([(1, whole), (-1, a), (-1, b)])),
                        searched[:],
                        is_zero(dehn_sum([(1, whole), (-1, a)]))))
        assert got[1] == got[0] and got[1][:2] == ("Zero", []), case
        verdicts.add(got[1][2])
    assert verdicts == {"Zero", "NonzeroCertified"}


def test_scaled_redissection_shares_one_field(monkeypatch):
    # metamorphic: dissection cases 0–3 at seed 303, each piece scaled by
    # ∛(3/8) on its own, keep W − A − B = 0 on the algebraic path; the three
    # polytopes share one ℚ(∛(3/8)), so no length sum leaves the field, and
    # every dihedral angle keeps its rational cos², so π − θ is written as
    # θ with its length negated and no PSLQ search runs
    import scissors.dehn as dehn
    from scissors import numberfield
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    from scissors.rng import SplitMix64
    from scissors.suites import (
        random_box_corners,
        random_cutting_plane,
        random_tet_corners,
    )

    fallbacks = []
    fallback = numberfield._fallback

    def counted(x, y, op):
        fallbacks.append(op)
        return fallback(x, y, op)

    monkeypatch.setattr(numberfield, "_fallback", counted)
    searches = []
    search = dehn.find_angle_relations

    def recorded(angles, *args):
        searches.append(len(angles))
        return search(angles, *args)

    monkeypatch.setattr(dehn, "find_angle_relations", recorded)
    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    for case in range(4):
        rng = SplitMix64.stream(303, case)
        corners = (random_box_corners(rng) if case % 2 == 0
                   else random_tet_corners(rng))
        halves = split_convex_points_3d(
            corners, random_cutting_plane(rng, corners))
        whole, a, b = (scaled_simplices(convex_polytope_3d(p), s)
                       for p in (corners, *halves))
        # the one-block form: ℓ² is irrational
        assert type(whole.edges()[0].length2) is not Fraction
        assert is_zero(dehn_sum([(1, whole), (-1, a), (-1, b)])) == "Zero"
    assert fallbacks == []
    assert searches == []


# -- the normal form writes every angle with cos θ > 0 ------------------------

@pytest.fixture(scope="module")
def dissection_cases():
    """{scaled: [(W, A, B), ...]}: the whole and its two parts of each of the
    25 dissection cases at seed 303, as rational polytopes (scaled False)
    and each scaled by ∛(3/8) (scaled True)."""
    from scissors.geom.convex import convex_polytope_3d, split_convex_points_3d
    from scissors.rng import SplitMix64
    from scissors.suites import (
        random_box_corners,
        random_cutting_plane,
        random_tet_corners,
    )

    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    out = {False: [], True: []}
    for case in range(25):
        rng = SplitMix64.stream(303, case)
        corners = (random_box_corners(rng) if case % 2 == 0
                   else random_tet_corners(rng))
        halves = split_convex_points_3d(
            corners, random_cutting_plane(rng, corners))
        parts = [convex_polytope_3d(p) for p in (corners, *halves)]
        out[False].append(tuple(parts))
        out[True].append(tuple(scaled_simplices(p, s) for p in parts))
    return out


def _supplement(angle):
    """π − θ, built from θ's cos² and the opposite sign of cos."""
    return AnglePair.from_cos2(angle.cos2, -angle.cos_sign)


def _flipped(raw, rng):
    """`raw` with a seeded subset of its terms (c, x, θ), θ no rational
    multiple of π, written as (−c, x, π − θ).  A rational θ is dropped, and
    its supplement is dropped as another rational angle."""
    from scissors.angles import is_rational_angle

    out = []
    for c, x, angle in raw:
        if is_rational_angle(angle) is None and rng.randint(0, 1):
            c, angle = -c, _supplement(angle)
        out.append((c, x, angle))
    return out


def _assert_acute_and_distinct(t):
    """Every term of t has cos θ > 0, and no two terms of one block share
    a cos²."""
    from scissors.numbers import scalar_key

    for block in t.blocks().values():
        cos2 = []
        for _c, angle in block:
            assert angle.cos_sign > 0 and scalar_sign(angle.cos) > 0
            cos2.append(scalar_key(angle.cos2))
        assert len(set(cos2)) == len(cos2)


def test_flipping_terms_keeps_the_normal_form(dissection_cases):
    # ℓ ⊗ θ = −ℓ ⊗ (π − θ): any subset of the raw terms so written gives the
    # normal form's JSON back, on seeded rational hulls, on W − A of the 25
    # dissection cases at seed 303 and on W − A − B of those cases scaled
    # by ∛(3/8) (the algebraic path), on W − A of four of them scaled, and
    # on two tetrahedra with angles of irrational cos², one of them obtuse
    from scissors.dehn import _normalize, _raw_terms
    from scissors.geom.convex import tetrahedron
    from scissors.rng import SplitMix64

    rng = SplitMix64.stream(4808, 0)
    hulls = (_rational_hull(SplitMix64.stream(4808, case))[1]
             for case in range(1, 7))
    raws = [_raw_terms([(1, p)]) for p in hulls]
    raws += [_raw_terms([(1, w), (-1, a)])
             for w, a, _b in dissection_cases[False]]
    scaled = dissection_cases[True]
    raws += [_raw_terms([(1, w), (-1, a), (-1, b)]) for w, a, b in scaled]
    raws += [_raw_terms([(1, w), (-1, a)]) for w, a, _b in scaled[:4]]
    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r3 = make_algebraic([-3, 0, 1], (1, 2))
    for points in (((1, 0, 0), (0, 1, 0), (0, 0, 1 + r2)),
                   ((2, 0, 0), (-1, r3, 0), (0, Fraction(1, 3), 1 + r2))):
        raws.append(_raw_terms([(1, tetrahedron((0, 0, 0), *points))]))
    nonempty = 0
    for raw in raws:
        t = _normalize(raw, 20)
        _assert_acute_and_distinct(t)
        nonempty += not t.is_empty()
        want = json.dumps(t.to_json())
        for _ in range(2):
            assert json.dumps(_normalize(_flipped(raw, rng), 20).to_json()) \
                == want
    assert nonempty >= 20


def test_redissection_cancels_with_no_search(dissection_cases,
                                            monkeypatch):
    # W − A − B of the 25 dissection cases at seed 303, rational and each
    # polytope scaled by ∛(3/8), is Zero with no search and no relation:
    # θ and π − θ merge when the terms are written with cos θ > 0
    import scissors.dehn as dehn

    searched = []
    monkeypatch.setattr(dehn, "find_angle_relations",
                        lambda *args: searched.append(args) or [])
    for scaled in (False, True):
        for w, a, b in dissection_cases[scaled]:
            diff = dehn_sum([(1, w), (-1, a), (-1, b)])
            assert is_zero(diff) == "Zero"
            assert diff.relations_used == []
    assert searched == []


# -- one edge form: the blocks read ℓ² and cos², not the coordinates ---------

def test_tensor_add_keeps_its_operands_evidence():
    # D(cube) + D(box112) keeps the right angle both operands dropped, once,
    # and a sum keeps its operands' relations ahead of its own
    from oracles import hill_tetrahedron
    from scissors.dehn import tensor_certificates

    cube, tall = dehn_invariant(unit_cube()), dehn_invariant(
        box((0, 0, 0), (1, 1, 2)))
    total = tensor_add(cube, tall)
    assert total.is_empty()
    assert total.drops_json() == cube.drops_json() == [
        {"q": "rat:1/2", "cos": "rat:0/1"}]
    assert tensor_certificates(total) == [
        {"type": "rational-angles", "dropped": cube.drops_json()}]
    hill = dehn_invariant(hill_tetrahedron())
    other = dehn_invariant(_tetra_pair()[0])
    assert len(hill.relations_used) == 1 and other.relations_used == []
    for a, b in ((hill, other), (other, hill)):
        total = tensor_add(a, b)
        assert total.relations_used[:1] == hill.relations_used
        # π/2, which both dropped, and π/3 (Hill's alone), once each
        assert total.drops_json() == hill.drops_json() == [
            {"q": "rat:1/2", "cos": "rat:0/1"},
            {"q": "rat:1/3", "cos": "rat:1/2"}]


def _moved_hulls(count):
    """(hull, moved) for seeded rational hulls at seed 4901, each moved by a
    rotation by π/4 about z (entries in ℚ(√2)) and one by π/6 about x
    (ℚ(√3)), each with the translation (√2/2, 0, 1/3)."""
    from scissors.geom.convex import transformed
    from scissors.rng import SplitMix64

    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r3 = make_algebraic([-3, 0, 1], (1, 2))
    h, half = r2 / 2, Fraction(1, 2)
    shift = (h, 0, Fraction(1, 3))
    rotations = (((h, -h, 0), (h, h, 0), (0, 0, 1)),
                 ((1, 0, 0), (0, r3 / 2, -half), (0, half, r3 / 2)))
    for case in range(count):
        hull = _rational_hull(SplitMix64.stream(4901, case))[1]
        for rotation in rotations:
            yield hull, transformed(hull, rotation, shift)


def _counting_searches(monkeypatch):
    """The list that records the number of angles of each relation search
    `dehn` makes from here on."""
    import scissors.dehn as dehn

    searched = []
    search = dehn.find_angle_relations

    def recorded(angles, *args):
        searched.append(len(angles))
        return search(angles, *args)

    monkeypatch.setattr(dehn, "find_angle_relations", recorded)
    return searched


def test_isometries_keep_the_invariant(monkeypatch):
    # metamorphic: a rational hull moved by a rotation with entries in
    # ℚ(√2) or ℚ(√3) and an irrational translation keeps its ℓ² and cos²,
    # so its invariant prints the same after the same searches
    searched = _counting_searches(monkeypatch)
    tags = set()
    for hull, moved in _moved_hulls(12):
        del searched[:]
        want = dehn_invariant(hull)
        count = len(searched)
        got = dehn_invariant(moved)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert len(searched) == 2 * count
        tags.add(is_zero(got))
    assert "NonzeroCertified" in tags


def _nonsquare(rng):
    from math import isqrt

    while True:
        q = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        n = q.numerator * q.denominator
        if isqrt(n) ** 2 != n:
            return q


def test_blocks_agree_with_the_one_block_form(monkeypatch):
    # the block form on polytopes whose ℓ² and cos² are rational but whose
    # coordinates are not, against the one-block form of the same edges:
    # a decisive one-block verdict is the block verdict, and Hill's
    # tetrahedron vanishes by one searched relation in either form
    from oracles import hill_tetrahedron
    from scissors.algebraic import sqrt_nonneg
    from scissors.dehn import _normalize
    from scissors.geom.convex import tetrahedron, transformed
    from scissors.rng import SplitMix64

    r2 = make_algebraic([-2, 0, 1], (1, 2))
    r3 = make_algebraic([-3, 0, 1], (1, 2))
    h = r2 / 2
    rotation = ((h, -h, 0), (h, h, 0), (0, 0, 1))
    shapes = [moved for _hull, moved in _moved_hulls(4)]
    shapes += [transformed(p, rotation, (h, 0, 0))
               for p in (unit_cube(), _tetra_pair()[0])]
    shapes.append(tetrahedron((0, 0, 0), (r2, 0, 0), (0, r3, 0), (0, 0, 1)))
    for case in range(6):
        rng = SplitMix64.stream(4902, case)
        a, b, c = (sqrt_nonneg(_nonsquare(rng)) for _ in range(3))
        shapes.append(tetrahedron((0, 0, 0), (a, 0, 0), (0, b, 0), (0, 0, c)))
    hill = hill_tetrahedron()
    shapes.append(hill)
    decisive = 0
    for p in shapes:
        t = dehn_invariant(p)
        assert all(m is not None for _c, m, _s, _a in t.terms)  # block form
        block = is_zero(t)
        one = is_zero(_normalize(
            [(e.length, None, e.angle) for e in p.edges()], 20))
        assert block != "Unknown"
        if one != "Unknown":
            decisive += 1
            assert block == one
    assert decisive >= 3
    searched = _counting_searches(monkeypatch)
    t = dehn_invariant(hill)
    assert is_zero(t) == "Zero"
    assert searched == [2] and len(t.relations_used) == 1


# -- one form rule, on the terms left after the rational angles drop ----------

def _hull_h():
    """The hull of (0,0,0), (2,0,0), (0,3,0), (0,0,1), (1,1,1): its ℓ² and
    cos² are rational, and its invariant is NonzeroCertified."""
    from scissors.geom.convex import convex_polytope_3d

    return convex_polytope_3d([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1),
                               (1, 1, 1)])


def test_sums_do_not_depend_on_the_route():
    # D(P) + D(Q) as the sum of the two normalized tensors and as one
    # normalization of both polytopes' edges, for P among five rational
    # shapes and Q among their images scaled by ∛(3/8): the form is picked
    # on the terms that survive, so both routes give one tensor
    from scissors.geom.convex import regular_octahedron

    lam = make_algebraic([-3, 0, 0, 8], (0, 1))
    shapes = [unit_cube(), box((0, 0, 0), (1, 1, 2)), regular_tetrahedron(),
              regular_octahedron(), _hull_h()]
    scaled = [(q, dehn_invariant(q))
              for q in (scaled_simplices(p, lam) for p in shapes)]
    tags = set()
    for p in shapes:
        dp = dehn_invariant(p)
        for q, dq in scaled:
            added, summed = tensor_add(dp, dq), dehn_sum([(1, p), (1, q)])
            assert added.terms_json() == summed.terms_json()
            assert is_zero(added) == is_zero(summed)
            tags.add(is_zero(summed))
    assert {"Zero", "NonzeroCertified"} <= tags
    # H plus a scaled box: every edge of the box lies at π/2 and drops, so
    # H keeps its blocks and its certificate
    assert is_zero(dehn_sum([(1, _hull_h()), (1, scaled[1][0])])) == \
        is_zero(dehn_invariant(_hull_h())) == "NonzeroCertified"


def test_invariants_read_no_cos_or_sin(monkeypatch):
    # the rules of the normal form read cos² and the sign of cos alone: no
    # cos or sin is built for Hill's tetrahedron (a relation is searched
    # and checked) or for (0,0,0), (1,0,0), (0,1,0), (0,0,1+√2) (angles of
    # irrational cos²)
    from oracles import hill_tetrahedron
    from scissors.geom.convex import tetrahedron

    reads = []
    for name in ("cos", "sin"):
        read = getattr(AnglePair, name).fget
        monkeypatch.setattr(AnglePair, name, property(
            lambda pair, read=read, name=name:
            reads.append(name) or read(pair)))
    r2 = make_algebraic([-2, 0, 1], (1, 2))
    shapes = (hill_tetrahedron(),
              tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1 + r2)))
    assert [is_zero(dehn_invariant(p)) for p in shapes] == ["Zero", "Unknown"]
    assert reads == []
