"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every check is exact (integer/rational/algebraic identities);
the only tolerances are wall-clock budgets, asserted with the limits below.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from scissors.algebraic import make_algebraic, scalar_sign
from scissors.dehn import compare_polytopes, dehn_invariant, is_zero
from scissors.geom import boundary, prism, simplex, SimplexChain
from scissors.geom.convex import (
    convex_polygon_2d,
    regular_tetrahedron,
    scaled_simplices,
    unit_cube,
)
from scissors.homology.flags import flag_double_complex, verify_flag_nullhomotopy
from scissors.homology.groups import (
    cyclic_group,
    cyclic_homology_oracle,
    group_homology,
    restricted_group,
    shapiro_check,
    symmetric_group_3,
    trivial_module,
)
from scissors.homology.simplicial import (
    affine_span_dim,
    sd_power,
    subdivision_homotopy,
    torus_homology,
)
from scissors.hochschild import builtin_algebra, hochschild_homology, hochschild_homology_table
from scissors.kahler import FieldTower, KahlerElement, hkr_degree1_check, phi_map
from scissors.rng import SplitMix64
from scissors.suites import run_suite


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPT {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_hilbert_third_problem():
    t0 = time.monotonic()
    cube = unit_cube()
    s = make_algebraic([-3, 0, 0, 8], (0, 1))  # (3/8)^(1/3)
    tet = scaled_simplices(regular_tetrahedron(), s)
    assert scalar_sign(tet.volume() - 1) == 0
    verdict = compare_polytopes(cube, tet)
    elapsed = time.monotonic() - t0
    cert = next((c for c in verdict.certificates
                 if c["type"] == "nonzero-dehn"), {})
    ok = (verdict.tag == "NotCongruent_Dehn"
          and cert.get("two_cos_minpoly") == ["-2", "3"]
          and cert.get("monic") is False
          and elapsed < 5.0)
    report("01 Hilbert third problem", ok,
           f"{verdict.tag}, minpoly(2cosθ) = 3x−2, {elapsed:.2f}s < 5s")


def test_criterion_02_prism_kernel():
    t0 = time.monotonic()
    zeros = 0
    for case in range(25):
        rng = SplitMix64.stream(202, case)
        while True:
            k = rng.randint(3, 7)
            pts = [tuple(rng.fraction(8, 3) for _ in range(2))
                   for _ in range(k)]
            try:
                poly = convex_polygon_2d(pts)
                break
            except Exception:
                continue
        p = prism(poly, 1)
        if is_zero(dehn_invariant(p)) == "Zero":
            zeros += 1
    elapsed = time.monotonic() - t0
    ok = zeros == 25 and elapsed < 30.0
    report("02 prism kernel", ok, f"{zeros}/25 exactly zero, "
                                  f"{elapsed:.1f}s < 30s")


def test_criterion_03_dehn_additivity():
    outcome = run_suite("dissection", seed=303, cases=25)
    ok = outcome["all_pass"]
    report("03 Dehn additivity on plane splits", ok,
           f"{outcome['passed']}/25 dissection+additivity exact")


def test_criterion_04_phi_boundary():
    outcome = run_suite("phi-boundary", seed=404, cases=200)
    ok = outcome["all_pass"]
    report("04 φ(∂σ) = 0", ok, f"{outcome['passed']}/200 configurations")


def test_criterion_05_chain_homotopies():
    # 100 seeded simplices, rounds <= 2, dims <= 3
    failures = 0
    for case in range(100):
        rng = SplitMix64.stream(505, case)
        dim = (case % 3) + 1
        rounds = (case % 2) + 1
        while True:
            verts = [tuple(rng.fraction(6, 2) for _ in range(dim))
                     for _ in range(dim + 1)]
            if affine_span_dim(verts) == dim:
                break
        ch = SimplexChain(dim, [(1, simplex(dim, *verts))])
        lhs = boundary(subdivision_homotopy(ch, rounds)) + \
            subdivision_homotopy(boundary(ch), rounds)
        rhs = sd_power(ch, rounds) - ch
        if not (lhs - rhs).is_zero():
            failures += 1
    # flag null-homotopy on a battery of E³ configurations up to 5 points
    flag_ok = True
    batteries = [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],  # collinear
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],  # coplanar
    ]
    for pts in batteries:
        fc = flag_double_complex(
            [tuple(Fraction(c) for c in p) for p in pts], 3, 2, 1)
        if not verify_flag_nullhomotopy(fc):
            flag_ok = False
    for case in range(10):
        rng = SplitMix64.stream(506, case)
        npts = rng.randint(3, 5)
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
               for _ in range(npts)]
        fc = flag_double_complex(pts, 3, 2, 1)
        if not verify_flag_nullhomotopy(fc):
            flag_ok = False
    ok = failures == 0 and flag_ok
    report("05 chain homotopies", ok,
           f"{100 - failures}/100 sd-homotopy identities, "
           f"flag null-homotopy on all configurations")


def test_criterion_06_torus_betti():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        hs = torus_homology(n)
        for k, h in enumerate(hs):
            if h.betti != comb(n, k) or h.torsion != ():
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report("06 torus homology = exterior algebra", ok,
           f"betti C(n,k), no torsion, {elapsed:.1f}s < 60s")


def test_criterion_07_finite_group_homology():
    ok = True
    for m in (2, 3, 4):
        G = cyclic_group(m)
        hs = group_homology(G, trivial_module(G), 3)
        for k, h in enumerate(hs):
            oracle = cyclic_homology_oracle(m, k)
            if (h.betti, h.torsion) != (oracle.betti, oracle.torsion):
                ok = False
    G4 = cyclic_group(4)
    ok = ok and shapiro_check(
        G4, [0, 2], trivial_module(restricted_group(G4, [0, 2])), 3)
    S3 = symmetric_group_3()
    ok = ok and shapiro_check(
        S3, [0, 1, 2], trivial_module(restricted_group(S3, [0, 1, 2])), 2)
    report("07 finite group homology + Shapiro", ok,
           "Z/2, Z/3, Z/4 vs periodic resolution; (Z/4, Z/2), (S3, Z/3)")


def test_criterion_08_hochschild_tables():
    t0 = time.monotonic()
    ok = hochschild_homology_table(builtin_algebra("quat"), 2) == [1, 0, 0]
    ok = ok and hochschild_homology_table(builtin_algebra("Q"), 3) == \
        [1, 0, 0, 0]
    ok = ok and hochschild_homology(builtin_algebra("mat4"), 0) == 1
    ok = ok and hochschild_homology_table(builtin_algebra("mat2"), 2) == \
        [1, 0, 0]
    corpus = [
        (["x"], ["x^2"]), (["x"], ["x^3"]), (["x"], ["x^2 - 2"]),
        (["x"], ["x^2 + 1"]), (["x"], ["x^4"]),
        (["x", "y"], ["x^2", "x*y", "y^2"]),
    ]
    hkr_passes = sum(1 for g, r in corpus if hkr_degree1_check(g, r))
    elapsed = time.monotonic() - t0
    ok = ok and hkr_passes >= 5 and elapsed < 600.0
    report("08 Hochschild tables + HKR", ok,
           f"HH tables exact, {hkr_passes}/6 HKR, {elapsed:.1f}s < 600s")


def test_criterion_09_involution_suite():
    outcome_tau = run_suite("tau", seed=909, cases=15)
    outcome_spin = run_suite("spin", seed=910, cases=15)
    ok = outcome_tau["all_pass"] and outcome_spin["all_pass"]
    report("09 involution suite", ok,
           "τ²=id, τb=bτ, σb=bσ, I₂⁻=B₂⁻, wedge rank 6")


def test_criterion_10_phi_formula():
    T = FieldTower("t; s: s^2 = 1 - t^2")
    t, s = T.symbols["t"], T.symbols["s"]
    image = phi_map([(1, "t", "s")], T)
    want = KahlerElement(T, {t: T.reduce(1 / s)})
    euler = T.differential(t).scaled(t) + T.differential(s).scaled(s)
    ok = image == want and euler.is_zero()
    report("10 φ formula and Euler identity", ok,
           "φ(ℓ⊗θ) = (ℓ/s)dt; t·dt + s·ds = 0")


def test_criterion_11_cli_determinism(tmp_path):
    from scissors.io import polytope_to_json
    cube_path = tmp_path / "cube.json"
    cube_path.write_text(json.dumps(polytope_to_json(unit_cube())))

    def invoke(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "scissors.cli", *argv],
            capture_output=True, text=True)
        return json.loads(proc.stdout)

    digests = []
    for _ in range(2):
        r = invoke("verify", "phi-boundary", "--seed", "11", "--cases", "10")
        digests.append(r["digest"])
    for _ in range(2):
        r = invoke("polytope-info", str(cube_path))
        digests.append(r["digest"])
    ok = digests[0] == digests[1] and digests[2] == digests[3]
    report("11 CLI determinism", ok,
           f"verify digest {digests[0][:12]}…, info digest {digests[2][:12]}…")
