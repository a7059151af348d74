"""Named verification suites behind `scissors verify`.

Each suite is a function (seed, cases) -> list of case dicts with a "pass"
flag and enough of the generating data to reproduce a failure.  All
randomness comes from SplitMix64 streams keyed by (seed, case index), so a
(seed, case) pair pins the case bit-for-bit.
"""

from fractions import Fraction

from .errors import UnknownSuite
from .rng import SplitMix64

# Each suite imports the layers it checks when it runs, so that importing
# this module for the registry (the CLI's parser lists the `verify` choices
# for every command) loads none of them.
SUITES = {}


def suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn
    return wrap


def run_suite(name: str, seed: int, cases: int):
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; "
                           f"known: {', '.join(sorted(SUITES))}")
    results = SUITES[name](seed, cases)
    return {
        "suite": name,
        "seed": seed,
        "cases": len(results),
        "passed": sum(1 for r in results if r["pass"]),
        "all_pass": all(r["pass"] for r in results),
        "results": results,
        "failures": [r for r in results if not r["pass"]],
    }


# -- geometry generators -----------------------------------------------------------

def random_box_corners(rng):
    lo = [rng.fraction(6, 2) for _ in range(3)]
    size = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3)]
    hi = [a + b for a, b in zip(lo, size)]
    return [tuple(hi[i] if (mask >> i) & 1 else lo[i] for i in range(3))
            for mask in range(8)]


def random_tet_corners(rng):
    from .homology.simplicial import affine_span_dim

    while True:
        pts = [tuple(rng.fraction(6, 2) for _ in range(3)) for _ in range(4)]
        if affine_span_dim(pts) == 3:
            return pts


def random_cutting_plane(rng, corners):
    """Integer functional passing strictly through the hull interior."""
    n = len(corners)
    centroid = tuple(sum(p[i] for p in corners) / n for i in range(3))
    while True:
        normal = [rng.randint(-3, 3) for _ in range(3)]
        if all(v == 0 for v in normal):
            continue
        # offset so the plane goes through a point near the centroid
        jitter = [centroid[i] + Fraction(rng.randint(-1, 1),
                                         rng.randint(2, 5))
                  for i in range(3)]
        offset = sum(Fraction(normal[i]) * jitter[i] for i in range(3))
        func = (normal[0] * offset.denominator,
                normal[1] * offset.denominator,
                normal[2] * offset.denominator,
                -offset.numerator)
        vals = [sum(func[i] * p[i] for i in range(3)) + func[3]
                for p in corners]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            return func


@suite("dissection")
def dissection_suite(seed: int, cases: int):
    from .dehn import dehn_sum, is_zero
    from .geom.convex import convex_polytope_3d, split_convex_points_3d
    from .geom.refine import verify_dissection

    out = []
    for case in range(cases):
        rng = SplitMix64.stream(seed, case)
        use_box = case % 2 == 0
        corners = random_box_corners(rng) if use_box \
            else random_tet_corners(rng)
        func = random_cutting_plane(rng, corners)
        a_pts, b_pts = split_convex_points_3d(corners, func)
        whole = convex_polytope_3d(corners, name="whole")
        part_a = convex_polytope_3d(a_pts, name="A")
        part_b = convex_polytope_3d(b_pts, name="B")
        ok_dissect = verify_dissection(whole, [part_a, part_b])
        diff = dehn_sum([(1, whole), (-1, part_a), (-1, part_b)])
        ok_additive = is_zero(diff) == "Zero"
        out.append({
            "case": case,
            "shape": "box" if use_box else "tet",
            "plane": list(func),
            "pass": ok_dissect and ok_additive,
            "dissection_ok": ok_dissect,
            "dehn_additive": ok_additive,
        })
    return out


@suite("phi-boundary")
def phi_boundary_suite(seed: int, cases: int):
    from .geom.refine import phi_boundary_check

    out = []
    for case in range(cases):
        rng = SplitMix64.stream(seed, case)
        dim = 2 if case % 2 == 0 else 3
        pts = [tuple(rng.fraction(8, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        ok = phi_boundary_check(pts, dim)
        out.append({"case": case, "dim": dim,
                    "points": [[str(c) for c in p] for p in pts],
                    "pass": ok})
    return out


@suite("sd-homotopy")
def sd_homotopy_suite(seed: int, cases: int):
    from .geom import SimplexChain, boundary, simplex
    from .homology.simplicial import (
        affine_span_dim,
        sd_power,
        subdivision_homotopy,
    )

    out = []
    for case in range(cases):
        rng = SplitMix64.stream(seed, case)
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
        ok = (lhs - rhs).is_zero()
        out.append({"case": case, "dim": dim, "rounds": rounds, "pass": ok})
    return out


@suite("flag-nullhomotopy")
def flag_suite(seed: int, cases: int):
    from .homology.flags import flag_double_complex, verify_flag_nullhomotopy

    out = []
    for case in range(cases):
        rng = SplitMix64.stream(seed, case)
        dim = 2 if case % 2 == 0 else 3
        npts = rng.randint(3, 4 if dim == 2 else 5)
        pts = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
               for _ in range(npts)]
        fc = flag_double_complex(pts, dim, dim - 1, 1)
        ok = verify_flag_nullhomotopy(fc)
        out.append({"case": case, "dim": dim, "n_points": npts, "pass": ok})
    return out


@suite("bar-shapiro")
def bar_shapiro_suite(seed: int, cases: int):
    from .homology.groups import (
        cyclic_group,
        cyclic_homology_oracle,
        group_homology,
        restricted_group,
        shapiro_check,
        symmetric_group_3,
        trivial_module,
    )

    out = []
    for m in (2, 3, 4):
        G = cyclic_group(m)
        hs = group_homology(G, trivial_module(G), 3)
        ok = all(h.betti == cyclic_homology_oracle(m, k).betti
                 and h.torsion == cyclic_homology_oracle(m, k).torsion
                 for k, h in enumerate(hs))
        out.append({"case": f"H_*(Z/{m})", "pass": ok,
                    "values": [str(h) for h in hs]})
    G = cyclic_group(4)
    ok = shapiro_check(G, [0, 2], trivial_module(restricted_group(G, [0, 2])),
                       3)
    out.append({"case": "shapiro Z/4 over Z/2", "pass": ok})
    S3 = symmetric_group_3()
    ok = shapiro_check(S3, [0, 1, 2],
                       trivial_module(restricted_group(S3, [0, 1, 2])), 2)
    out.append({"case": "shapiro S3 over Z/3", "pass": ok})
    G3 = cyclic_group(3)
    ok = shapiro_check(G3, [0, 1, 2],
                       trivial_module(restricted_group(G3, [0, 1, 2])), 2)
    out.append({"case": "shapiro H = G tautology", "pass": ok})
    return out


@suite("torus")
def torus_suite(seed: int, cases: int):
    from math import comb

    from .homology.simplicial import torus_homology

    out = []
    for n in (1, 2, 3):
        hs = torus_homology(n)
        ok = all(h.betti == comb(n, k) and h.torsion == ()
                 for k, h in enumerate(hs))
        out.append({"case": f"torus n={n}", "pass": ok,
                    "betti": [h.betti for h in hs]})
    circle = [h.betti for h in torus_homology(1)]
    t2 = [h.betti for h in torus_homology(2)]
    conv = [sum(circle[i] * circle[k - i] for i in range(k + 1)
                if i < len(circle) and 0 <= k - i < len(circle))
            for k in range(3)]
    out.append({"case": "Künneth convolution spot check",
                "pass": t2 == conv})
    return out


@suite("hochschild")
def hochschild_suite(seed: int, cases: int):
    from .hochschild import (
        builtin_algebra,
        hochschild_homology,
        hochschild_homology_table,
        omega_basis,
    )

    out = []
    expected = {
        "Q": [1, 0, 0, 0],
        "QI": [2, 0, 0],
        "quat": [1, 0, 0],
        "mat2": [1, 0, 0],
    }
    for name, want in expected.items():
        A = builtin_algebra(name)
        got = hochschild_homology_table(A, len(want) - 1)
        out.append({"case": f"HH_*({name})", "pass": got == want,
                    "got": got, "want": want})
    got = hochschild_homology(builtin_algebra("mat4"), 0)
    out.append({"case": "HH_0(mat4)", "pass": got == 1, "got": got})
    # Ω_n dimension law: dim A · (dim A − 1)^n
    for name in ("Q", "QI", "quat", "mat2"):
        A = builtin_algebra(name)
        ok = all(len(omega_basis(A, n)) == A.dim * (A.dim - 1) ** n
                 for n in (1, 2) if A.dim ** (n + 1) <= 4096)
        out.append({"case": f"dim Ω_n({name}) law", "pass": ok})
    return out


def _random_omega_chain(A, n, rng):
    from .hochschild import HochschildChain, d_basis_chain, d_basis_tuples

    basis = d_basis_tuples(A.dim, n)
    chain = HochschildChain(A, n)
    for _ in range(4):
        t = basis[rng.randint(0, len(basis) - 1)]
        chain = chain + rng.randint(-3, 3) * d_basis_chain(A, t)
    return chain


@suite("tau")
def tau_suite(seed: int, cases: int):
    from .hochschild import builtin_algebra, hochschild_boundary
    from .hochschild.involution import (
        eigenspace_split,
        i2_equals_b2_minus,
        tau,
        tau_chain,
        tau_slotwise,
        tensor_square_basis,
        wedge_rank_of_minus,
    )

    H = builtin_algebra("quat")
    out = []
    rng = SplitMix64.stream(seed, 0)
    ok = True
    for _ in range(max(cases, 10)):
        n = rng.randint(2, 3)
        c = _random_omega_chain(H, n, rng)
        if tau(n, tau(n, c)) != c:
            ok = False
    out.append({"case": "τ² = id on random chains", "pass": ok})
    ok = True
    for _ in range(max(cases, 10)):
        n = rng.randint(2, 3)
        c = _random_omega_chain(H, n, rng)
        lhs = hochschild_boundary(n, tau_chain(n, c), check=False)
        rhs = tau_chain(n - 1, hochschild_boundary(n, c, check=False))
        if lhs != rhs:
            ok = False
    out.append({"case": "τb = bτ on Ω_n", "pass": ok})
    plus, minus = eigenspace_split(tensor_square_basis(H), tau_slotwise)
    out.append({"case": "(H⊗H)⁻ slotwise dim 6",
                "pass": len(minus) == 6 and len(plus) == 10})
    out.append({"case": "minus eigenbasis ↦ ⋀² rank 6",
                "pass": wedge_rank_of_minus(H) == 6})
    out.append({"case": "I₂(H)⁻ = B₂(H)⁻", "pass": i2_equals_b2_minus(H)})
    return out


@suite("spin")
def spin_suite(seed: int, cases: int):
    from .hochschild import (
        builtin_algebra,
        hochschild_boundary,
        in_omega,
        pure_tensor,
    )
    from .hochschild.involution import spin_action, unit_quaternion

    H = builtin_algebra("quat")
    out = []
    one = unit_quaternion(H, (1, 0, 0, 0))
    rng = SplitMix64.stream(seed, 1)
    c = _random_omega_chain(H, 2, rng)
    out.append({"case": "(1,1) acts as identity",
                "pass": spin_action(one, one, 2, c) == c})
    qi = unit_quaternion(H, (0, 1, 0, 0))
    pinned = spin_action(qi, one, 1, pure_tensor(H, 0, 2))
    out.append({"case": "pinned value (i,1)·(1⊗j) = i⊗k",
                "pass": pinned.coeffs == {(1, 3): Fraction(1)}})
    q35 = unit_quaternion(H, (Fraction(3, 5), Fraction(4, 5), 0, 0))
    ok = True
    for _ in range(max(cases, 10)):
        c = _random_omega_chain(H, 2, rng)
        sc = spin_action(q35, one, 2, c)
        if not in_omega(sc):
            ok = False
            break
        lhs = hochschild_boundary(2, sc, check=False)
        rhs = spin_action(q35, one, 1,
                          hochschild_boundary(2, c, check=False))
        if lhs != rhs:
            ok = False
            break
    out.append({"case": "σ preserves Ω and commutes with b (q=3/5+4/5i)",
                "pass": ok})
    return out


@suite("hkr")
def hkr_suite(seed: int, cases: int):
    from .kahler import hkr_degree1_check

    corpus = [
        (["x"], ["x^2"]),
        (["x"], ["x^3"]),
        (["x"], ["x^2 - 2"]),
        (["x"], ["x^2 + 1"]),
        (["x"], ["x^4"]),
        (["x"], ["x^2 - x"]),
        (["x", "y"], ["x^2", "x*y", "y^2"]),
    ]
    out = []
    for gens, rels in corpus:
        ok = hkr_degree1_check(gens, rels)
        out.append({"case": f"Q[{','.join(gens)}]/({', '.join(rels)})",
                    "pass": ok})
    return out


@suite("ses-audit")
def ses_audit_suite(seed: int, cases: int):
    from .hochschild import builtin_algebra
    from .hochschild.involution import ses_audit

    H = builtin_algebra("quat")
    report = ses_audit(H)
    checks = {
        "minus_dim = 6": report["minus_dim"] == 6,
        "kernel = I₁⁻": report["kernel_equals_i1_minus"],
        "image is the antidiagonal": report["image_in_antidiagonal"]
        and report["image_dim"] == 3,
        "right-exactness over Q fails (reported, not asserted)":
            not report["right_exact_over_Q"],
    }
    out = [{"case": k, "pass": v} for k, v in checks.items()]
    out.append({"case": "raw dims", "pass": True, "report": report})
    return out
