"""The benchmark's four workloads: their items, made from the run's seed.

Every workload runs the items of one of the repository's acceptance runs,
at the acceptance seeds.  In the in-process workloads the run's seed, with
the pass number, shuffles the order of the items of each pass; in `cli` it
draws the rigid motion that places each stock shape (a signed permutation
of the axes, a 3-4-5 rotation in a coordinate plane, a rational
translation).  So each seed gives other inputs but the same work, and what
an item must return does not depend on the seed.

The cases are not redrawn per seed on purpose.  The box cases of the
dissection suite take from 0.2 s to 35 s, so a 20-second run of fresh cases
would measure the draw, not the code; and moving a dissection case changes
its work too (the hull triangulation follows the order of the coordinates,
and a permuted box gave up to 2.4 times the refinement pieces, a translated
one 1.4 times the time).

An item has an id, a `run()` that does the timed work and returns a raw
result, a `finish(raw)` that turns it into a JSON outcome outside the timed
region, and `expect`: dotted paths into the outcome and the values they must
hold.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from scissors import dehn, geom, suites
from scissors.geom import convex, refine
from scissors.homology import flags, simplicial
from scissors.io import polytope_to_json
from scissors.numbers import format_number, parse_number
from scissors.rng import SplitMix64

DISSECTION_SEED = 303
DISSECTION_CASES = range(1, 7)
PHI_SEED = 404
PHI_CASES = 200
SD_SEED = 505
SD_CASES = 18
FLAG_SEED = 506
FLAG_CASES = 10
FLAG_BATTERY = [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)],  # collinear
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],  # coplanar
]
CLI_ITEM_TIMEOUT_S = 60


class Item:
    def __init__(self, item_id, run, finish, expect):
        self.id = item_id
        self.run = run
        self.finish = finish
        self.expect = expect


def _rng(workload, seed, pass_no):
    # str seeds hash with SHA-512, so this does not follow PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{pass_no}")


# -- in-process workloads ----------------------------------------------------------

def dissection_items(seed, pass_no):
    rng = _rng("dissection", seed, pass_no)
    items = []
    for case in DISSECTION_CASES:
        gen = SplitMix64.stream(DISSECTION_SEED, case)
        is_box = case % 2 == 0
        corners = (suites.random_box_corners(gen) if is_box
                   else suites.random_tet_corners(gen))
        func = suites.random_cutting_plane(gen, corners)
        items.append(Item(
            f"case-{case}", _dissection_run(corners, func),
            _dissection_finish("box" if is_box else "tet"),
            {"dissection_ok": True, "dehn_additive": True}))
    rng.shuffle(items)
    return items


def _dissection_run(corners, func):
    def run():
        a_pts, b_pts = convex.split_convex_points_3d(corners, func)
        whole = convex.convex_polytope_3d(corners, name="whole")
        part_a = convex.convex_polytope_3d(a_pts, name="A")
        part_b = convex.convex_polytope_3d(b_pts, name="B")
        ok_dissect = refine.verify_dissection(whole, [part_a, part_b])
        d_whole = dehn.dehn_invariant(whole)
        diff = dehn.tensor_add(
            d_whole,
            dehn.tensor_neg(dehn.tensor_add(dehn.dehn_invariant(part_a),
                                            dehn.dehn_invariant(part_b))))
        return ok_dissect, dehn.is_zero(diff) == "Zero", d_whole
    return run


def _dissection_finish(shape):
    def finish(raw):
        ok_dissect, ok_additive, d_whole = raw
        return {"shape": shape, "dissection_ok": ok_dissect,
                "dehn_additive": ok_additive,
                "whole_dehn": d_whole.to_json()}
    return finish


def phi_boundary_items(seed, pass_no):
    rng = _rng("phi_boundary", seed, pass_no)
    items = []
    for case in range(PHI_CASES):
        gen = SplitMix64.stream(PHI_SEED, case)
        dim = 2 if case % 2 == 0 else 3
        pts = [tuple(gen.fraction(8, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        items.append(Item(f"case-{case}", _phi_run(pts, dim),
                          _phi_finish(dim), {"pass": True}))
    rng.shuffle(items)
    return items


def _phi_run(pts, dim):
    return lambda: refine.phi_boundary_check(pts, dim)


def _phi_finish(dim):
    return lambda ok: {"dim": dim, "pass": ok}


def chains_items(seed, pass_no):
    rng = _rng("chains", seed, pass_no)
    items = []
    for case in range(SD_CASES):
        gen = SplitMix64.stream(SD_SEED, case)
        dim = (case % 3) + 1
        rounds = (case % 2) + 1
        while True:
            verts = [tuple(gen.fraction(6, 2) for _ in range(dim))
                     for _ in range(dim + 1)]
            if simplicial.affine_span_dim(verts) == dim:
                break
        items.append(Item(f"sd-{case}", _sd_run(verts, dim, rounds),
                          _sd_finish(dim, rounds), {"pass": True}))
    battery = [[tuple(Fraction(c) for c in p) for p in pts]
               for pts in FLAG_BATTERY]
    drawn = []
    for case in range(FLAG_CASES):
        gen = SplitMix64.stream(FLAG_SEED, case)
        npts = gen.randint(3, 5)
        drawn.append([tuple(Fraction(gen.randint(-3, 3)) for _ in range(3))
                      for _ in range(npts)])
    # one item per flag set: a single configuration takes 2-16 ms and would
    # put the median on the edge between the cheap and the costly sd cases
    items.append(Item("flag-battery", _flag_run(battery),
                      _flag_finish(battery), {"pass": True}))
    items.append(Item(f"flag-{FLAG_SEED}", _flag_run(drawn),
                      _flag_finish(drawn), {"pass": True}))
    rng.shuffle(items)
    return items


def _sd_run(verts, dim, rounds):
    def run():
        ch = geom.SimplexChain(dim, [(1, geom.simplex(dim, *verts))])
        lhs = geom.boundary(simplicial.subdivision_homotopy(ch, rounds)) + \
            simplicial.subdivision_homotopy(geom.boundary(ch), rounds)
        rhs = simplicial.sd_power(ch, rounds) - ch
        return (lhs - rhs).is_zero(), len(rhs)
    return run


def _sd_finish(dim, rounds):
    def finish(raw):
        ok, terms = raw
        return {"dim": dim, "rounds": rounds, "pass": ok, "terms": terms}
    return finish


def _flag_run(configs):
    def run():
        return all(flags.verify_flag_nullhomotopy(
            flags.flag_double_complex(pts, 3, 2, 1)) for pts in configs)
    return run


def _flag_finish(configs):
    return lambda ok: {"n_points": [len(pts) for pts in configs], "pass": ok}


# -- cli: one `scissors` process per item, closed loop with one client ------------

TOWER = "t; s: s^2 = 1 - t^2"


def _stock_shapes():
    from scissors.algebraic import make_algebraic
    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))  # (3/8)^(1/3)
    return {
        "cube": convex.unit_cube(),
        "tetra": convex.regular_tetrahedron(),
        "tetra_vol1": convex.scaled_simplices(convex.regular_tetrahedron(),
                                              vol1),
        "octa": convex.regular_octahedron(),
        "box112": convex.box((0, 0, 0), (1, 1, 2)),
    }


def _rigid_motion(rng):
    """Signed permutation, then a 3-4-5 rotation in a coordinate plane,
    then a small rational translation: (matrix rows, shift)."""
    perm = rng.sample(range(3), 3)
    m = [[0] * 3 for _ in range(3)]
    for i in range(3):
        m[i][perm[i]] = rng.choice((-1, 1))
    a, b = rng.sample(range(3), 2)
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    rows = [[sum(rot[i][k] * m[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    shift = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             for _ in range(3)]
    return rows, shift


def cli_items(seed, pass_no, work_dir):
    """Writes the placed shapes into `work_dir` and returns the items."""
    rng = _rng("cli", seed, pass_no)
    os.makedirs(work_dir, exist_ok=True)
    shapes = _stock_shapes()
    shapes["cube_b"] = shapes["cube"]
    for name, poly in shapes.items():
        rows, shift = _rigid_motion(rng)
        placed = convex.transformed(poly, rows, shift)
        with open(os.path.join(work_dir, name + ".json"), "w") as fh:
            json.dump(polytope_to_json(placed), fh)
    with open(os.path.join(work_dir, "t.json"), "w") as fh:
        json.dump({"terms": [{"length": "rat:1/1", "cos": "t", "sin": "s"}]},
                  fh)

    def f(name):
        return os.path.join(work_dir, name)

    saved = f("report_dehn.json")
    volumes = {"cube": "rat:1/1", "tetra": "rat:8/3", "tetra_vol1": "rat:1/1",
               "octa": "rat:4/3", "box112": "rat:2/1"}
    zero = {"cube", "box112"}
    specs = []
    for name, vol in volumes.items():
        specs.append((f"info-{name}", ["polytope-info", f(name + ".json")],
                      {"results.volume": vol,
                       "results.dehn_verdict": "Zero" if name in zero
                       else "NonzeroCertified"}, None))
    specs += [
        ("info-box112-strict",
         ["polytope-info", "--exact-strict", f("box112.json")],
         {"results.volume": "rat:2/1", "results.dehn_verdict": "Zero"},
         None),
        ("compare-volume", ["compare", f("cube.json"), f("box112.json")],
         {"results.verdict.tag": "NotCongruent_Volume"}, None),
        ("compare-dehn", ["compare", f("cube.json"), f("tetra_vol1.json")],
         {"results.verdict.tag": "NotCongruent_Dehn"}, saved),
        ("compare-dsj", ["compare", f("cube.json"), f("cube_b.json")],
         {"results.verdict.tag": "Congruent_DSJ"}, None),
        ("compare-recheck",
         ["compare", "--recheck", f("tetra_vol1.json"), f("cube.json")],
         {"results.verdict.tag": "NotCongruent_Dehn",
          "recheck.recheck_passed": True}, None),
        ("recheck", ["recheck", saved],
         {"results.recheck_passed": True}, None),
        ("homology-Z4", ["homology", "--group", "Z/4"],
         {"results.homology": ["Z", "Z/4", "0", "Z/4"]}, None),
        ("homology-S3", ["homology", "--group", "S3"],
         {"results.homology": ["Z", "Z/2", "0", "Z/6"]}, None),
        ("hochschild-quat", ["hochschild", "--algebra", "quat"],
         {"results.hh_dimensions": [1, 0, 0]}, None),
        ("hochschild-mat2", ["hochschild", "--algebra", "mat2"],
         {"results.hh_dimensions": [1, 0, 0]}, None),
        ("phi", ["phi", "--tensor", f("t.json"), "--tower", TOWER],
         {"results.rendered": "(-s/(t**2 - 1))*dt"}, None),
    ]
    return [Item(item_id, _cli_run(argv, save), _cli_finish(work_dir),
                 {"exit": 0, **expect})
            for item_id, argv, expect, save in specs]


# argv prefix that starts one `scissors` process; traced runs swap in
# perfbench/cli_traced.py
CLI_PREFIX = [sys.executable, "-m", "scissors.cli"]


def _cli_run(argv, save):
    def run():
        proc = subprocess.run(CLI_PREFIX + argv, capture_output=True,
                              text=True, timeout=CLI_ITEM_TIMEOUT_S)
        if save is not None and proc.returncode == 0:
            with open(save, "w") as fh:
                fh.write(proc.stdout)
        return proc
    return run


def _cli_finish(work_dir):
    def finish(proc):
        out = {"exit": proc.returncode}
        if proc.returncode != 0:
            out["stderr"] = proc.stderr.strip().splitlines()[-1:]
            return out
        report = json.loads(proc.stdout)
        for key in ("inputs_digest", "digest", "timing_ms"):
            report.pop(key, None)
        # placement-dependent: vertex coordinates, the order of the edges,
        # isolating intervals, and the work directory
        results = report.get("results", {})
        for edge in results.get("edges", []):
            edge.pop("endpoints", None)
        if "edges" in results:
            results["edges"].sort(key=lambda e: json.dumps(e, sort_keys=True))
        text = json.dumps(_canonical(report), sort_keys=True)
        out.update(json.loads(text.replace(work_dir, "<work>")))
        return out
    return finish


def _canonical(value):
    """Algebraic literals as (minimal polynomial, index of the real root)."""
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if not isinstance(value, dict):
        return value
    if set(value) == {"minpoly", "lo", "hi"}:
        x = parse_number(value)
        if isinstance(x, Fraction):
            return format_number(x)
        return {"minpoly": [str(c) for c in x.minpoly()],
                "root_index": x.root_index()}
    return {k: _canonical(v) for k, v in value.items()}


def items_for(workload, seed, pass_no, work_dir):
    if workload == "cli":
        return cli_items(seed, pass_no, work_dir)
    return {"dissection": dissection_items,
            "phi_boundary": phi_boundary_items,
            "chains": chains_items}[workload](seed, pass_no)


WORKLOADS = ("dissection", "phi_boundary", "chains", "cli")


def lookup(outcome, path):
    """The value at a dotted path, or None where there is none."""
    for part in path.split("."):
        if not isinstance(outcome, dict):
            return None
        outcome = outcome.get(part)
    return outcome


def mismatches(outcome, expect):
    """[(path, wanted, got)] for every expectation the outcome breaks."""
    return [(path, want, lookup(outcome, path))
            for path, want in expect.items() if lookup(outcome, path) != want]
