import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from scissors.algebraic import make_algebraic
from scissors.geom.convex import (
    box,
    regular_octahedron,
    regular_tetrahedron,
    scaled_simplices,
    tetrahedron,
    transformed,
    unit_cube,
)
from scissors.io import polytope_from_json, polytope_to_json
from scissors.numbers import format_number, parse_number
from scissors.report import (
    digest_of,
    make_report,
    recheck_certificates,
    strip_timing,
    verify_report_digest,
)
from oracles import right_triangle, tower_equal


# the environment of a process whose stdout is buffered, as it is unless
# PYTHONUNBUFFERED is set: a report left in the buffer at exit is lost
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "scissors.cli", *argv],
        capture_output=True, text=True, env=_BUFFERED)
    return proc


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cube = root / "cube.json"
    cube.write_text(json.dumps(polytope_to_json(unit_cube())))
    s = make_algebraic([-3, 0, 0, 8], (0, 1))
    tet = root / "tetra_vol1.json"
    tet.write_text(json.dumps(polytope_to_json(
        scaled_simplices(regular_tetrahedron(), s))))
    for name, shape in (("tetra", regular_tetrahedron()),
                        ("octa", regular_octahedron())):
        (root / f"{name}.json").write_text(json.dumps(polytope_to_json(shape)))
    tall = root / "box112.json"
    tall.write_text(json.dumps(polytope_to_json(
        box((0, 0, 0), (1, 1, 2)))))
    from scissors.geom import prism
    (root / "prism_tri.json").write_text(json.dumps(polytope_to_json(
        prism(right_triangle(1, 1), 1))))
    # (0,0,0), (√2,0,0), (0,√3,0), (0,0,1): literals of two quadratic fields
    zero, one = "rat:0/1", "rat:1/1"
    root2, root3 = ({"minpoly": [str(-c), "0", "1"], "lo": "1", "hi": "2"}
                    for c in (2, 3))
    (root / "tetra_sqrt23.json").write_text(json.dumps({
        "dim": 3, "vertices": [[zero, zero, zero], [root2, zero, zero],
                               [zero, root3, zero], [zero, zero, one]],
        "cells": [[0, 1, 2, 3]]}))
    rot = root / "cube_rot.json"
    from fractions import Fraction
    # two rational tetrahedra of volume 1/6 with different Dehn invariants
    for name, corners in (
            ("tetra_t1", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            ("tetra_t2", [(0, 0, 0), (2, 0, 0), (0, 1, 0),
                          (0, 0, Fraction(1, 2))])):
        (root / f"{name}.json").write_text(json.dumps(polytope_to_json(
            tetrahedron(*corners))))
    R = [(Fraction(3, 5), Fraction(-4, 5), 0),
         (Fraction(4, 5), Fraction(3, 5), 0), (0, 0, 1)]
    rot.write_text(json.dumps(polytope_to_json(
        transformed(unit_cube(), R, shift=(2, 1, 0)))))
    tensor = root / "t.json"
    tensor.write_text(json.dumps(
        {"terms": [{"length": "rat:1/1", "cos": "t", "sin": "s"}]}))
    return root


def _numbered_by_literals(p) -> dict:
    """polytope_to_json with vertices numbered by the JSON text of their
    formatted coordinates, in first-appearance order: the reference for
    the numbering by vertex id."""
    from scissors.numbers import format_number
    verts, index, cells = [], {}, []
    for _, s in p.chain:
        cell = []
        for v in s.vertices:
            key = json.dumps([format_number(c) for c in v], sort_keys=True)
            if key not in index:
                index[key] = len(verts)
                verts.append([format_number(c) for c in v])
            cell.append(index[key])
        cells.append(cell)
    out = {"dim": p.dim, "vertices": verts, "cells": cells}
    if p.name:
        out["name"] = p.name
    return out


def test_polytope_round_trip(fixtures):
    obj = json.loads((fixtures / "cube.json").read_text())
    p = polytope_from_json(obj)
    assert p.volume() == 1
    obj2 = polytope_to_json(p)
    p2 = polytope_from_json(obj2)
    assert p2.volume() == 1
    # each stock shape and a placed copy, read back: vertex ids number the
    # vertices as the literal-keyed reference does
    from scissors.geom import prism
    from oracles import regular_hexagon
    from scissors.rng import SplitMix64
    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    rng = SplitMix64.stream(909, 0)
    for shape in (unit_cube(), regular_tetrahedron(),
                  scaled_simplices(regular_tetrahedron(), vol1),
                  regular_octahedron(), box((0, 0, 0), (1, 1, 2)),
                  prism(regular_hexagon(1), 1)):
        for poly in (shape, transformed(shape, *_placement(rng))):
            back = polytope_from_json(polytope_to_json(poly))
            assert json.dumps(polytope_to_json(back)) == \
                json.dumps(_numbered_by_literals(back))


def test_cli_polytope_info_cube(fixtures):
    proc = run_cli("polytope-info", str(fixtures / "cube.json"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["volume"] == "rat:1/1"
    assert report["results"]["dehn_verdict"] == "Zero"
    assert verify_report_digest(report)


def test_cli_reflected_cube_is_silent(fixtures, tmp_path):
    # every cell of the reflected cube is negatively ordered and gets
    # reordered; a run that succeeds writes nothing to stderr
    text = (fixtures / "cube.json").read_text().replace("rat:1/1", "rat:-1/1")
    path = tmp_path / "cube_reflected.json"
    path.write_text(text)
    proc = run_cli("polytope-info", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["volume"] == "rat:1/1"
    assert proc.stderr == ""


def test_cli_polytope_info_tetra(fixtures):
    proc = run_cli("polytope-info", str(fixtures / "tetra_vol1.json"))
    report = json.loads(proc.stdout)
    assert report["results"]["dehn_verdict"] == "NonzeroCertified"
    certs = {c["type"] for c in report["certificates"]}
    assert "nonzero-dehn" in certs


def test_cli_compare_hilbert(fixtures):
    proc = run_cli("compare", str(fixtures / "cube.json"),
                   str(fixtures / "tetra_vol1.json"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["verdict"]["tag"] == "NotCongruent_Dehn"
    recheck = recheck_certificates(report)
    assert recheck["recheck_passed"]


def test_cli_compare_rotated(fixtures):
    proc = run_cli("compare", str(fixtures / "cube.json"),
                   str(fixtures / "cube_rot.json"))
    report = json.loads(proc.stdout)
    assert report["results"]["verdict"]["tag"] == "Congruent_DSJ"


def test_cli_compare_volume(fixtures):
    proc = run_cli("compare", str(fixtures / "box112.json"),
                   str(fixtures / "cube.json"))
    report = json.loads(proc.stdout)
    assert report["results"]["verdict"]["tag"] == "NotCongruent_Volume"
    recheck = recheck_certificates(report)
    assert recheck["recheck_passed"]


def test_cli_determinism(fixtures):
    a = run_cli("verify", "sd-homotopy", "--seed", "3", "--cases", "6")
    b = run_cli("verify", "sd-homotopy", "--seed", "3", "--cases", "6")
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["digest"] == rb["digest"]
    ra.pop("timing_ms")
    rb.pop("timing_ms")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_cli_exit_codes(fixtures):
    assert run_cli("polytope-info", "/nonexistent.json").returncode == 2
    assert run_cli("hochschild", "--algebra", "mat4",
                   "--max-degree", "3").returncode == 4
    # mat4 has dimension 16: its cap is degree 1, below the default 2
    proc = run_cli("hochschild", "--algebra", "mat4")
    assert proc.returncode == 4
    assert proc.stderr.strip().splitlines() == [
        "resource cap: max degree for mat4 is 1"]
    bad = fixtures / "bad.json"
    bad.write_text(json.dumps({
        "dim": 3,
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                     ["rat:1/4", "rat:1/4", "rat:1/4"]],
        "cells": [[0, 1, 2, 3], [0, 1, 2, 4]],
    }))
    assert run_cli("polytope-info", str(bad)).returncode == 3


TOWER = "t; s: s^2 = 1 - t^2"
TET = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


# well-formed reports whose algebraic literals are not: an interval that
# holds two roots of the minimal polynomial, or none
BAD_LITERAL_REPORTS = [
    {"certificates": [{
        "type": "nonzero-dehn", "two_cos_minpoly": ["-2", "3"],
        "angle": {"cos": "rat:1/3", "sin": {"minpoly": ["-8", "0", "9"],
                                            "lo": "11/12", "hi": "23/24"}},
        "length": {"minpoly": ["-3359232", "0", "0", "0", "0", "0", "1"],
                   "lo": "-20", "hi": "20"}}], "digest": "x"},
    {"certificates": [{
        "type": "nonzero-dehn", "two_cos_minpoly": ["-2", "3"],
        "angle": {"cos": "rat:1/3", "sin": {"minpoly": ["-8", "0", "9"],
                                            "lo": "11/12", "hi": "23/24"}},
        "length": {"minpoly": ["-2", "0", "1"], "lo": "2", "hi": "3"}}],
     "digest": "x"},
    {"certificates": [{
        "type": "volume-mismatch", "volume_a": "rat:1/1",
        "volume_b": {"minpoly": ["-2", "0", "1"], "lo": "-2", "hi": "2"}}],
     "digest": "x"},
    # literals read as an angle: a bad one is bad input, not a failed check
    {"certificates": [{
        "type": "nonzero-dehn", "two_cos_minpoly": ["-2", "3"],
        "angle": {"cos": "rat:1/3", "sin": {"minpoly": ["-8", "0", "9"],
                                            "lo": "-1", "hi": "1"}},
        "length": "rat:1/1"}], "digest": "x"},
    {"certificates": [{
        "type": "rational-angles", "dropped": [
            {"cos": {"minpoly": ["-1", "0", "3"], "lo": "-1", "hi": "1"},
             "q": "rat:1/2"}]}], "digest": "x"},
]


@pytest.mark.parametrize("argv", [
    ("homology", "--group", "Z/0"),
    ("homology", "--group", "Z/-3"),
    ("homology", "--group", "Z/2", "--max-degree", "-1"),
    ("hochschild", "--algebra", "Q", "--max-degree", "-1"),
    ("verify", "torus", "--cases", "-3"),
    ("verify", "flag-nullhomotopy", "--cases", "1001"),
    ("verify", "flag-nullhomotopy", "--cases", "100000000"),
    # non-string arguments are written to a JSON file passed by path
    ("phi", "--tensor", {"terms": 5}, "--tower", TOWER),
    ("phi", "--tensor", {"terms": [5]}, "--tower", TOWER),
    ("phi", "--tensor", {"terms": [{}]}, "--tower", TOWER),
    ("phi", "--tensor", {"terms": [{"cos": "t", "length": [1]}]},
     "--tower", TOWER),
    ("recheck", [{"certificates": []}]),
    # reports whose certificates lack a field or have one of the wrong type
    *(("recheck", {"certificates": certificates, "digest": "x"})
      for certificates in (
          [{"type": "nonzero-dehn"}],
          {"type": "volume-mismatch"},
          [{"type": "angle-relations", "relations": [{"coefficients": [1]}]}],
          [{"type": "angle-relations", "relations": [
              {"witness": {"angles": [{"cos": "rat:0/1", "sin": "rat:1/1"}]},
               "coefficients": ["2"]}]}],
          [{"type": "rational-angles", "dropped": [{"cos": "rat:1/2"}]}])),
    *(("recheck", report) for report in BAD_LITERAL_REPORTS),
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[5, 0, 1]]}}),
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[0, 1, 1]]}}),
    ("homology", "--complex", {"ranks": {"0": -1}}),
    ("homology", "--complex", {"ranks": {"0": "1"}}),
    ("homology", "--complex", {"ranks": {"1_0": 1}}),
    ("homology", "--complex", {"ranks": {" 0 ": 1}}),
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[1, 0, "2"]]}}),
    ("homology", "--complex", {"ranks": {"0": True}}),
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[1, 0, 2.5]]}}),
    ("polytope-info", {"dim": 3.9, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("polytope-info", {"dim": "3", "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("polytope-info", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, "3"]]}),
    ("polytope-info", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3.9]]}),
    ("polytope-info", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, True]]}),
    ("polytope-info", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 4]]}),
    ("polytope-info", {"dim": 4, "vertices": TET, "cells": []}),
    ("polytope-info", {"dim": 3, "vertices": TET[:3] + [[0, 0, True]],
                       "cells": [[0, 1, 2, 3]]}),
    # a vertex with too few coordinates, a name that is no string, and a
    # top level that is no object
    ("polytope-info", {"dim": 3, "vertices": TET[:3] + [[0, 0]],
                       "cells": [[0, 1, 2, 3]]}),
    ("polytope-info", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]],
                       "name": 5}),
    ("polytope-info", [{"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}]),
    ("homology", "--group", "Z/2", "--module",
     {"rank": 1, "action": {"0": [[1]], "1": [[1.5]]}}),
    ("homology", "--group", "Z/2", "--module",
     {"rank": 1, "action": {"0": [[1]], "1": [[2]]}}),
    ("homology", "--group", "Z/2", "--module",
     {"rank": 2, "action": {"0": [[1]], "1": [[1]]}}),
    ("homology", "--group", "Z/2", "--module",
     {"rank": "1", "action": {"0": [[1]], "1": [[1]]}}),
    ("homology", "--group", {"table": [[0, True], [True, 0]]}),
    ("homology", "--group", {"table": [[0, 1, 2], [1, 0, 3], [2, 3, 0]]}),
    ("phi", "--tensor", {"terms": [{"cos": "t", "sin": "s"}]},
     "--tower", "t; s: s^2 = (("),
    ("phi", "--tensor", {"terms": [{"cos": "((", "sin": "s"}]},
     "--tower", TOWER),
    # the tower is exact: no decimals, constants, functions, non-integer
    # exponents or undeclared names, and no division by zero
    *(("phi", "--tensor", {"terms": [{"length": entry, "cos": "t",
                                      "sin": "s"}]}, "--tower", TOWER)
      for entry in ("0.1", "pi", "sqrt(t)", "t^(1/2)", "x", "1/(s^2+t^2-1)")),
    # nor bad generator names; the term contributes 0, so the tower alone
    # decides
    *(("phi", "--tensor", {"terms": [{"cos": "1/3"}]}, "--tower", tower)
      for tower in ("t; s: s^2 = 1/0", "t; s: s^2 = x", "t; t: t^2 = 2",
                    "1; s: s^2 = 3", "t; s: s^2 = 1 - 0.5*t^2",
                    "t; s: s^3 = t^3")),
    ("polytope-info", "--height-bound", "0",
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("polytope-info", "--height-bound", "-1",
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("compare", "--height-bound", "0",
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]},
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("compare", "--height-bound", "-1",
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]},
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    ("compare", "--height-bound", "10001",
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]},
     {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    # two algebraic generators not shown to give a field: b − 2a and b + 2a
    # multiply to 0, and a degree-4 generator over a quadratic one
    *(("phi", "--tensor", {"terms": [{"cos": "1/3"}]}, "--tower", tower)
      for tower in ("t; a: a^2 = 2; b: b^2 = 8", "t; a: a^2 = 2; c: c^4 = t")),
    # argparse errors: a flag out of range, a bad choice, a missing argument
    ("verify", "dissection", "--cases", "0"),
    ("--format", "xml", "verify", "dissection"),
    ("compare", {"dim": 3, "vertices": TET, "cells": [[0, 1, 2, 3]]}),
    # an object without a digest is no report
    ("recheck", {"certificates": []}),
    # a chain-complex map that repeats an entry, whatever its values
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[0, 0, 1], [0, 0, 1]]}}),
    ("homology", "--complex",
     {"ranks": {"0": 2, "1": 1}, "boundaries": {"1": [[1, 0, 0], [1, 0, 3]]}}),
    # a chain complex and a group together: the group is not dropped
    ("homology", "--complex", {"ranks": {"0": 1}, "boundaries": {}},
     "--group", "S3"),
    # a chain complex with a module or a degree bound, which only a group
    # reads: neither is dropped
    ("homology", "--complex", {"ranks": {"0": 1}, "boundaries": {}},
     "--module", "nosuch.json"),
    ("homology", "--complex", {"ranks": {"0": 1}, "boundaries": {}},
     "--max-degree", "9"),
])
def test_cli_rejects_out_of_range(argv, tmp_path):
    args = []
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


@pytest.mark.parametrize("report", BAD_LITERAL_REPORTS)
def test_recheck_rejects_bad_literals(report, tmp_path):
    # the report passes the shape check, so the literal itself is refused
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    proc = run_cli("recheck", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: bad algebraic literal ")


# the Gaussian rationals Q(i) on the basis 1, i, as an algebra JSON table
QI_MUL = [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[0, -1]]]]


@pytest.mark.parametrize("algebra", [
    {"dim": 2, "mul": QI_MUL, "unit": [0, 0]},
    {"dim": 3, "mul": QI_MUL},
    {"dim": 2, "mul": QI_MUL[:1]},
    {"dim": 1.7, "mul": QI_MUL},
    {"dim": True, "mul": [[[[0, 1]]]]},
    {"dim": -1, "mul": []},
    {"dim": 0, "mul": []},
    {"dim": "2", "mul": QI_MUL},
    {"dim": 1, "mul": [[[[0.9, 1]]]]},
    {"dim": 1, "mul": [[[[True, 1]]]]},
    {"dim": 1, "mul": [[[[1, 1]]]]},
    {"dim": 1, "mul": [[[[0, 0.5]]]]},
    {"dim": 2, "mul": QI_MUL, "unit": [1]},
    {"dim": 2, "mul": QI_MUL, "unit": [1, True]},
    {"dim": 2, "mul": QI_MUL, "labels": ["1"]},
    {"dim": 2, "mul": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[1, 1]]]],
     "unit": [0, 1]},  # no unit: e1·e1 = e1 but e1·e0 = e1
    [2],
])
def test_bad_algebra_json_is_exit_2_with_one_line(algebra, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    proc = run_cli("hochschild", "--algebra", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_algebra_json_with_the_unit_second(tmp_path):
    # Q(i) on the basis i, 1: rebased so that the unit comes first, it has
    # the Hochschild homology of the built-in QI
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({
        "dim": 2, "mul": [[[[1, "-1"]], [[0, 1]]], [[[0, 1]], [[1, 1]]]],
        "unit": ["0", "1"], "labels": ["i", "1"], "name": "QI swapped"}))
    proc = run_cli("hochschild", "--algebra", str(path))
    assert proc.returncode == 0
    want = run_cli("hochschild", "--algebra", "QI")
    assert (json.loads(proc.stdout)["results"]["hh_dimensions"]
            == json.loads(want.stdout)["results"]["hh_dimensions"])


def test_large_algebra_is_refused_before_its_table_is_checked(tmp_path):
    # dimension 160, e0 the unit and every other product 0: checking its
    # associativity takes 160³ steps, so the dimension cap comes first
    d = 160
    mul = [[[[i + j, 1]] if i == 0 or j == 0 else [] for j in range(d)]
           for i in range(d)]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": d, "mul": mul}))
    start = time.perf_counter()
    proc = run_cli("hochschild", "--algebra", str(path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 4
    assert proc.stderr.strip().splitlines() == [
        "resource cap: algebra dimension 160 is above the cap 64"]
    assert elapsed < 1.0


@pytest.mark.parametrize("cap", ["abc", "0", "-5", ""])
def test_cli_rejects_bad_cell_cap(cap):
    env = dict(_BUFFERED, SCISSORS_CELL_CAP=cap)
    proc = subprocess.run(
        [sys.executable, "-m", "scissors.cli", "verify", "phi-boundary",
         "--cases", "1"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "SCISSORS_CELL_CAP" in proc.stderr


def test_cli_exact_strict_stops_at_cell_cap(fixtures):
    # the --exact-strict refinement reads its cap from SCISSORS_CELL_CAP
    env = dict(_BUFFERED, SCISSORS_CELL_CAP="1")
    proc = subprocess.run(
        [sys.executable, "-m", "scissors.cli", "polytope-info",
         "--exact-strict", str(fixtures / "box112.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 4
    assert proc.stderr.strip().splitlines() == [
        "resource cap: refinement exceeded 1 cells"]


def test_every_cap_error_is_a_size_cap():
    # main maps SizeCap alone to exit 4
    from scissors import errors
    from scissors.homology.flags import PoolExplosion

    for cap in (errors.SizeCapExceeded, errors.RefinementTooLarge,
                PoolExplosion):
        assert issubclass(cap, errors.SizeCap), cap


def test_cli_phi(fixtures):
    proc = run_cli("phi", "--tensor", str(fixtures / "t.json"),
                   "--tower", "t; s: s^2 = 1 - t^2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "dt" in report["results"]["image"]
    # the rendered coefficient equals 1/s in the tower
    from scissors.kahler import FieldTower
    T = FieldTower("t; s: s^2 = 1 - t^2")
    got = T.parse(report["results"]["image"]["dt"])
    assert tower_equal(T, got, T.parse("1/s"))


def test_tower_size_is_capped(fixtures, tmp_path):
    # a huge power in a tensor entry or a relation ends in exit 4 at once
    # instead of running for minutes
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"terms": [{"length": "(1+t)^3000", "cos": "t", "sin": "s"}]}))
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(
        {"terms": [{"length": "((99^64)^64)^64", "cos": "t", "sin": "s"}]}))
    for tensor, tower in ((big, TOWER), (nested, TOWER),
                          (fixtures / "t.json", "t; s: s^2 = 1 - t^(10^9)"),
                          (fixtures / "t.json", "t; u; s: s^2 = 1 - t^2; "
                           "x: x^2 = (1 + t + u)^32 * (2 + t - u)^32")):
        proc = subprocess.run(
            [sys.executable, "-m", "scissors.cli", "phi", "--tensor",
             str(tensor), "--tower", tower],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == 4, (tower, proc.stderr)
        assert proc.stderr.strip().splitlines() == [
            line for line in proc.stderr.strip().splitlines()
            if line.startswith("resource cap: ")]


def test_exact_gcd_fallback_is_capped(tmp_path):
    # an inverse in this tower whose gcds the evaluation gcd cannot take
    # falls back on the remainder sequence, which ran for minutes before it
    # was capped; it now ends in exit 4 with one line
    tensor = tmp_path / "inverse.json"
    tensor.write_text(json.dumps({"terms": [
        {"length": "1/(c^2 + t^3*c + u^5 + 7)", "cos": "1/3"}]}))
    argv = ["phi", "--tensor", str(tensor),
            "--tower", "t; u; c: t*c^3 = u - c"]
    assert run_cli(*argv).returncode == 0
    code = ("import sys\n"
            "import scissors.poly\n"
            "scissors.poly._heuristic_gcd = lambda a, b: None\n"
            "from scissors.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("resource cap: "), proc.stderr


def test_cli_homology_group():
    proc = run_cli("homology", "--group", "Z/4", "--module", "trivialZ",
                   "--max-degree", "3")
    report = json.loads(proc.stdout)
    assert report["results"]["homology"] == ["Z", "Z/4", "0", "Z/4"]


def test_cli_homology_complex_skips_zero_rows(tmp_path, capsys):
    # Smith normal form sees only the rows that hold an entry, so a rank of
    # 10⁸ with two entries neither allocates a row per basis element nor
    # takes long
    import time

    from scissors import cli

    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ranks": {"0": 10 ** 8, "1": 3},
                                "boundaries": {"1": [[0, 0, 2], [5, 1, 3]]}}))
    t0 = time.perf_counter()
    assert cli.main(["homology", "--complex", str(path)]) == 0
    assert time.perf_counter() - t0 < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["homology"] == {"0": "Z^99999998 + Z/6",
                                             "1": "Z"}


def test_cli_homology_complex_with_nonzero_square_is_input_error(tmp_path,
                                                                 capsys):
    from scissors import cli

    path = tmp_path / "dd.json"
    path.write_text(json.dumps({"ranks": {"0": 1, "1": 1, "2": 1},
                                "boundaries": {"1": [[0, 0, 1]],
                                               "2": [[0, 0, 1]]}}))
    assert cli.main(["homology", "--complex", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        "input error: bad complex JSON: ∂_1 ∘ ∂_2 != 0"]


def test_cli_text_format(fixtures):
    proc = run_cli("--format", "text", "polytope-info",
                   str(fixtures / "cube.json"))
    assert proc.returncode == 0
    assert "volume" in proc.stdout
    assert "{" not in proc.stdout.splitlines()[0]


def test_cli_hexagon_prism_info(tmp_path):
    # algebraic vertex literals (√3/2) through the wire format, and the
    # rational-angle certificate for the interior-angle drops
    from scissors.geom import prism
    from oracles import regular_hexagon
    p = prism(regular_hexagon(1), 1)
    path = tmp_path / "prism_hex.json"
    path.write_text(json.dumps(polytope_to_json(p)))
    proc = run_cli("polytope-info", str(path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["dehn_verdict"] == "Zero"
    kinds = {c["type"] for c in report["certificates"]}
    assert "rational-angles" in kinds
    dropped = [c for c in report["certificates"]
               if c["type"] == "rational-angles"][0]["dropped"]
    assert any(d["q"] == "rat:2/3" for d in dropped)  # hexagon corner angle
    recheck = recheck_certificates(report)
    assert recheck["recheck_passed"]


def _relation_report(coefficients=(1, 1)):
    """A report whose one certificate is the relation, with the given
    coefficients, of the tetrahedral and octahedral dihedral angles, which
    sum to π."""
    from fractions import Fraction
    from scissors.angles import AnglePair, certified_relation
    rel = certified_relation([AnglePair.from_cos(Fraction(1, 3)),
                              AnglePair.from_cos(Fraction(-1, 3))], [1, 1])
    rel = dict(rel.to_json(), coefficients=list(coefficients))
    return make_report(["test"], "", {}, [
        {"type": "angle-relations", "relations": [rel]}])


def test_report_shape_accepts_angle_relations():
    assert recheck_certificates(_relation_report())["recheck_passed"]


def _resigned(report):
    """`report` with its digest made to match its fields again."""
    body = strip_timing(report)
    body.pop("recheck", None)
    body.pop("digest")
    return dict(report, digest=digest_of(body))


def _recheck(report, tmp_path, capsys):
    """The exit code and the stderr lines of `recheck` of `report`."""
    from scissors import cli

    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = cli.main(["recheck", str(path)])
    return code, capsys.readouterr().err.splitlines()


def test_recheck_caps_relation_coefficients(tmp_path, capsys):
    # ∏(cosθ + i·sinθ)^{2m} is evaluated up to |m| = MAX_HEIGHT_BOUND; above
    # it recheck ends in exit 4 before any arithmetic, which at 10¹⁰⁰ would
    # not end
    from scissors.errors import MAX_HEIGHT_BOUND

    assert _recheck(_relation_report([MAX_HEIGHT_BOUND] * 2), tmp_path,
                    capsys) == (0, [])
    for m in (MAX_HEIGHT_BOUND + 1, -10 ** 100):
        code, err = _recheck(_relation_report([1, m]), tmp_path, capsys)
        assert code == 4
        assert len(err) == 1 and err[0].startswith("resource cap: "), err


def _negated(literal):
    return format_number(-parse_number(literal))


def _swapped(angle):
    return dict(angle, cos=angle["sin"], sin=angle["cos"])


def _tamperings(cert, rng):
    """(path, change) pairs, each an edit of `cert` that its recheck must
    see: the place of a field, drawn from `rng` where the certificate has
    several, and the function that makes its new value of the old one."""
    def pick(items):
        return rng.randint(0, len(items) - 1)

    kind = cert["type"]
    if kind == "angle-relations":
        r = pick(cert["relations"])
        j = pick(cert["relations"][r]["coefficients"])
        angle = ("relations", r, "witness", "angles", j)
        return [(angle + ("sin",), _negated), (angle, _swapped),
                (("relations", r, "coefficients", j),
                 lambda m: m + rng.choice([-1, 1]))]
    if kind == "rational-angles":
        drop = ("dropped", pick(cert["dropped"]))
        return [(drop + ("q",), lambda q: format_number(parse_number(q) / 2)),
                (drop + ("cos",), lambda _: rng.choice(
                    ["rat:3/1", "rat:1/3", "rat:-1/1"]))]
    if kind == "nonzero-dehn":
        return [(("angle", "sin"), _negated), (("angle",), _swapped),
                (("two_cos_minpoly", pick(cert["two_cos_minpoly"])),
                 lambda c: str(int(c) + 1)),
                (("monic",), lambda monic: not monic),
                (("length",), lambda _: "rat:0/1")]
    if kind == "volume-mismatch":
        return [(("volume_b",), lambda _: cert["volume_a"]),
                (("volume_a",), lambda _: cert["volume_b"])]
    assert kind == "dehn-block"
    named = ("terms", cert["terms"].index(cert["term"]))
    return [(("m",), lambda m: format_number(parse_number(m) + 1)),
            (("s",), lambda s: format_number(parse_number(s) + 1)),
            (("terms", pick(cert["terms"]), "sin"), _negated),
            (rng.choice([("term",), named]) + ("length",), _negated)]


def test_recheck_fails_every_tampered_certificate(fixtures, tmp_path,
                                                  capsys):
    # one report per certificate type, each certificate edited in seeded
    # places and the digest signed again, so that the certificate alone
    # decides: every edit ends in exit 1 with one line, never in exit 5
    import copy

    from scissors import cli
    from scissors.rng import SplitMix64

    reports = []
    for argv in (["polytope-info", "cube"], ["polytope-info", "tetra"],
                 ["compare", "cube", "box112"],
                 ["compare", "cube", "tetra_vol1"],
                 ["compare", "tetra_t1", "tetra_t2"]):
        assert cli.main(argv[:1] + [str(fixtures / f"{name}.json")
                                    for name in argv[1:]]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    reports.append(_relation_report())
    assert {c["type"] for r in reports for c in r["certificates"]} == {
        "rational-angles", "nonzero-dehn", "volume-mismatch", "dehn-block",
        "angle-relations"}
    for n, report in enumerate(reports):
        assert _recheck(report, tmp_path, capsys) == (0, [])
        for i, cert in enumerate(report["certificates"]):
            rng = SplitMix64.stream(29, 8 * n + i)
            for path, change in _tamperings(cert, rng):
                bad = copy.deepcopy(report)
                *where, key = (i,) + path
                field = bad["certificates"]
                for step in where:
                    field = field[step]
                field[key] = change(field[key])
                code, err = _recheck(_resigned(bad), tmp_path, capsys)
                assert code == 1, (path, err)
                assert len(err) == 1 and err[0].startswith(
                    "recheck failed: 1 of "), (path, err)


def test_cli_recheck_roundtrip(fixtures, tmp_path):
    proc = run_cli("compare", str(fixtures / "cube.json"),
                   str(fixtures / "tetra_vol1.json"))
    path = tmp_path / "report.json"
    path.write_text(proc.stdout)
    rc = run_cli("recheck", str(path))
    assert rc.returncode == 0
    out = json.loads(rc.stdout)
    assert out["results"]["recheck_passed"]
    # tamper: flipping a certificate breaks the digest
    report = json.loads(proc.stdout)
    report["certificates"][0]["monic"] = True
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(report))
    rc2 = run_cli("recheck", str(bad))
    assert rc2.returncode == 1
    [line] = rc2.stderr.splitlines()
    assert line.startswith("recheck failed: ")
    assert line.endswith("; the digest does not match")


def test_recheck_digest_ignores_timing(fixtures, tmp_path):
    # two compare runs differ at most in timing_ms (made to differ here);
    # their rechecks hash the report without it and agree byte for byte
    rechecks = []
    for i in range(2):
        proc = run_cli("compare", str(fixtures / "cube.json"),
                       str(fixtures / "tetra_vol1.json"))
        report = json.loads(proc.stdout)
        report["timing_ms"] += 1000 * i
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        rc = run_cli("recheck", str(path))
        assert rc.returncode == 0
        out = json.loads(rc.stdout)
        out.pop("timing_ms")
        rechecks.append(out)
    assert rechecks[0]["digest"] == rechecks[1]["digest"]
    assert rechecks[0] == rechecks[1]


def test_recheck_of_a_compare_recheck_report(fixtures, tmp_path):
    # compare --recheck adds its `recheck` block after the digest is taken;
    # the digest check leaves that block out, as it leaves out timing_ms
    proc = run_cli("compare", "--recheck", str(fixtures / "tetra_vol1.json"),
                   str(fixtures / "cube.json"))
    assert json.loads(proc.stdout)["recheck"]["recheck_passed"]
    path = tmp_path / "report.json"
    path.write_text(proc.stdout)
    rc = run_cli("recheck", str(path))
    assert rc.returncode == 0, rc.stderr
    assert json.loads(rc.stdout)["results"]["digest_ok"]


def test_cli_internal_error_is_one_line(monkeypatch, capsys):
    from scissors import cli

    def boom(args):
        raise KeyError("no such entry")

    monkeypatch.setattr(cli, "cmd_homology", boom)
    assert cli.main(["homology", "--group", "Z/2"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["internal error: KeyError: 'no such entry'"]

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_homology", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["homology", "--group", "Z/2"])


def test_group_order_cap_is_checked_first(tmp_path, capsys):
    # the cap applies before the m×m table is built, or a JSON table's
    # entries are parsed, or associativity is checked in O(n³)
    import time

    from scissors import cli

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"table": [["x"] * 17] * 17}))
    for spec, order in (("Z/17", 17), ("Z/100000000", 100000000),
                        (str(big), 17)):
        t0 = time.perf_counter()
        assert cli.main(["homology", "--group", spec]) == cli.EXIT_CAP
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"resource cap: group order {order} > 16"]
    assert cli.main(["homology", "--group", "Z/16", "--max-degree", "1"]) == 0


def test_group_degree_cap_names_the_flag_value(capsys):
    # the bar complex is built one degree above --max-degree; the message
    # names the flag's value, not that internal degree
    from scissors import cli

    assert cli.main(["homology", "--group", "Z/2",
                     "--max-degree", "5"]) == cli.EXIT_CAP
    assert capsys.readouterr().err.splitlines() == [
        "resource cap: degree cap 5 > 4"]
    assert cli.main(["homology", "--group", "Z/2",
                     "--max-degree", "4"]) == cli.EXIT_OK


def test_compare_recheck_failure_is_exit_1_with_one_line(fixtures,
                                                         monkeypatch, capsys):
    from scissors import cli

    def failing(report):
        return {"digest_ok": True, "recheck_passed": False,
                "checks": [{"certificate": "nonzero-dehn", "pass": False}]}

    # `main` looks `recheck_certificates` up in the report module when it
    # runs
    monkeypatch.setattr("scissors.report.recheck_certificates", failing)
    rc = cli.main(["compare", "--recheck", str(fixtures / "cube.json"),
                   str(fixtures / "box112.json")])
    assert rc == cli.EXIT_SUITE_FAILED == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["recheck"]["recheck_passed"] is False
    assert out.err.splitlines() == [
        "recheck failed: 1 of 1 certificates failed"]


def test_failed_suite_is_exit_1_with_one_line(monkeypatch, capsys):
    from scissors import cli

    def failing(name, seed, cases):
        return {"suite": name, "seed": seed, "cases": 3, "passed": 1,
                "all_pass": False, "results": [], "failures": []}

    # `verify` looks `run_suite` up in the suites module when it runs
    monkeypatch.setattr("scissors.suites.run_suite", failing)
    assert cli.main(["verify", "torus"]) == cli.EXIT_SUITE_FAILED
    assert capsys.readouterr().err.splitlines() == [
        "suite failed: 2 of 3 cases of torus"]


def test_closed_stdout_is_one_line(fixtures):
    # the reader is gone before the report is written
    with subprocess.Popen(
            [sys.executable, "-m", "scissors.cli", "polytope-info",
             str(fixtures / "cube.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_BUFFERED) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 5
    assert err.splitlines() == [
        "output error: stdout was closed before the report was written"]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
def test_full_device_is_exit_5_with_one_line():
    # every write to /dev/full fails with ENOSPC: the report write ends in
    # exit 5 with one line, and the final flush of the process stays quiet
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "scissors.cli", "verify", "phi-boundary",
             "--cases", "5", "--seed", "404"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_BUFFERED)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "output error: could not write the report: [Errno 28] No space left "
        "on device"]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader is gone; `fileno` names a file of the test's
    own, onto which `main` points devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def _timing_dropped(out: bytes) -> bytes:
    return re.sub(rb'"timing_ms": \d+', b'"timing_ms": 0', out)


def test_process_exit_matches_main(fixtures, tmp_path, monkeypatch, capsys):
    # the process entry ends by os._exit once it has flushed: per exit code,
    # a process writes the same stdout bytes, stderr lines and exit code as
    # main() in this process
    from scissors import cli

    cube = str(fixtures / "cube.json")
    tampered = tmp_path / "tampered.json"
    assert cli.main(["compare", cube, str(fixtures / "box112.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    report["digest"] = "0" * 64
    tampered.write_text(json.dumps(report))
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({
        "dim": 3, "vertices": TET + [["rat:1/4", "rat:1/4", "rat:1/4"]],
        "cells": [[0, 1, 2, 3], [0, 1, 2, 4]]}))
    cases = [(0, ["polytope-info", cube]),
             (1, ["recheck", str(tampered)]),
             (2, ["polytope-info", str(tmp_path / "missing.json")]),
             (2, ["verify", "nope"]),   # argparse: SystemExit
             (3, ["polytope-info", str(overlap)]),
             (4, ["hochschild", "--algebra", "mat4"])]
    for want, argv in cases:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "scissors.cli", *argv],
                              capture_output=True, env=_BUFFERED)
        assert code == proc.returncode == want, (argv, proc.stderr)
        assert _timing_dropped(proc.stdout) == _timing_dropped(out.encode())
        assert proc.stderr.decode().splitlines() == err.splitlines(), argv
        assert bool(out) == (want in (0, 1)), argv
    # exit 5: stdout closed before the report is written
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = cli.main(["polytope-info", cube])
        monkeypatch.undo()
    err = capsys.readouterr().err
    with subprocess.Popen(
            [sys.executable, "-m", "scissors.cli", "polytope-info", cube],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_BUFFERED) as proc:
        proc.stdout.close()
        proc_err = proc.stderr.read()
        assert code == proc.wait() == 5
    assert proc_err.decode().splitlines() == err.splitlines() == [
        "output error: stdout was closed before the report was written"]


def test_large_report_is_flushed_in_full(tmp_path, capsys):
    # about 425 KB, more than a pipe holds: the process ends only after
    # its last byte is taken, by a slow reader as by a file
    from scissors import cli

    argv = ["verify", "phi-boundary", "--cases", "1000", "--seed", "404"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert len(want) > 256 * 1024
    command = [sys.executable, "-m", "scissors.cli", *argv]
    chunks = []
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          env=_BUFFERED) as proc:
        while True:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            chunks.append(chunk)
            time.sleep(0.002)
        assert proc.wait() == 0
    saved = tmp_path / "report.json"
    with open(saved, "wb") as fh:
        assert subprocess.run(command, stdout=fh,
                              env=_BUFFERED).returncode == 0
    for out in (b"".join(chunks), saved.read_bytes()):
        assert verify_report_digest(json.loads(out))
        assert _timing_dropped(out) == _timing_dropped(want)


def test_failed_final_flush_is_exit_5_with_one_line(monkeypatch, capfd):
    from scissors import cli

    class Unflushable(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    exits = []
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(sys, "stdout", Unflushable())
    monkeypatch.setattr(os, "_exit", exits.append)
    cli.run()
    monkeypatch.undo()
    assert exits == [cli.EXIT_INTERNAL]
    assert capfd.readouterr().err.splitlines() == [
        "output error: could not flush the output: [Errno 28] No space left "
        "on device"]


def _run_blocking(modules, argv):
    """The CLI in a fresh interpreter in which importing `modules` fails."""
    code = ("import sys\n"
            f"sys.modules.update(dict.fromkeys({modules!r}))\n"
            "from scissors.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=_BUFFERED)


def test_rational_commands_run_without_sympy(fixtures, tmp_path):
    # the tetrahedron and the octahedron have irrational lengths and sines,
    # which stay in quadratic fields
    cube, rot, tall, tetra, octa, vol1, sqrt23 = (
        str(fixtures / name) for name in ("cube.json", "cube_rot.json",
                                          "box112.json", "tetra.json",
                                          "octa.json", "tetra_vol1.json",
                                          "tetra_sqrt23.json"))
    # its nonzero-dehn certificate has a length literal of degree 6
    report = tmp_path / "cube_vol1.json"
    report.write_text(run_cli("compare", cube, vol1).stdout)
    # the prism drops its 45° edges as rational angles of cos √2/2
    prism_tri = str(fixtures / "prism_tri.json")
    prism_report = tmp_path / "prism_tri_info.json"
    prism_report.write_text(run_cli("polytope-info", prism_tri).stdout)
    both = ("sympy", "mpmath")
    for blocked_modules, argv in (
            (both, ["polytope-info", cube]), (both, ["compare", cube, rot]),
            (both, ["polytope-info", prism_tri]),
            (both, ["recheck", str(prism_report)]),
            (both, ["compare", cube, tall]), (both, ["polytope-info", tetra]),
            (both, ["polytope-info", octa]), (both, ["compare", tetra, octa]),
            (both, ["homology", "--group", "S3"]),
            (both, ["hochschild", "--algebra", "mat2"]),
            (both, ["hochschild", "--algebra", "quat"]),
            # the Gröbner bases of `verify hkr` are native
            (both, ["verify", "hkr"]),
            (both, ["phi", "--tensor", str(fixtures / "t.json"),
                    "--tower", TOWER]),
            (both, ["recheck", str(report)]),
            (both, ["compare", "--recheck", vol1, cube]),
            # rational ℓ² and cos² on irrational coordinates: one-term
            # blocks, with no relation search
            (both, ["polytope-info", sqrt23]),
            (both, ["compare", sqrt23, cube])):
        blocked = _run_blocking(blocked_modules, argv)
        assert blocked.returncode == 0, (argv, blocked.stderr)
        plain = run_cli(*argv)
        assert json.loads(blocked.stdout)["digest"] == \
            json.loads(plain.stdout)["digest"]


def test_sympy_and_mpmath_are_imported_by_one_module_each():
    # the angle-relation search takes mpmath, and no other module imports
    # it; sympy is a test-only oracle, which no module imports
    import ast
    from pathlib import Path

    import scissors

    allowed = {"sympy": set(), "mpmath": {"angles.py"}}
    root = Path(scissors.__file__).parent
    found = {name: set() for name in allowed}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in found:
                    found[top].add(str(path.relative_to(root)))
    assert found == allowed


# layers that only some commands use
_GEOMETRY = ("scissors.geom", "scissors.algebraic", "scissors.numberfield",
             "scissors.angles", "scissors.dehn")
_HOMOLOGY = ("scissors.homology", "scissors.hochschild", "scissors.kahler")
# stdlib modules that no command needs: dataclasses, with the inspect it
# loads, and logging cost about 22 ms of a cold start together, and
# hashlib, which loads OpenSSL, 2.8–3.9 ms (the digests take the
# interpreter's built-in SHA-256)
_STDLIB_UNUSED = ("dataclasses", "inspect", "logging", "hashlib")


def test_rational_tetrahedron_pair_certificate_rechecks(fixtures, tmp_path):
    t1, t2 = (str(fixtures / f"tetra_{n}.json") for n in ("t1", "t2"))
    proc = run_cli("compare", "--recheck", t1, t2)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["verdict"]["tag"] == "NotCongruent_Dehn"
    assert [c["type"] for c in report["certificates"]] == [
        "rational-angles", "dehn-block"]
    assert report["recheck"]["recheck_passed"]
    saved = tmp_path / "pair.json"
    saved.write_text(run_cli("compare", t1, t2).stdout)
    again = json.loads(run_cli("recheck", str(saved)).stdout)
    assert again["results"]["recheck_passed"]
    assert again["results"]["checks"] == [
        {"certificate": "rational-angles", "cos": "rat:0/1", "pass": True},
        {"certificate": "dehn-block", "m": "rat:2/1", "s": "rat:2/1",
         "pass": True}]


def test_hull_against_a_box_at_right_angles_is_certified(tmp_path):
    # H, the hull of (0,0,0), (2,0,0), (0,3,0), (0,0,1), (1,1,1), against
    # the box of sides λ, λ², 44/9 for λ = ∛(3/8), both of volume 11/6:
    # every edge of the box lies at π/2 and drops, so the form is picked on
    # H's terms alone, whose ℓ² and cos² are rational
    from fractions import Fraction
    from scissors.geom.convex import convex_polytope_3d

    lam = make_algebraic([-3, 0, 0, 8], (0, 1))
    hull = tmp_path / "hull.json"
    hull.write_text(json.dumps(polytope_to_json(convex_polytope_3d(
        [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)]))))
    flat = tmp_path / "flat_box.json"
    flat.write_text(json.dumps(polytope_to_json(transformed(
        box((0, 0, 0), (1, 1, Fraction(44, 9))),
        ((lam, 0, 0), (0, lam * lam, 0), (0, 0, 1))))))
    proc = run_cli("compare", "--recheck", str(hull), str(flat))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["verdict"]["tag"] == "NotCongruent_Dehn"
    assert [c["type"] for c in report["certificates"]] == [
        "rational-angles", "dehn-block"]
    assert report["recheck"]["recheck_passed"]


def test_each_radicand_is_tested_once(fixtures):
    # `polytope-info` of the regular tetrahedron scaled by ∛(3/8), in a
    # fresh interpreter: its six edges share one irrational ℓ², whose
    # square test runs once, as `sqrt_over` keeps each outcome per field
    # and radicand
    code = (
        "import contextlib, io, sys\n"
        "import scissors.numberfield as nf\n"
        "from scissors.cli import main\n"
        "tested, sqrt_in = [], nf.sqrt_in\n"
        "nf.sqrt_in = lambda F, r: tested.append(r) or sqrt_in(F, r)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['polytope-info', sys.argv[1]]) == 0\n"
        "print(len(tested))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(fixtures / "tetra_vol1.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


# what a command on rational input leaves unloaded: the literals, the growth
# of number fields, and the factoring and resultants behind them
_ALGEBRAIC = ("scissors.algebraic", "scissors.factoring", "sympy")
_NUMBER_FIELDS = _ALGEBRAIC + ("scissors.numberfield", "scissors.poly",
                               "scissors.rng")


def test_commands_load_only_their_layers(fixtures, tmp_path):
    cube, rot, tetra, vol1, octa, tall, t1, t2, sqrt23 = (
        str(fixtures / name) for name in (
            "cube.json", "cube_rot.json", "tetra.json", "tetra_vol1.json",
            "octa.json", "box112.json", "tetra_t1.json", "tetra_t2.json",
            "tetra_sqrt23.json"))
    report, mismatch, pair, relation, blocks = (
        tmp_path / name for name in ("cube_vol1.json", "cube_tall.json",
                                     "t1_t2.json", "relation.json",
                                     "sqrt23.json"))
    report.write_text(run_cli("compare", cube, vol1).stdout)
    mismatch.write_text(run_cli("compare", cube, tall).stdout)
    pair.write_text(run_cli("compare", t1, t2).stdout)
    relation.write_text(json.dumps(_relation_report()))
    # the (√2, √3) tetrahedron: its ℓ² and cos² are rational, so it is
    # three one-term blocks, certified with no search
    blocks.write_text(_run_blocking(_HOMOLOGY + ("mpmath",),
                                    ["polytope-info", sqrt23]).stdout)
    info = json.loads(blocks.read_text())
    assert info["results"]["dehn_verdict"] == "NonzeroCertified"
    (cert,) = [c for c in info["certificates"] if c["type"] == "dehn-block"]
    assert (cert["m"], cert["s"]) == ("rat:1/1", "rat:6/1")
    no_geometry = _GEOMETRY + ("scissors.kahler", "scissors.poly",
                               "scissors.factoring")
    rational = _HOMOLOGY + _ALGEBRAIC + ("mpmath",)
    # the eliminations, which a command on the stock shapes with rational
    # or quadratic literals never enters
    no_linalg = ("scissors.linalg",)
    for blocked_modules, argv in (
            # a group and a builtin algebra read no number literal
            (no_geometry + ("scissors.hochschild", "scissors.numbers"),
             ["homology", "--group", "S3"]),
            (no_geometry + ("scissors.homology", "scissors.io",
                            "scissors.numbers"),
             ["hochschild", "--algebra", "mat2"]),
            # the tower of the `cli` workload factors nothing
            (_GEOMETRY + ("scissors.factoring", "scissors.homology",
                          "scissors.hochschild"),
             ["phi", "--tensor", str(fixtures / "t.json"), "--tower", TOWER]),
            (_HOMOLOGY + no_linalg, ["polytope-info", cube]),
            (_HOMOLOGY + no_linalg, ["polytope-info", tetra]),
            (_HOMOLOGY + no_linalg, ["compare", cube, rot]),
            (_HOMOLOGY, ["compare", "--recheck", vol1, cube]),
            # the nonzero-dehn, volume-mismatch, dehn-block and
            # angle-relations certificates recheck with no geometry, the
            # first two without `dehn` and the volume-mismatch without
            # `angles`; the nonzero-dehn one needs no elimination
            (_HOMOLOGY + no_linalg + ("scissors.geom", "scissors.dehn"),
             ["recheck", str(report)]),
            (_HOMOLOGY + ("scissors.geom", "scissors.dehn", "scissors.angles"),
             ["recheck", str(mismatch)]),
            # and the dehn-block one reads its quadratic literals with no
            # number field (`numbers.parse_square`)
            (_HOMOLOGY + _NUMBER_FIELDS + ("scissors.geom",),
             ["recheck", str(pair)]),
            (_HOMOLOGY + _NUMBER_FIELDS + ("scissors.geom",),
             ["recheck", str(blocks)]),
            (_HOMOLOGY + ("scissors.geom",), ["recheck", str(relation)]),
            (rational, ["polytope-info", cube]),
            (rational, ["polytope-info", tetra]),
            (rational + no_linalg, ["polytope-info", octa]),
            (rational, ["polytope-info", "--exact-strict", tall]),
            (rational, ["compare", cube, rot]),
            (rational + no_linalg, ["compare", cube, tall]),
            # the dissection suite's hulls and cuts are rational
            (_ALGEBRAIC + ("mpmath", "scissors.hochschild", "scissors.kahler"),
             ["verify", "dissection", "--cases", "25", "--seed", "303"]),
            # the block (5, 5) of the pair holds two angles: its search
            # loads mpmath
            (_HOMOLOGY + _ALGEBRAIC, ["compare", t1, t2])):
        blocked = _run_blocking(blocked_modules + _STDLIB_UNUSED, argv)
        assert blocked.returncode == 0, (argv, blocked.stderr)
        plain = run_cli(*argv)
        assert plain.returncode == 0, (argv, plain.stderr)
        assert json.loads(blocked.stdout)["digest"] == \
            json.loads(plain.stdout)["digest"]
    # the parser, `verify` choices included, and every usage error need
    # no layer, no reader, not `report` and not the suite registry, nor the
    # stdlib modules that only those use
    bare = set(_modules_after(""))
    for argv in ([], ["verify", "nope"], ["homology"]):
        loaded = _modules_after(
            "import scissors\n"
            "assert [m for m in sys.modules if m.startswith('scissors.')] "
            "== []\n"
            "from scissors.cli import build_parser, main\n"
            "build_parser()\n"
            f"argv = {argv!r}\n"
            "try:\n"
            "    print(main(argv) if argv else 0)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)\n")
        assert loaded.pop(0) == ("2" if argv else "0"), argv
        loaded = set(loaded)
        assert {m for m in loaded if m.split(".")[0] == "scissors"} == {
            "scissors", "scissors.cli", "scissors.errors"}, argv
        assert loaded.isdisjoint(("sympy", "mpmath")), argv
        assert {"json", "fractions", "decimal", "hashlib"} & loaded <= bare, \
            argv


def _modules_after(code):
    """The lines `code` prints in a fresh interpreter, then the names of
    the modules the interpreter holds at its end."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code +
         "print('\\n'.join(sorted(sys.modules)))\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _parse(parser, argv):
    """(stdout, stderr, exit code, namespace) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


def test_one_command_parser_matches_the_full_parser(monkeypatch):
    from scissors import cli

    top = cli.build_parser()
    sub = next(a for a in top._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli.COMMANDS
    given = {"polytope-info": ["a.json"], "compare": ["a.json", "b.json"],
             "verify": ["torus"], "hochschild": ["--algebra", "Q"],
             "homology": ["--group", "S3"],
             "phi": ["--tensor", "t.json", "--tower", "t"],
             "recheck": ["r.json"]}
    assert tuple(given) == cli.COMMANDS
    lines = [["polytope-info", "a.json", "--height-bound", "0"],
             ["compare", "a.json", "b.json", "--height-bound", "0"],
             ["verify", "tau", "--cases", "0"],
             ["hochschild", "--algebra", "Q", "--max-degree", "-1"],
             ["homology", "--group", "S3", "--max-degree", "-1"]]
    for command, args in given.items():
        lines += [[command, "--help"], [command], [command, *args],
                  [command, *args, "--bogus"], [command, *args, "extra"]]
    for argv in lines:
        full = _parse(cli.build_parser(), argv)
        assert _parse(cli.build_parser(argv[0]), argv) == full, argv
        # help exits 0 and a usage error 2 with one line; the rest parse
        if "--help" in argv:
            assert full[2] == 0 and full[0].startswith(
                f"usage: scissors {argv[0]} "), argv
        elif full[2] is not None:
            assert full[2] == cli.EXIT_INPUT, argv
            assert full[1].startswith("input error: ") and \
                full[1].count("\n") == 1, argv
    # `main` builds the one parser only for a line that starts with a
    # command; the top-level help and errors name every command
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or
                        build(command))
    for argv, command in ((["homology"], "homology"), ([], None),
                          (["nope"], None), (["--help"], None),
                          (["--help", "polytope-info"], None),
                          (["--format", "text", "homology"], None)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert built.pop() == command, argv
        assert code == (0 if "--help" in argv else cli.EXIT_INPUT), argv
        if argv in (["nope"], ["--help"], ["--help", "polytope-info"]):
            assert all(c in out.getvalue() + err.getvalue()
                       for c in cli.COMMANDS), argv
        elif argv == []:
            assert err.getvalue() == ("input error: the following arguments "
                                      "are required: command\n")


def test_package_root_resolves_names_on_use():
    import scissors
    names = ["AlgebraicReal", "AnglePair", "CongruenceVerdict", "DehnTensor",
             "IntegerRelation", "Polytope", "Simplex", "SimplexChain",
             "boundary", "compare_polytopes", "dehn_invariant",
             "dihedral_edges", "field_ops", "find_angle_relations",
             "is_rational_angle", "is_zero", "make_algebraic",
             "orientation_sign", "phi_boundary_check", "prism",
             "signed_indicator", "simplex_volume", "sqrt_nonneg",
             "tensor_add", "tensor_neg", "tensor_normalize",
             "verify_dissection"]
    assert scissors.__all__ == names
    for name in names:
        value = getattr(scissors, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    from scissors import dehn, dehn_invariant
    assert dehn is sys.modules["scissors.dehn"]
    assert dehn_invariant is dehn.dehn_invariant
    assert set(names) <= set(dir(scissors))
    with pytest.raises(AttributeError):
        scissors.no_such_name


def _placement(rng):
    """Seeded signed permutation, then a 3-4-5 rotation in a coordinate
    plane, then a rational translation: (matrix rows, shift)."""
    from fractions import Fraction
    perm = [0, 1, 2]
    for i in (2, 1):
        j = rng.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    signed = [[0] * 3 for _ in range(3)]
    for i in range(3):
        signed[i][perm[i]] = rng.choice((-1, 1))
    a = rng.randint(0, 2)
    b = (a + rng.randint(1, 2)) % 3
    rot = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    rot[a][a], rot[a][b] = Fraction(3, 5), Fraction(-4, 5)
    rot[b][a], rot[b][b] = Fraction(4, 5), Fraction(3, 5)
    rows = [[sum(rot[i][k] * signed[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]
    return rows, [rng.fraction(6, 3) for _ in range(3)]


def test_placement_keeps_volume_verdict_and_congruence(tmp_path, capsys):
    # metamorphic: a seeded rational hull and its image under an isometry
    from scissors.cli import main
    from scissors.geom import GeometryError
    from scissors.geom.convex import convex_polytope_3d
    from scissors.rng import SplitMix64

    def report(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)["results"]

    for case in range(6):
        rng = SplitMix64.stream(707, case)
        while True:
            pts = [tuple(rng.randint(0, 3) for _ in range(3))
                   for _ in range(rng.randint(4, 6))]
            try:
                hull = convex_polytope_3d(pts)
                break
            except GeometryError:
                continue  # flat point sets have no hull; draw again
        a, b = tmp_path / f"a{case}.json", tmp_path / f"b{case}.json"
        a.write_text(json.dumps(polytope_to_json(hull)))
        b.write_text(json.dumps(polytope_to_json(
            transformed(hull, *_placement(rng)))))
        info_a = report("polytope-info", str(a))
        info_b = report("polytope-info", str(b))
        assert info_a["volume"] == info_b["volume"]
        assert info_a["dehn_verdict"] == info_b["dehn_verdict"]
        verdict = report("compare", str(a), str(b))["verdict"]
        assert verdict["tag"] == "Congruent_DSJ"


def test_stock_shapes_keep_invariants_under_placement(tmp_path, capsys):
    # metamorphic: each stock shape, tetra_vol1 in ℚ(∛(3/8)) included, and
    # its image under a seeded isometry
    from scissors.cli import main
    from scissors.rng import SplitMix64

    def run(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    shapes = {"cube": unit_cube(), "tetra": regular_tetrahedron(),
              "tetra_vol1": scaled_simplices(regular_tetrahedron(), vol1),
              "octa": regular_octahedron(), "box112": box((0, 0, 0), (1, 1, 2))}
    for case, (name, shape) in enumerate(shapes.items()):
        rng = SplitMix64.stream(808, case)
        a, b = tmp_path / f"{name}.json", tmp_path / f"{name}_moved.json"
        a.write_text(json.dumps(polytope_to_json(shape)))
        b.write_text(json.dumps(polytope_to_json(
            transformed(shape, *_placement(rng)))))
        infos = []
        for path in (a, b):
            report = run("polytope-info", str(path))
            saved = tmp_path / f"info_{path.name}"
            saved.write_text(json.dumps(report))
            assert run("recheck", str(saved))["results"]["recheck_passed"]
            infos.append(report["results"])
        assert infos[0]["volume"] == infos[1]["volume"], name
        assert infos[0]["dehn_verdict"] == infos[1]["dehn_verdict"], name
        # a literal's text depends on its value alone, not on placement
        terms = [json.dumps(info["dehn_invariant"]["terms"]) for info in infos]
        assert terms[0] == terms[1], name
        for other in (a, b):
            report = run("compare", "--recheck", str(a), str(other))
            assert report["results"]["verdict"]["tag"] == "Congruent_DSJ"
            assert report["recheck"]["recheck_passed"]


def test_resaving_a_polytope_is_a_fixed_point():
    # read then write gives the file back: the hexagon prism over ℚ(√3), the
    # tetrahedron over ℚ(∛(3/8)) and each stock shape placed by a seeded
    # isometry, whose coordinates the reader lifts into one number field
    from scissors.geom import prism
    from scissors.rng import SplitMix64
    from oracles import regular_hexagon

    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    shapes = {"cube": unit_cube(), "tetra": regular_tetrahedron(),
              "tetra_vol1": scaled_simplices(regular_tetrahedron(), vol1),
              "octa": regular_octahedron(),
              "box112": box((0, 0, 0), (1, 1, 2)),
              "prism_hex": prism(regular_hexagon(1), 1)}
    for case, (name, shape) in enumerate(shapes.items()):
        placed = transformed(shape, *_placement(SplitMix64.stream(4704, case)))
        for p in (shape, placed):
            written = polytope_to_json(p)
            assert polytope_to_json(polytope_from_json(written)) == written, \
                name


# `digest` of `polytope-info` on each stock shape, written by
# polytope_to_json and read by a relative path: it covers the edge order and
# endpoints, the Dehn terms and the certificates, and not `timing_ms`.  A
# change that alters any of them on purpose re-records these values.
STOCK_INFO_DIGESTS = {
    "cube":
        "e0448e5b3c8e3f20a017a363ae71cb079e6c61adcc4ea94996bfe9b9a3228fbe",
    "tetra":
        "c7943a1541d5533f425b6c7ae2bb4ea7a4b768dca6bd3c7cfdd9ac07c5e01ee7",
    "tetra_vol1":
        "e3f159c001b9377f5759614343b00ab9f29029a2c3c22d6f85597bd842f23279",
    "octa":
        "d7598d155df56ac92611fac106c1c1e076b1fa6cf01b6e6d6982b7da55b9fb5b",
    "box112":
        "89480568e36fac260120c543aeb6d57ef40ab50b08f5a76604dd261cb1a95fe6",
    # its dropped angles in the order of (cos², sign of cos): π/2 first,
    # then 2π/3
    "prism_hex":
        "4029e8485301ac663206f4eb9a367c1a8175d85f5ec4ec7e7ee8dac6bebbac89",
}


def test_stock_shape_report_digests_are_pinned(tmp_path, monkeypatch, capsys):
    from scissors.cli import main
    from scissors.geom import prism
    from oracles import regular_hexagon

    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    shapes = {"cube": unit_cube(), "tetra": regular_tetrahedron(),
              "tetra_vol1": scaled_simplices(regular_tetrahedron(), vol1),
              "octa": regular_octahedron(),
              "box112": box((0, 0, 0), (1, 1, 2)),
              "prism_hex": prism(regular_hexagon(1), 1)}
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, shape in shapes.items():
        path = f"{name}.json"
        (tmp_path / path).write_text(json.dumps(polytope_to_json(shape)))
        assert main(["polytope-info", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert verify_report_digest(report)
        digests[name] = report["digest"]
    assert digests == STOCK_INFO_DIGESTS


# `digest` of a `compare` report for each verdict, on shapes written by
# polytope_to_json and read by a relative path, and of the dissection suite
# at its acceptance seed: every polytope they read passes the overlap check
# of `Polytope.validate`, which must leave them byte-identical.
COMPARE_DIGESTS = {
    ("cube", "box112", "NotCongruent_Volume"):
        "2bb82f487a8f1a1f23fc0dcff3eafae91439ca836f978c475c5bc8c6fc8489e7",
    ("cube", "tetra_vol1", "NotCongruent_Dehn"):
        "e1a17a6d72caf7466c467fe46ffa2c5222d8b261e8ea6b0ef1b306509d81d5fe",
    ("cube", "cube_moved", "Congruent_DSJ"):
        "1986b93b3d5359042bb319a4b7b5ebdf5e69b4fe4ee86a34e43c7e0819706260",
}
DISSECTION_DIGEST = \
    "3a77853cab267fa313452eaed0230ab9e25bd507a3a82cbf44d22b01917ba4e1"


def test_compare_and_dissection_digests_are_pinned(tmp_path, monkeypatch,
                                                   capsys):
    from scissors.cli import main
    from scissors.rng import SplitMix64

    vol1 = make_algebraic([-3, 0, 0, 8], (0, 1))
    shapes = {"cube": unit_cube(), "box112": box((0, 0, 0), (1, 1, 2)),
              "tetra_vol1": scaled_simplices(regular_tetrahedron(), vol1),
              "cube_moved": transformed(
                  unit_cube(), *_placement(SplitMix64.stream(909, 0)))}
    monkeypatch.chdir(tmp_path)
    for name, shape in shapes.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps(polytope_to_json(shape)))

    def digest(*argv):
        assert main(list(argv)) == 0
        report = json.loads(capsys.readouterr().out)
        assert verify_report_digest(report)
        return report

    digests = {}
    for a, b, _ in COMPARE_DIGESTS:
        report = digest("compare", f"{a}.json", f"{b}.json")
        tag = report["results"]["verdict"]["tag"]
        digests[a, b, tag] = report["digest"]
    assert digests == COMPARE_DIGESTS
    report = digest("verify", "dissection", "--cases", "25", "--seed", "303")
    assert report["digest"] == DISSECTION_DIGEST


# `digest` of the homology reports: group homology, a chain-complex file
# read by a relative path, and the homology suites.  They cover the
# computed groups, and a change to how the boundary matrices are built or
# reduced must leave them byte-identical.
HOMOLOGY_COMPLEX = {
    "ranks": {"0": 3, "1": 3, "2": 1},
    "boundaries": {"1": [[0, 0, -1], [1, 0, 1], [1, 1, -1], [2, 1, 1],
                         [0, 2, 1], [2, 2, -1]],
                   "2": [[0, 0, 2], [1, 0, 2], [2, 0, 2]]}}
HOMOLOGY_DIGESTS = {
    ("homology", "--group", "Z/4"):
        "c2963769709467655591d6c8104a60d00fb429d3d3a299e0d72532a912ed3c96",
    ("homology", "--group", "S3"):
        "6ed032b46dbea3442ffa43cdf2b3d1ab54964c95fa28cafa65330d2d185e0662",
    ("homology", "--complex", "complex.json"):
        "7bf41f9ca23e2bf90fcbb139c6df812f9ac51435af7608764c57b965d3eb6c6b",
    ("verify", "torus"):
        "7a4b4d2f5b53c386dbcdcd888da27ce080ab598d8bf5e5ffac3412921da6c3a2",
    ("verify", "bar-shapiro"):
        "ad55385a0b0c1c05feb8ff3289a4517da53d89aeae5fccae260eadce8bf9cf39",
    ("verify", "flag-nullhomotopy", "--cases", "50", "--seed", "506"):
        "099863ee15a85f9eef8c44a0d9e10808e0fc2403382e5c7dc2f7de9b3d702b51",
}


def test_homology_report_digests_are_pinned(tmp_path, monkeypatch, capsys):
    from scissors.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "complex.json").write_text(json.dumps(HOMOLOGY_COMPLEX))
    digests = {}
    for argv in HOMOLOGY_DIGESTS:
        assert main(list(argv)) == 0
        report = json.loads(capsys.readouterr().out)
        assert verify_report_digest(report)
        digests[argv] = report["digest"]
    assert digests == HOMOLOGY_DIGESTS


def test_hill_tetrahedron_vanishes_by_one_searched_relation(
        tmp_path, monkeypatch, capsys):
    # Hill's tetrahedron with cos α = 1/3 is scissors congruent to a cube:
    # its angles of cos √(5/8) and cos 1/4 (the obtuse one of cos −1/4
    # written as its supplement) satisfy 2θ₁ ≡ θ₂, which one search finds;
    # the report names that relation and the dropped right angle
    import scissors.dehn as dehn
    from oracles import hill_tetrahedron
    from scissors.cli import main

    searches = []
    search = dehn.find_angle_relations

    def recorded(angles, *args):
        searches.append(len(angles))
        return search(angles, *args)

    monkeypatch.setattr(dehn, "find_angle_relations", recorded)
    path = tmp_path / "hill.json"
    path.write_text(json.dumps(polytope_to_json(hill_tetrahedron())))
    assert main(["polytope-info", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    tensor = report["results"]["dehn_invariant"]
    assert report["results"]["dehn_verdict"] == "Zero"
    assert searches == [2]
    assert tensor["terms"] == [] and len(tensor["relations"]) == 1
    assert [c["type"] for c in report["certificates"]] == [
        "rational-angles", "angle-relations"]
    assert recheck_certificates(report)["recheck_passed"]
