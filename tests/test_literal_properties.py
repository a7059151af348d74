"""Property tests over number literals, polytope files, the chain complex
and group table files of `homology`, and whole command lines, fed to the
CLI.

Literals are rationals, or a root of a small integer polynomial (a product
of small factors, so reducible and non-squarefree ones come up) in an
interval that holds no root, one root or several.  Polytope files are
small vertex sets with cells drawn at random, so degenerate, overlapping
and non-manifold cells come up, each file perhaps broken in one place;
complex and group files likewise.  Command lines draw each argument from
a fixed pool of good and bad values.
Every input must end in a documented exit code with one stderr line, never
in a traceback.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from math import floor, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scissors.cli import SUITE_NAMES, main
from scissors.geom.convex import (
    box,
    regular_tetrahedron,
    transformed,
    unit_cube,
)
from scissors.io import polytope_to_json
from scissors.report import digest_of, strip_timing

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25,
                    database=None)


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(factors):
    p = [1]
    for f in factors:
        p = _times(p, f)
    return p


def _literal(factors, lo, hi):
    return {"minpoly": [str(c) for c in _product(factors)],
            "lo": f"{lo.numerator}/{lo.denominator}",
            "hi": f"{hi.numerator}/{hi.denominator}"}


small = st.integers(-4, 4)
fractions = st.builds(Fraction, small, st.integers(1, 4))
rationals = fractions.map(lambda q: f"rat:{q.numerator}/{q.denominator}")
factor = st.lists(small, min_size=2, max_size=3)  # degree ≤ 2
# any interval, or [k, k + 1] around √m for a factor x² − m
algebraics = st.one_of(
    st.builds(lambda fs, lo, width: _literal(fs, lo, lo + width),
              st.lists(factor, min_size=1, max_size=3), fractions,
              st.builds(Fraction, st.integers(-1, 6), st.integers(1, 4))),
    st.builds(lambda m, fs: _literal([[-m, 0, 1]] + fs, Fraction(isqrt(m)),
                                     Fraction(isqrt(m) + 1)),
              st.integers(2, 12), st.lists(factor, max_size=2)))
literals = st.one_of(rationals, algebraics)


def _value_bounds(lit):
    """(lo, hi) around the literal's value, read from the literal."""
    if isinstance(lit, str):
        q = Fraction(lit[4:])
        return q, q
    return Fraction(lit["lo"]), Fraction(lit["hi"])


def _shifted(lit, c: int):
    """The literal of value + c."""
    if isinstance(lit, str):
        q = Fraction(lit[4:]) + c
        return f"rat:{q.numerator}/{q.denominator}"
    p = [int(a) for a in lit["minpoly"]]
    shifted = [0]  # p(X − c) by Horner
    for a in reversed(p):
        shifted = _times(shifted, [-c, 1])
        shifted[0] += a
    lo, hi = _value_bounds(lit)
    return {"minpoly": [str(a) for a in shifted],
            "lo": f"{(lo + c).numerator}/{(lo + c).denominator}",
            "hi": f"{(hi + c).numerator}/{(hi + c).denominator}"}


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code:
        assert len(err.strip().splitlines()) == 1, err


def _scaled_cube(lit):
    """The unit cube with every coordinate 1 replaced by the literal."""
    obj = polytope_to_json(unit_cube())
    obj["vertices"] = [[lit if c == "rat:1/1" else c for c in v]
                       for v in obj["vertices"]]
    return obj


@SETTINGS
@given(literals)
def test_polytope_info_on_a_cube_scaled_by_a_literal(lit):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cube.json"
        path.write_text(json.dumps(_scaled_cube(lit)))
        code, out, err = _run("polytope-info", str(path))
    _assert_contract(code, err)
    if code == 0:
        assert json.loads(out)["results"]["cells"] > 0


def _volume_mismatch_report(tmp):
    a, b = Path(tmp) / "cube.json", Path(tmp) / "box.json"
    a.write_text(json.dumps(polytope_to_json(unit_cube())))
    b.write_text(json.dumps(polytope_to_json(box((0, 0, 0), (1, 1, 2)))))
    code, out, _ = _run("compare", str(a), str(b))
    assert code == 0
    return json.loads(out)


@SETTINGS
@given(literals, literals)
def test_recheck_of_replaced_volumes(lit_a, lit_b):
    # volume_b is shifted above volume_a's interval, so the two differ
    # whenever both literals are valid, and the digest is made to match
    with tempfile.TemporaryDirectory() as tmp:
        report = _volume_mismatch_report(tmp)
        (cert,) = report["certificates"]
        assert cert["type"] == "volume-mismatch"
        lo, hi = _value_bounds(lit_a)
        b_lo, _ = _value_bounds(lit_b)
        cert["volume_a"] = lit_a
        cert["volume_b"] = _shifted(lit_b, floor(max(hi, lo) - b_lo) + 1)
        body = strip_timing(report)
        body.pop("digest")
        report["digest"] = digest_of(body)
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        code, out, err = _run("recheck", str(path))
    _assert_contract(code, err)
    if code == 0:
        assert json.loads(out)["results"]["recheck_passed"]


# -- polytope files -----------------------------------------------------------

# malformed number literals and values that are no literal at all
BAD_LITERALS = ["rat:1/0", "rat:1/2/3", "rat:x", "1/2", "", 3, None, [],
                {"minpoly": ["1"], "lo": "0/1", "hi": "1/1"},
                {"minpoly": ["-2", "0", "1"], "lo": "0/1"},
                {"minpoly": ["-2", "0", "1"], "lo": "2/1", "hi": "1/1"},
                {"minpoly": ["-2", "0", "1"], "lo": "2/1", "hi": "3/1"}]
grid = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2]))


def _rat(q):
    return f"rat:{q.numerator}/{q.denominator}"


@st.composite
def polytope_objects(draw):
    """A polytope JSON object, then at most one fault among a bad `dim`, a
    ragged vertex, a bad literal, a bad cell index or cell, a degenerate or
    repeated cell, a bad `name` and a bad top level.  Its first cell is a
    corner simplex on a small grid; each extra grid point makes one more
    cell, either on the facet opposite the corner (a second cell that meets
    the first in a facet or overlaps it) or on random vertices (often
    degenerate, repeated, overlapping or touching the rest in a lower
    face)."""
    dim = draw(st.integers(1, 3))
    corner = [draw(grid) for _ in range(dim)]
    points = [corner] + [
        [c + (draw(st.sampled_from([1, 2, -1])) if j == i else 0)
         for j, c in enumerate(corner)] for i in range(dim)]
    points += draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                            max_size=2))
    n = len(points)
    cells = [list(range(dim + 1))]
    for k in range(dim + 1, n):
        cells.append(list(range(1, dim + 1)) + [k] if draw(st.booleans())
                     else draw(st.lists(st.integers(0, n - 1),
                                        min_size=dim + 1, max_size=dim + 1)))
    vertices = [[_rat(c) for c in p] for p in points]
    obj = {"dim": dim, "vertices": vertices, "cells": cells}
    fault = draw(st.sampled_from([None, None, "dim", "ragged", "literal",
                                  "index", "cell", "degenerate", "overlap",
                                  "name", "top"]))
    v = draw(st.integers(0, n - 1))
    if fault == "dim":
        obj["dim"] = draw(st.sampled_from([0, 4, -1, dim % 3 + 1, 3.9, "3",
                                           True, None]))
    elif fault == "ragged":
        vertices[v] = vertices[v][:-1] if draw(st.booleans()) \
            else vertices[v] + ["rat:0/1"]
    elif fault == "literal":
        vertices[v][draw(st.integers(0, dim - 1))] = \
            draw(st.sampled_from(BAD_LITERALS))
    elif fault == "index":
        obj["cells"][0][0] = draw(st.sampled_from([n, -1, "0", 1.5, None]))
    elif fault == "cell":
        obj["cells"].append(draw(st.sampled_from([[], [0], 7, "0123"])))
    elif fault == "degenerate":
        cells.append([v] * (dim + 1))
    elif fault == "overlap":
        cells.append(cells[0][::-1])
    elif fault == "name":
        obj["name"] = draw(st.sampled_from([5, None, ["a"]]))
    elif fault == "top":
        obj = draw(st.sampled_from([[obj], "polytope",
                                    {"dim": dim, "cells": obj["cells"]}]))
    return obj


@settings(derandomize=True, deadline=None, max_examples=100,
          database=None)
@given(polytope_objects())
def test_polytope_info_on_random_polytope_files(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polytope.json"
        path.write_text(json.dumps(obj))
        code, out, err = _run("polytope-info", str(path))
    _assert_contract(code, err)
    if code == 0:
        assert json.loads(out)["results"]["cells"] > 0


# -- chain complex and group table files --------------------------------------

# top levels that are no complex or group table object
TOPS = ["complex", 5, None, {"boundaries": {}}, {"table": 3}]


@st.composite
def complex_objects(draw):
    """A `homology --complex` JSON object on a few consecutive degrees:
    random boundary entries (so ∂∂ ≠ 0 comes up), perhaps a bad degree key,
    a bad rank, an entry out of range, a ragged or non-integer entry, or a
    top level that is no object."""
    lo = draw(st.integers(-1, 1))
    degrees = range(lo, lo + draw(st.integers(1, 4)))
    ranks = {str(k): draw(st.integers(0, 3)) for k in degrees}
    boundaries = {}
    for k in degrees:
        rows, cols = ranks.get(str(k - 1), 0), ranks[str(k)]
        if draw(st.sampled_from([True, True, False])) and rows and cols:
            boundaries[str(k)] = [
                [draw(st.integers(0, rows - 1)),
                 draw(st.integers(0, cols - 1)), draw(st.integers(-2, 2))]
                for _ in range(draw(st.integers(1, 4)))]
    obj = {"ranks": ranks, "boundaries": boundaries}
    fault = draw(st.sampled_from([None, None, "key", "rank", "range",
                                  "entry", "dd", "top"]))
    k = str(draw(st.sampled_from(degrees)))
    if fault == "dd":  # Z → Z → Z with both maps nonzero
        a, b = draw(st.sampled_from([1, -1, 2])), draw(st.sampled_from([1, 3]))
        ranks.update({str(lo - 1): 1, str(lo): 1, str(lo + 1): 1})
        boundaries.update({str(lo): [[0, 0, a]], str(lo + 1): [[0, 0, b]]})
    elif fault == "key":
        ranks[draw(st.sampled_from(["1_0", " 0 ", "x", "", "+1", "1.0"]))] = 1
    elif fault == "rank":
        ranks[k] = draw(st.sampled_from([-1, "1", True, 1.5, None, [1]]))
    elif fault == "range":
        boundaries.setdefault(k, []).append(
            draw(st.sampled_from([[-1, 0, 1], [0, 9, 1], [9, 0, 1]])))
    elif fault == "entry":
        boundaries.setdefault(k, []).append(
            draw(st.sampled_from([[0, 0], [0, 0, 1, 1], [0, 0, "2"],
                                  [0, 0, 2.5], [0, True, 1], [None, 0, 1],
                                  5, "001"])))
    elif fault == "top":
        obj = draw(st.sampled_from([[obj]] + TOPS))
    return obj


@st.composite
def group_tables(draw):
    """A `homology --group` table file of order at most 4: the cyclic
    group's table with its entries perhaps shuffled or made no group, a
    ragged or out-of-range or non-integer row entry, or a top level that is
    no object."""
    n = draw(st.integers(1, 4))
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    obj = {"table": table}
    fault = draw(st.sampled_from([None, None, "entry", "ragged", "value",
                                  "name", "top"]))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "entry":
        table[a][b] = draw(st.integers(0, n - 1))
    elif fault == "ragged":
        table[a] = table[a][:-1] if draw(st.booleans()) else table[a] + [0]
    elif fault == "value":
        table[a][b] = draw(st.sampled_from([n, -1, "0", 1.5, True, None]))
    elif fault == "name":
        obj["name"] = draw(st.sampled_from([5, None, ["a"], "G"]))
    elif fault == "top":
        obj = draw(st.sampled_from([[obj]] + TOPS))
    return obj


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(complex_objects())
def test_homology_on_random_complex_files(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        path.write_text(json.dumps(obj))
        code, out, err = _run("homology", "--complex", str(path))
    assert code in (0, 2), err
    _assert_contract(code, err)
    if code == 0:
        assert set(json.loads(out)["results"]["homology"]) == \
            set(obj["ranks"])


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(group_tables(), st.sampled_from(["0", "1", "3", "5"]))
def test_group_homology_on_random_table_files(obj, max_degree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(obj))
        code, out, err = _run("homology", "--group", str(path),
                              "--max-degree", max_degree)
    assert code in (0, 2, 4), err
    _assert_contract(code, err)
    if code == 0:
        assert len(json.loads(out)["results"]["homology"]) == \
            int(max_degree) + 1


# -- command lines ------------------------------------------------------------

# "@name" stands for the file `name` in the fixture directory; missing.json
# is never written and dir is a directory
POLYTOPE_FILES = ["@cube.json", "@cube_rot.json", "@box112.json",
                  "@tetra.json"]
BAD_FILES = ["@missing.json", "@dir", "@empty.json", "@truncated.json",
             "@list.json", "@nan.json", "@latin1.json", "@nested.json"]
# each pool holds small in-range values, out-of-range and non-numeric ones
HEIGHT_BOUNDS = ["1", "20", "0", "-1", "10001", "x", "", "2.5"]
SEEDS = ["0", "7", "-5", "x", ""]
CASES = ["1", "0", "-1", "1001", "x"]
# a built-in algebra caps the degree at 3 (1 for mat4)
ALGEBRA_DEGREES = ["0", "1", "3", "4", "-1", "x"]
GROUPS = ["1", "Z/2", "Z/4", "S3", "Z/0", "Z/-3", "Z/x", "Z/" + "9" * 12,
          "@z2_table.json"]
GROUP_DEGREES = ["0", "1", "3", "5", "-1", "x"]
MODULES = ["trivialZ", "@z2_sign.json"]
TOWERS = ["t; s: s^2 = 1 - t^2", "t; s: s^2 = ((", "", "t"]


def _maybe(draw, flag, values):
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) \
        else []


@st.composite
def cli_argv(draw):
    """A command line of any command, each argument drawn from a fixed
    pool: a good value, or one out of range, non-numeric, a missing or
    malformed file, or an unknown name.  In-range values are small, so
    that no command line runs much longer than a second."""
    files = st.sampled_from(POLYTOPE_FILES + BAD_FILES)
    argv = _maybe(draw, "--format", ["json", "text", "xml"])
    command = draw(st.sampled_from([
        "polytope-info", "compare", "verify", "hochschild", "homology",
        "phi", "recheck", "no-such-command", None]))
    if command is None:
        return argv
    argv.append(command)
    if command == "polytope-info":
        argv.append(draw(files))
    elif command == "compare":
        argv += [draw(files), draw(files)]
        argv += ["--recheck"] if draw(st.booleans()) else []
    elif command == "verify":
        # --cases is always given: the default of 25 takes seconds
        argv += [draw(st.sampled_from(SUITE_NAMES + ("no-such-suite",))),
                 "--cases", draw(st.sampled_from(CASES))]
        argv += _maybe(draw, "--seed", SEEDS)
    elif command == "hochschild":
        argv += ["--algebra", draw(st.sampled_from(
            ["Q", "QI", "quat", "mat2", "mat4", "no-such-algebra"]
            + BAD_FILES))]
        argv += _maybe(draw, "--max-degree", ALGEBRA_DEGREES)
    elif command == "homology":
        argv += _maybe(draw, "--group", GROUPS)
        argv += _maybe(draw, "--complex", ["@complex.json"] + BAD_FILES)
        argv += _maybe(draw, "--module", MODULES + BAD_FILES)
        argv += _maybe(draw, "--max-degree", GROUP_DEGREES)
    elif command == "phi":
        argv += _maybe(draw, "--tensor", ["@t.json"] + BAD_FILES)
        argv += _maybe(draw, "--tower", TOWERS)
    elif command == "recheck":
        argv.append(draw(st.sampled_from(["@report.json", "@cube.json"]
                                         + BAD_FILES)))
    if command in ("polytope-info", "compare"):
        argv += _maybe(draw, "--height-bound", HEIGHT_BOUNDS)
        argv += ["--exact-strict"] if draw(st.booleans()) else []
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    rot = [(Fraction(3, 5), Fraction(-4, 5), 0),
           (Fraction(4, 5), Fraction(3, 5), 0), (0, 0, 1)]
    objects = {
        "cube.json": polytope_to_json(unit_cube()),
        "cube_rot.json": polytope_to_json(
            transformed(unit_cube(), rot, shift=(2, 1, 0))),
        "box112.json": polytope_to_json(box((0, 0, 0), (1, 1, 2))),
        "tetra.json": polytope_to_json(regular_tetrahedron()),
        "list.json": [1, 2],
        "nan.json": {"dim": float("nan"), "vertices": [], "cells": []},
        "t.json": {"terms": [{"length": "rat:1/1", "cos": "t",
                              "sin": "s"}]},
        "z2_table.json": {"table": [[0, 1], [1, 0]]},
        "z2_sign.json": {"rank": 1, "action": {"0": [[1]], "1": [[-1]]}},
        "complex.json": {"ranks": {"0": 1, "1": 1},
                         "boundaries": {"1": [[0, 0, 2]]}},
    }
    for name, obj in objects.items():
        (root / name).write_text(json.dumps(obj))
    (root / "dir").mkdir()
    (root / "empty.json").write_text("")
    (root / "truncated.json").write_text('{"dim": 3, "vertices": [[0')
    (root / "latin1.json").write_bytes('{"name": "Zerlegungsgleichheit \xe4"}'
                                      .encode("latin-1"))
    (root / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _run("compare", str(root / "cube.json"),
                          str(root / "box112.json"))
    assert code == 0, err
    (root / "report.json").write_text(out)
    return root


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(cli_argv())
def test_cli_on_drawn_command_lines(argv_files, argv):
    argv = [str(argv_files / a[1:]) if a.startswith("@") else a
            for a in argv]
    code, out, err = _run(*argv)
    _assert_contract(code, err)
    if code == 0:
        assert not err, err
