"""Every function and method in `src/scissors` is reached by a command, a
suite or the benchmark.

The sweep runs in a fresh interpreter: the process-wide caches (a flag's
faces, the built-in algebras, the number fields, the norms, the 2cos minimal
polynomials) would hide from it what earlier tests already warmed.  Under
`sys.setprofile` it calls `cli.main` on every command and flag, and the
process entry `cli.run` once with `os._exit` stubbed, runs every suite with
a few cases, and builds and runs once the in-process items of the benchmark
and its `cli` items.  Then every `def` in the package, parsed with
`ast`, must have been entered, or be exempt: a name the benchmark's tracer
wraps (it looks each one up), a name of `scissors.__all__`, a dunder method,
or an entry of `EXEMPT` with its reason.

The test also checks that the sweep ran every command, flag and suite of
the parser.  Run as a script (`python tests/test_reach.py OUT_DIR`, with
`src` on the path) it does the sweep and writes the entered definitions and
the command lines it ran to `OUT_DIR/entered.json`.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from test_bench_hooks import load_tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scissors"
PERFBENCH = ROOT / "perfbench"

# qualified name -> why the sweep need not enter it
EXEMPT = {
    "scissors.algebraic.AlgebraicReal.approx":
        "only called by `__float__`, which `__repr__` reads",
    "scissors.dehn.DehnTensor.pairs":
        "only called by `kahler.phi_of_tensor`, which the tracer wraps",
    "scissors.geom.Simplex.key": "only called by `__eq__` and `__hash__`",
    "scissors.geom.SimplexChain.terms": "only called by `__iter__`",
    "scissors.homology.DoubleComplex._get":
        "only called by `DoubleComplex.validate`",
    "scissors.homology.DoubleComplex.rank":
        "only called by `DoubleComplex.validate` and `.total_complex`, "
        "which the tracer wraps",
    "scissors.homology.DoubleComplex.validate":
        "only called by `DoubleComplex.__init__`; `.total_complex` is "
        "wrapped by the tracer",
    "scissors.homology.SparseIntMatrix.items":
        "only called by `DoubleComplex.validate` and `.total_complex`",
    "scissors.homology.flags.FlagComplex.tuple_span_index":
        "only called by `verify_flag_nullhomotopy`, which the tracer wraps, "
        "for a tuple whose span was never looked up",
    "scissors.homology.simplicial._Subdivision._scalar_mean":
        "a barycenter coordinate that is no fraction: `sd_power`, which the "
        "tracer wraps, makes it for a chain with algebraic vertices",
    "scissors.linalg._combine":
        "only called for the transforms of `SparseIntMatrix.smith`, which "
        "the tracer wraps",
    "scissors.numberfield.QuadField.inv":
        "the field operation of `Num` division in a quadratic extension; "
        "no command divides by such an element",
    "scissors.poly._divide":
        "the squarefree restart of `count_roots`, which the tracer wraps, "
        "on a polynomial with a repeated factor",
    "scissors.poly._prs_gcd":
        "the exact fallback of `_gcd` when the heuristic gcd gives up",
    "scissors.rng.SplitMix64.choice":
        "a draw of the seeded generator that the tests use; the suites "
        "draw with `randint` and `fraction`",
}


def definitions():
    """{qualified name: (file, first line)} of every function and method
    of the package, a nested one included; the first line is that of the
    first decorator, as in a code object's `co_firstlineno`."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = f"{prefix}.{child.name}"
                    found[name] = (str(path), first)
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)
        walk(ast.parse(path.read_text(), str(path)), module)
    return found


def traced_names():
    """The names the benchmark's tracer wraps, read as test_bench_hooks
    reads them."""
    return {f"{module}.{name}"
            for groups in load_tracer().TARGETS.values()
            for module, names in groups for name in names}


def public_names():
    """The qualified names of the functions in `scissors.__all__`."""
    import scissors
    objs = (getattr(scissors, name) for name in scissors.__all__)
    return {f"{obj.__module__}.{obj.__qualname__}" for obj in objs}


def exempt_reason(name, traced, public):
    short = name.rpartition(".")[2]
    if name in traced:
        return "wrapped by the benchmark's tracer"
    if name in public:
        return "in scissors.__all__"
    if short.startswith("__") and short.endswith("__"):
        return "dunder method"
    return EXEMPT.get(name)


# -- the sweep, in its own interpreter ----------------------------------------

ZERO, ONE = "rat:0/1", "rat:1/1"


def _root(c, lo, hi):
    """The literal of √c in (lo, hi)."""
    return {"minpoly": [str(-c), "0", "1"], "lo": str(lo), "hi": str(hi)}


def _rat(x):
    return f"rat:{x}/1"


def _fixtures(work):
    """Inputs the benchmark's placed shapes leave out, written as JSON."""
    def write(name, obj):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    tet = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {
        "square": write("square.json", {
            "dim": 2, "name": "square",
            "vertices": [[ZERO, ZERO], [ONE, ZERO],
                         # 1 as a root of the reducible x² − 1, and as the
                         # double root of (x − 1)²(x + 1)
                         [{"minpoly": ["-1", "0", "1"], "lo": "0", "hi": "2"},
                          ONE],
                         [ZERO, {"minpoly": ["1", "-1", "-1", "1"],
                                 "lo": "0", "hi": "2"}]],
            "cells": [[0, 1, 2], [0, 2, 3]]}),
        "segment": write("segment.json", {
            "dim": 1, "vertices": [[ZERO], [_rat(2)]], "cells": [[0, 1]]}),
        # cos² of a dihedral angle irrational: (0,0,0),(1,0,0),(0,1,0),
        # (0,0,1+√2)
        "tet_cos2": write("tet_cos2.json", {
            "dim": 3,
            "vertices": [[_rat(c) for c in p] for p in tet[:3]]
            + [[ZERO, ZERO, {"minpoly": ["-1", "-2", "1"],
                             "lo": "2", "hi": "3"}]],
            "cells": [[0, 1, 2, 3]]}),
        # a dihedral angle of 2π/5 at the edge on the z axis:
        # (0,0,0),(0,0,1),(1,0,0),(1,tan 72°,0)
        "tet_72": write("tet_72.json", {
            "dim": 3,
            "vertices": [[ZERO, ZERO, ZERO], [ZERO, ZERO, ONE],
                         [ONE, ZERO, ZERO],
                         [ONE, {"minpoly": ["5", "0", "-10", "0", "1"],
                                "lo": "3", "hi": "4"}, ZERO]],
            "cells": [[0, 1, 2, 3]]}),
        # two rational tetrahedra of volume 1/6 and distinct Dehn invariants
        "tet_t1": write("tet_t1.json", {
            "dim": 3, "vertices": [[_rat(c) for c in p] for p in tet],
            "cells": [[0, 1, 2, 3]]}),
        "tet_t2": write("tet_t2.json", {
            "dim": 3, "vertices": [[ZERO, ZERO, ZERO], [_rat(2), ZERO, ZERO],
                                   [ZERO, ONE, ZERO], [ZERO, ZERO, "rat:1/2"]],
            "cells": [[0, 1, 2, 3]]}),
        # literals of two quadratic fields
        "tet_sqrt23": write("tet_sqrt23.json", {
            "dim": 3,
            "vertices": [[ZERO, ZERO, ZERO], [_root(2, 1, 2), ZERO, ZERO],
                         [ZERO, _root(3, 1, 2), ZERO], [ZERO, ZERO, ONE]],
            "cells": [[0, 1, 2, 3]]}),
        "complex": write("complex.json", {
            "ranks": {"0": 3, "1": 3},
            "boundaries": {"1": [[0, 0, -1], [1, 0, 1], [1, 1, -1],
                                 [2, 1, 1], [2, 2, -1], [0, 2, 1]]}}),
        "bad_complex": write("bad_complex.json", {"ranks": {"0": "x"}}),
        # Q(i) on the basis i, 1: the unit second
        "algebra": write("algebra.json", {
            "dim": 2, "mul": [[[[1, "-1"]], [[0, 1]]],
                              [[[0, 1]], [[1, 1]]]],
            "unit": ["0", "1"], "labels": ["i", "1"], "name": "QI swapped"}),
        "group": write("group.json", {
            "name": "Z/2", "table": [[0, 1], [1, 0]]}),
        "module": write("module.json", {
            "rank": 1, "action": {"0": [[1]], "1": [[-1]]}}),
        "tensor": write("tensor.json", {"terms": [
            {"length": "rat:1/2", "cos": "t", "sin": "s"},
            {"length": "t", "cos": "rat:1/3"}]}),
        "tensor_literal": write("tensor_literal.json", {"terms": [
            {"length": _root(2, 1, 2), "cos": "t"}]}),
    }


def _main(argv, ran):
    """cli.main on argv in this process, argv appended to `ran`: (exit
    code, stdout, stderr)."""
    from scissors import cli
    ran.append(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run(argv, ran):
    """cli.run, the process entry, on argv in this process with `os._exit`
    stubbed: the exit codes it would have ended the process with."""
    from scissors import cli
    ran.append(argv)
    exits = []
    saved = sys.argv, os._exit
    sys.argv, os._exit = ["scissors", *argv], exits.append
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.run()
    finally:
        sys.argv, os._exit = saved
    return exits


def _commands(work, shapes, ran):
    """Every command and flag, on the placed shapes and the fixtures, and
    every suite."""
    f = _fixtures(work)
    f["not_json"] = os.path.join(work, "not_json.json")
    with open(f["not_json"], "w") as fh:
        fh.write("{")
    report = os.path.join(work, "report.json")
    runs = []
    for fmt in ("json", "text"):
        runs.append(["--format", fmt, "polytope-info", shapes["tetra"]])
    for name in ("square", "segment", "tet_cos2", "tet_72", "tet_sqrt23"):
        runs.append(["polytope-info", f[name]])
    # the regular octahedron of volume 1, over ℚ(∛(3/4)): against the
    # tetrahedron of volume 1 its Dehn difference needs an angle relation
    from scissors.algebraic import make_algebraic
    from scissors.geom.convex import regular_octahedron, scaled_simplices
    from scissors.io import polytope_to_json
    octa = os.path.join(work, "octa_vol1.json")
    with open(octa, "w") as fh:
        json.dump(polytope_to_json(scaled_simplices(
            regular_octahedron(), make_algebraic([-3, 0, 0, 4], (0, 1)))), fh)
    # Hill's tetrahedron with cos α = 1/3: its invariant vanishes by one
    # relation that the search finds
    from oracles import hill_tetrahedron
    hill = os.path.join(work, "hill.json")
    with open(hill, "w") as fh:
        json.dump(polytope_to_json(hill_tetrahedron()), fh)
    # the tetrahedron of volume 1 in two cells, cut at the point a third of
    # the way along an edge: the halves of that edge, of lengths √y and
    # √(4y), merge through the root of 4y that `sqrt_over` finds in F(√y),
    # whose sign `QuadField.sign` takes
    from scissors.io import polytope_from_json
    corners = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    cut = polytope_from_json({
        "dim": 3, "cells": [[0, 4, 2, 3], [4, 1, 2, 3]],
        "vertices": [[_rat(c) for c in p] for p in corners]
        + [[ONE, "rat:1/3", "rat:1/3"]]})
    tetra_cut = os.path.join(work, "tetra_cut.json")
    with open(tetra_cut, "w") as fh:
        json.dump(polytope_to_json(scaled_simplices(
            cut, make_algebraic([-3, 0, 0, 8], (0, 1)))), fh)
    runs += [
        ["compare", tetra_cut, shapes["tetra_vol1"]],
        ["polytope-info", hill],
        ["compare", shapes["tetra_vol1"], octa],
        ["polytope-info", "--exact-strict", "--height-bound", "5",
         shapes["octa"]],
        ["polytope-info", f["not_json"]],
        ["compare", "--recheck", f["tet_cos2"], f["tet_sqrt23"]],
        ["compare", "--exact-strict", "--height-bound", "8",
         shapes["cube"], shapes["cube_b"]],
        ["compare", f["square"], f["square"]],
        ["compare", "--recheck", f["tet_t1"], f["tet_t2"]],
        ["hochschild", "--algebra", f["algebra"], "--max-degree", "1"],
        ["hochschild", "--algebra", "mat4", "--max-degree", "3"],
        ["homology", "--complex", f["complex"]],
        ["homology", "--complex", f["bad_complex"]],
        ["homology", "--group", "1"],
        ["homology", "--group", f["group"], "--module", f["module"],
         "--max-degree", "2"],
        ["homology"],
        ["phi", "--tensor", f["tensor"], "--tower",
         "t; s: s^2 = 1 - t^2; c: c^3 = t"],
        # towers that parse, with a tensor that does not fit them: two
        # quadratic generators, and a relation whose discriminant is
        # tested for a square
        ["phi", "--tensor", f["tensor"], "--tower",
         "t; a: a^2 = 2; b: b^2 = 3"],
        ["phi", "--tensor", f["tensor"], "--tower", "t; s: s^2 = t^2 + 1"],
        ["phi", "--tensor", f["tensor_literal"], "--tower", "t"],
        # argparse errors
        ["polytope-info", "--height-bound", "0", f["square"]],
        ["verify", "tau", "--cases", "x"],
        ["nonsense"],
    ]
    for argv in runs:
        _main(argv, ran)
    assert _run(["homology", "--complex", f["complex"]], ran) == [0]
    # a report saved, rechecked, and rechecked again once tampered
    code, text, _ = _main(["compare", shapes["cube"], shapes["tetra_vol1"]],
                          ran)
    with open(report, "w") as fh:
        fh.write(text)
    _main(["recheck", report], ran)
    tampered = json.loads(text)
    tampered["results"]["verdict"]["tag"] = "Congruent_DSJ"
    for cert in tampered["certificates"]:
        cert.pop("type", None)
    with open(report, "w") as fh:
        json.dump(tampered, fh)
    _main(["recheck", report], ran)
    from scissors.cli import SUITE_NAMES
    for suite in SUITE_NAMES:
        _main(["verify", suite, "--seed", "1", "--cases", "2"], ran)


def _benchmark(work, ran):
    """Runs the in-process items of `phi_boundary` and `chains` and the
    commands of `cli`; returns the placed shapes of `cli` by name."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    for workload in ("phi_boundary", "chains"):
        for item in workloads.items_for(workload, 1, 0, work):
            item.finish(item.run())
    shapes_dir = os.path.join(work, "cli")
    # the commands of the cli items run in this process, not in their own
    prefix = len(workloads.CLI_PREFIX)
    workloads.subprocess = types.SimpleNamespace(
        run=lambda cmd, **_: subprocess.CompletedProcess(
            cmd, *_main(cmd[prefix:], ran)))
    for item in workloads.cli_items(1, 0, shapes_dir):
        item.finish(item.run())
    shapes = {name[:-5]: os.path.join(shapes_dir, name)
              for name in os.listdir(shapes_dir)}
    return shapes


def sweep(out_dir):
    entered, ran = set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        shapes = _benchmark(out_dir, ran)
        _commands(out_dir, shapes, ran)
    finally:
        sys.setprofile(None)
    keys = sorted({(c.co_filename, c.co_firstlineno) for c in entered})
    with open(os.path.join(out_dir, "entered.json"), "w") as fh:
        json.dump({"entered": keys, "argv": ran}, fh)


def parser_words():
    """{command: the flags and choices its parser takes}, the top-level
    parser's under None."""
    from scissors.cli import build_parser

    def words(parser):
        out = set()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                continue
            out.update(action.option_strings)
            if not action.option_strings and action.choices:
                out.update(action.choices)
        return out - {"-h", "--help"}

    top = build_parser()
    sub = next(a for a in top._actions
               if isinstance(a, argparse._SubParsersAction))
    return {None: words(top),
            **{name: words(p) for name, p in sub.choices.items()}}


def test_every_definition_is_reached(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    swept = json.loads((tmp_path / "entered.json").read_text())
    # every command, flag and suite went through cli.main
    unused = []
    for command, words in parser_words().items():
        used = set().union(*(argv for argv in swept["argv"]
                             if command is None or command in argv))
        unused += [f"{command or 'scissors'} {w}" for w in words - used]
        if command is not None and not used:
            unused.append(command)
    assert not unused, "not run by the sweep:\n" + "\n".join(sorted(unused))
    entered = {tuple(k) for k in swept["entered"]}
    defs = definitions()
    traced, public = traced_names(), public_names()
    missed = sorted(
        name for name, key in defs.items()
        if key not in entered and not exempt_reason(name, traced, public))
    assert not missed, "entered by no command, suite or benchmark item:\n" + \
        "\n".join(missed)
    stale = sorted(name for name in EXEMPT
                   if name not in defs or defs[name] in entered)
    assert not stale, "exempt, but entered or no longer defined:\n" + \
        "\n".join(stale)


if __name__ == "__main__":
    sweep(sys.argv[1])
