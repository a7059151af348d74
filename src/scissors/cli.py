"""Command-line façade: polytope reports, congruence verdicts, homology and
Hochschild tables, differential-form images, and certificate rechecks.

Exit codes: 0 success (verdicts live in the payload), 1 failed verification
suite, 2 input error, 3 geometry validation error, 4 resource cap, 5 internal
invariant violation or a report that could not be written (a closed pipe, a
full device), each with one line on stderr.

Each command imports the layers it uses when it runs, so that, say,
`homology` builds no number field and `polytope-info` no Hochschild
algebra.  The module itself imports only `argparse`, `os`, `sys` and
`errors`; the readers (`io`, `numbers`) load in the command that reads, and
`report` with `json` once the arguments are parsed, so `--help` and every
usage error end before any of them load.  A command loads no module it
never enters: `polytope-info` and `compare` on the stock shapes load no
`linalg`, `homology --group` no `numbers`, `hochschild` on a builtin
algebra neither `io` nor `numbers`, and `phi` on a tower of quadratic
relations no `factoring`; `report` hashes with the interpreter's own
SHA-256, not OpenSSL's.  `main` builds the subparser of the command its
line starts with and no other; the full parser serves the top-level help,
an unknown or missing command and a line that starts with `--format`.

A process enters by `run`, the `scissors` script and `python -m
scissors.cli` alike: it calls `main`, flushes stdout and stderr, and ends
the process with `os._exit`, so the interpreter's teardown (full garbage
collections over about 13,300 objects and the clearing of every module,
7–10 ms) is skipped.  `main` itself returns the exit code and leaves the
interpreter alone, so the tests and the benchmark's tracer, which call
it inside a process that goes on running, keep the normal exit.

`polytope-info` and `compare` emit the certificates that `dehn` builds
for their verdicts as they are.
"""

import argparse
import os
import sys

from .errors import (
    DEFAULT_HEIGHT_BOUND,
    MAX_HEIGHT_BOUND,
    DegreeOutOfRange,
    GeometryError,
    InvalidComplex,
    ParseError,
    SizeCap,
    SizeCapExceeded,
    UnknownSuite,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

MAX_CASES = 1000  # `verify --cases`; the acceptance runs use up to 200
# the defaults of `homology --module` and `--max-degree`, which only a
# group reads: `--complex` with another value is an input error
GROUP_MODULE, GROUP_MAX_DEGREE = "trivialZ", 3

# the subcommands, in the order of the parser's help
COMMANDS = ("polytope-info", "compare", "verify", "hochschild", "homology",
            "phi", "recheck")
# the names in the suite registry (suites.SUITES), so that building the
# parser loads no suite; a test checks that the two agree
SUITE_NAMES = ("bar-shapiro", "dissection", "flag-nullhomotopy", "hkr",
               "hochschild", "phi-boundary", "sd-homotopy", "ses-audit",
               "spin", "tau", "torus")


def cmd_polytope_info(args) -> dict:
    from .dehn import dehn_invariant, is_zero, tensor_certificates
    from .io import load_json, polytope_from_json
    from .numbers import as_scalar, format_number

    obj = load_json(args.file)
    p = polytope_from_json(obj, exact_strict=args.exact_strict)
    results = {
        "name": p.name,
        "dim": p.dim,
        "cells": len(p.chain),
        "volume": format_number(as_scalar(p.volume())),
    }
    certificates = []
    if p.dim == 3:
        results["edges"] = [e.to_json() for e in p.edges()]
        tensor = dehn_invariant(p, args.height_bound)
        results["dehn_invariant"] = tensor.to_json()
        results["dehn_verdict"] = is_zero(tensor)
        certificates = tensor_certificates(tensor)
    return {"results": results, "certificates": certificates,
            "inputs": [args.file]}


def cmd_compare(args) -> dict:
    from .dehn import compare_polytopes
    from .io import load_json, polytope_from_json

    a = polytope_from_json(load_json(args.file_a),
                           exact_strict=args.exact_strict)
    b = polytope_from_json(load_json(args.file_b),
                           exact_strict=args.exact_strict)
    verdict = compare_polytopes(a, b, args.height_bound)
    return {"results": {"verdict": verdict.to_json()},
            "certificates": verdict.certificates,
            "inputs": [args.file_a, args.file_b]}


def cmd_verify(args) -> dict:
    from . import suites  # the registry; each suite imports its layers on use

    outcome = suites.run_suite(args.suite, args.seed, args.cases)
    out = {"results": outcome, "certificates": [], "inputs": [],
           "seed": args.seed}
    if not outcome["all_pass"]:
        failed = outcome["cases"] - outcome["passed"]
        out["exit_code"] = EXIT_SUITE_FAILED
        out["failure"] = (f"suite failed: {failed} of {outcome['cases']} "
                          f"cases of {args.suite}")
    return out


def cmd_hochschild(args) -> dict:
    from .hochschild import (
        MAX_DIM,
        algebra_from_json,
        builtin_algebra,
        hochschild_homology_table,
    )

    inputs = []
    if args.algebra in ("Q", "QI", "quat", "mat2", "mat4"):
        A = builtin_algebra(args.algebra)
    else:
        from .io import load_json
        A = algebra_from_json(load_json(args.algebra))
        inputs.append(args.algebra)
    # HH_n takes the chains of degree n + 1, about dim^(n+2) tensors; every
    # algebra has dim <= MAX_DIM, so degree 0 is always allowed
    cap = next(n for n in (3, 2, 1, 0) if A.dim ** (n + 2) <= MAX_DIM ** 2)
    if args.max_degree > cap:
        raise SizeCapExceeded(f"max degree for {args.algebra} is {cap}")
    table = hochschild_homology_table(A, args.max_degree)
    return {"results": {"algebra": args.algebra,
                        "hh_dimensions": table},
            "certificates": [], "inputs": inputs}


def cmd_homology(args) -> dict:
    from .io import (
        complex_from_json,
        group_from_spec,
        load_json,
        module_from_spec,
    )

    if args.complex:
        cx = complex_from_json(load_json(args.complex))
        values = {str(k): str(cx.homology(k)) for k in cx.degrees()}
        return {"results": {"complex": args.complex, "homology": values},
                "certificates": [], "inputs": [args.complex]}
    from .homology.groups import group_homology

    group = group_from_spec(args.group)
    module = module_from_spec(group, args.module)
    hs = group_homology(group, module, args.max_degree)
    return {"results": {
        "group": args.group,
        "module": args.module,
        "homology": [str(h) for h in hs],
    }, "certificates": [], "inputs": []}


def cmd_phi(args) -> dict:
    from .io import load_json, tensor_terms_from_json
    from .kahler import FieldTower, phi_map

    tower = FieldTower(args.tower)
    terms = tensor_terms_from_json(load_json(args.tensor))
    parsed = []
    for length, cos, sin in terms:
        length = _tower_number(length)
        cos = _tower_number(cos)
        if sin is None:
            parsed.append((length, cos))
        else:
            parsed.append((length, cos, _tower_number(sin)))
    image = phi_map(parsed, tower)
    return {"results": {
        "tower": tower.spec,
        "image": image.to_json(),
        "rendered": image.render(),
    }, "certificates": [], "inputs": [args.tensor]}


def _tower_number(value):
    """Tensor entries are tower expressions or exact number literals."""
    if isinstance(value, str) and value.startswith("rat:"):
        from .numbers import parse_fraction
        return parse_fraction(value[4:])
    if isinstance(value, dict):
        from .kahler import NotExpressible
        raise NotExpressible(
            "irrational algebraic literals contribute 0; write the term "
            "with a tower expression instead")
    return value


def cmd_recheck(args) -> dict:
    from .io import load_json
    from .report import canonical_json, recheck_certificates, strip_timing

    report = load_json(args.report)
    if not isinstance(report, dict):
        raise ParseError(f"{args.report}: a report must be a JSON object")
    # an object without a digest is no report, so no recheck of it fails
    if not isinstance(report.get("digest"), str):
        raise ParseError(f"{args.report}: the report needs a 'digest' field "
                         "of type str")
    outcome = recheck_certificates(report, args.report)
    # the input is the report less its timing, so that reruns agree
    body = canonical_json(strip_timing(report)).encode()
    out = {"results": outcome, "certificates": [], "inputs": [body]}
    if not outcome["recheck_passed"]:
        out["exit_code"] = EXIT_SUITE_FAILED
        out["failure"] = _recheck_failure(outcome)
    return out


def _recheck_failure(outcome: dict) -> str:
    """The one stderr line of a failed recheck."""
    failed = sum(1 for c in outcome["checks"] if not c["pass"])
    what = [f"{failed} of {len(outcome['checks'])} certificates failed"]
    if not outcome["digest_ok"]:
        what.append("the digest does not match")
    return "recheck failed: " + "; ".join(what)


def _render_text(report: dict) -> str:
    lines = []

    def walk(obj, prefix):
        if isinstance(obj, dict):
            width = max((len(str(k)) for k in obj), default=0)
            for k in sorted(obj, key=str):
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{prefix}{k}:")
                    walk(v, prefix + "  ")
                else:
                    lines.append(f"{prefix}{str(k):<{width}}  {v}")
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{prefix}- [{i}]")
                    walk(v, prefix + "  ")
                else:
                    lines.append(f"{prefix}- {v}")

    walk(report, "")
    return "\n".join(lines)


def _int_in(lo, hi=None):
    """argparse type: an integer no smaller than `lo` and, if `hi` is given,
    no larger than it."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in one `input error:` line and
    exit 2; the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or, given one of COMMANDS, of that
    command alone: its usage, help, errors and namespace are those of the
    full parser on a command line that starts with its name."""
    ap = _Parser(
        prog="scissors",
        description="Exact scissors-congruence invariants and the finite "
                    "homological identities behind them.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, summary):
        """The subparser of `name`, or None when another command is the
        one built."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        return p

    if p := add("polytope-info", cmd_polytope_info,
                "volume, edges, Dehn invariant"):
        p.add_argument("file")
        p.add_argument("--height-bound", type=_int_in(1, MAX_HEIGHT_BOUND),
                       default=DEFAULT_HEIGHT_BOUND)
        p.add_argument("--exact-strict", action="store_true")

    if p := add("compare", cmd_compare, "scissors-congruence verdict"):
        p.add_argument("file_a")
        p.add_argument("file_b")
        p.add_argument("--height-bound", type=_int_in(1, MAX_HEIGHT_BOUND),
                       default=DEFAULT_HEIGHT_BOUND)
        p.add_argument("--exact-strict", action="store_true")
        p.add_argument("--recheck", action="store_true",
                       help="immediately re-verify the emitted certificates")

    if p := add("verify", cmd_verify, "run a named property suite"):
        p.add_argument("suite", choices=SUITE_NAMES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cases", type=_int_in(1, MAX_CASES), default=25)

    if p := add("hochschild", cmd_hochschild, "HH dimension table"):
        p.add_argument("--algebra", required=True,
                       help="builtin name (Q, QI, quat, mat2, mat4) "
                            "or an algebra JSON file")
        p.add_argument("--max-degree", type=_int_in(0), default=2)

    if p := add("homology", cmd_homology, "chain-complex or group homology"):
        p.add_argument("--complex")
        p.add_argument("--group")
        p.add_argument("--module", default=GROUP_MODULE)
        p.add_argument("--max-degree", type=_int_in(0),
                       default=GROUP_MAX_DEGREE)

    if p := add("phi", cmd_phi, "length·dcos/sin image of tensor terms"):
        p.add_argument("--tensor", required=True)
        p.add_argument("--tower", required=True)

    if p := add("recheck", cmd_recheck, "re-verify a report's certificates"):
        p.add_argument("report")
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command line that starts with a command needs that subparser only
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.command == "homology":
            if bool(args.complex) == bool(args.group):
                raise ParseError("homology needs one of --complex and --group")
            if args.complex and (args.module != GROUP_MODULE or
                                 args.max_degree != GROUP_MAX_DEGREE):
                raise ParseError("homology --complex takes no --module "
                                 "or --max-degree")
        import json

        from .report import (
            ReportTimer,
            digest_inputs,
            make_report,
            recheck_certificates,
        )
        timer = ReportTimer()
        out = args.fn(args)
        exit_code = out.pop("exit_code", EXIT_OK)
        failure = out.pop("failure", None)
        inputs = out.pop("inputs", [])
        seed = out.pop("seed", getattr(args, "seed", None))
        report = make_report(
            command=[args.command] + _echo_args(args),
            inputs_digest=digest_inputs(inputs),
            results=out["results"],
            certificates=out["certificates"],
            seed=seed,
            timer=timer)
        if args.command == "compare" and args.recheck:
            report["recheck"] = recheck_certificates(report)
            if not report["recheck"]["recheck_passed"]:
                exit_code = EXIT_SUITE_FAILED
                failure = _recheck_failure(report["recheck"])
    except (ParseError, UnknownSuite) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except SizeCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvalidComplex, DegreeOutOfRange, AssertionError,
            RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # anything else is a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except OSError as exc:
        # the reader closed stdout, or the device is full: point stdout at
        # devnull so that the final flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("output error: stdout was closed before the report was "
                  "written", file=sys.stderr)
        else:
            print(f"output error: could not write the report: {exc}",
                  file=sys.stderr)
        return EXIT_INTERNAL
    if failure:
        print(failure, file=sys.stderr)
    return exit_code


def _echo_args(args) -> list:
    skip = {"fn", "command", "format"}
    out = []
    for k in sorted(vars(args)):
        if k in skip:
            continue
        out.append(f"{k}={getattr(args, k)}")
    return out


def run():
    """The process entry: `main` on `sys.argv`, then `os._exit` with its
    exit code once stdout and stderr are flushed.

    `os._exit` skips the interpreter's teardown, and with it every `atexit`
    handler and the flush of any other open file: a command must close any
    file it writes before `main` returns.  (None writes one; the package
    registers no `atexit` handler and starts no thread.)  A usage error or
    `--help` (SystemExit from argparse) and KeyboardInterrupt leave by the
    interpreter's normal exit.  A final flush that fails ends in exit 5
    with one line on stderr."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = EXIT_INTERNAL
        try:
            os.write(2, f"output error: could not flush the output: {exc}\n"
                     .encode())
        except OSError:
            pass  # stderr is closed as well
    os._exit(code)


if __name__ == "__main__":
    run()
