"""Command-line façade: polytope reports, congruence verdicts, homology and
Hochschild tables, differential-form images, and certificate rechecks.

Exit codes: 0 success (verdicts live in the payload), 1 failed verification
suite, 2 input error, 3 geometry validation error, 4 resource cap, 5 internal
invariant violation.

Each command imports the layers it uses when it runs, so that, say,
`homology` builds no number field and `polytope-info` no Hochschild
algebra.
"""

import argparse
import json
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
from .io import (
    complex_from_json,
    group_from_spec,
    load_json,
    module_from_spec,
    polytope_from_json,
    tensor_terms_from_json,
)
from .numbers import format_number, parse_fraction
from .report import (
    ReportTimer,
    canonical_json,
    digest_inputs,
    make_report,
    recheck_certificates,
    strip_timing,
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

# the names in the suite registry (suites.SUITES), so that building the
# parser loads no suite; a test checks that the two agree
SUITE_NAMES = ("bar-shapiro", "dissection", "flag-nullhomotopy", "hkr",
               "hochschild", "phi-boundary", "sd-homotopy", "ses-audit",
               "spin", "tau", "torus")


def _tensor_certificates(tensor):
    certs = []
    if tensor.rational_drops:
        certs.append({"type": "rational-angles",
                      "dropped": tensor.rational_drops})
    if tensor.relations_used:
        certs.append({"type": "angle-relations",
                      "relations": [r.to_json()
                                    for r in tensor.relations_used]})
    return certs


def _nonzero_certificate(cert: dict) -> dict:
    """A nonzero certificate of `dehn` as a report's certificate: a block
    certificate names its type, the lone-term one is "nonzero-dehn"."""
    return {"type": cert.get("type", "nonzero-dehn"), **cert}


def cmd_polytope_info(args) -> dict:
    from .dehn import dehn_invariant, is_zero, nonzero_certificate
    from .scalars import as_scalar

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
        verdict = is_zero(tensor)
        results["dehn_invariant"] = tensor.to_json()
        results["dehn_verdict"] = verdict
        certificates.extend(_tensor_certificates(tensor))
        if verdict == "NonzeroCertified":
            certificates.append(
                _nonzero_certificate(nonzero_certificate(tensor)))
    return {"results": results, "certificates": certificates,
            "inputs": [args.file]}


def cmd_compare(args) -> dict:
    from .dehn import compare_polytopes

    a = polytope_from_json(load_json(args.file_a),
                           exact_strict=args.exact_strict)
    b = polytope_from_json(load_json(args.file_b),
                           exact_strict=args.exact_strict)
    verdict = compare_polytopes(a, b, args.height_bound)
    certificates = []
    if verdict.tag == "NotCongruent_Volume":
        certificates.append({"type": "volume-mismatch",
                             "volume_a": verdict.witness["volume_a"],
                             "volume_b": verdict.witness["volume_b"]})
    elif verdict.tag == "NotCongruent_Dehn":
        cert = verdict.witness.get("certificate")
        if cert:
            certificates.append(_nonzero_certificate(cert))
        diff = verdict.witness.get("difference", {})
        if diff.get("relations"):
            certificates.append({"type": "angle-relations",
                                 "relations": diff["relations"]})
    elif verdict.tag == "Congruent_DSJ":
        if verdict.witness.get("relations"):
            certificates.append({"type": "angle-relations",
                                 "relations": verdict.witness["relations"]})
    return {"results": {"verdict": verdict.to_json()},
            "certificates": certificates,
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
        return parse_fraction(value[4:])
    if isinstance(value, dict):
        from .kahler import NotExpressible
        raise NotExpressible(
            "irrational algebraic literals contribute 0; write the term "
            "with a tower expression instead")
    return value


def cmd_recheck(args) -> dict:
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


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="scissors",
        description="Exact scissors-congruence invariants and the finite "
                    "homological identities behind them.")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope-info", help="volume, edges, Dehn invariant")
    p.add_argument("file")
    p.add_argument("--height-bound", type=_int_in(1, MAX_HEIGHT_BOUND),
                   default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--exact-strict", action="store_true")
    p.set_defaults(fn=cmd_polytope_info)

    p = sub.add_parser("compare", help="scissors-congruence verdict")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--height-bound", type=_int_in(1, MAX_HEIGHT_BOUND),
                   default=DEFAULT_HEIGHT_BOUND)
    p.add_argument("--exact-strict", action="store_true")
    p.add_argument("--recheck", action="store_true",
                   help="immediately re-verify the emitted certificates")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_int_in(1, MAX_CASES), default=25)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hochschild", help="HH dimension table")
    p.add_argument("--algebra", required=True,
                   help="builtin name (Q, QI, quat, mat2, mat4) "
                        "or an algebra JSON file")
    p.add_argument("--max-degree", type=_int_in(0), default=2)
    p.set_defaults(fn=cmd_hochschild)

    p = sub.add_parser("homology", help="chain-complex or group homology")
    p.add_argument("--complex")
    p.add_argument("--group")
    p.add_argument("--module", default=GROUP_MODULE)
    p.add_argument("--max-degree", type=_int_in(0), default=GROUP_MAX_DEGREE)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("phi", help="length·dcos/sin image of tensor terms")
    p.add_argument("--tensor", required=True)
    p.add_argument("--tower", required=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("recheck", help="re-verify a report's certificates")
    p.add_argument("report")
    p.set_defaults(fn=cmd_recheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    timer = ReportTimer()
    try:
        if args.command == "homology":
            if bool(args.complex) == bool(args.group):
                raise ParseError("homology needs one of --complex and --group")
            if args.complex and (args.module != GROUP_MODULE or
                                 args.max_degree != GROUP_MAX_DEGREE):
                raise ParseError("homology --complex takes no --module "
                                 "or --max-degree")
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
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the final
        # flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the report was "
              "written", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
