"""Deterministic machine-readable reports with recheckable certificates.

The digest covers every field except the timing, the `recheck` block that
`compare --recheck` adds after the digest is taken, and the digest itself,
so repeated invocations with equal inputs and seeds are byte-identical after
dropping `timing_ms`, and their digests coincide.

Digests are SHA-256, taken with the interpreter's own module, `_sha2` from
Python 3.12 on and `_sha256` before: `hashlib` loads OpenSSL through
`_hashlib`, and `_blake2` besides, which cost 2.8–3.9 ms of every
`scissors` process against 0.2 ms for `_sha256` (2-core Xeon, Python 3.11).
The version picks the module, as a failed import of the other one searches
the whole path (0.15 ms).  An interpreter built without it takes `hashlib`.
The hash is the same either way.
"""

import json
import sys
import time

try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def digest_of(obj) -> str:
    return sha256(canonical_json(obj).encode()).hexdigest()


class ReportTimer:
    def __init__(self):
        self.start = time.monotonic()

    def ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


def make_report(command, inputs_digest, results, certificates=None,
                seed=None, timer: ReportTimer = None) -> dict:
    body = {
        "schema": "scissors-report/1",
        "command": list(command),
        "inputs_digest": inputs_digest,
        "results": results,
        "certificates": certificates or [],
    }
    if seed is not None:
        body["seed"] = seed
    body["digest"] = digest_of(body)
    body["timing_ms"] = timer.ms() if timer else 0
    return body


def digest_inputs(paths_and_blobs) -> str:
    h = sha256()
    for item in paths_and_blobs:
        if isinstance(item, bytes):
            h.update(item)
        else:
            with open(item, "rb") as fh:
                h.update(fh.read())
        h.update(b"\x00")
    return h.hexdigest()


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing_ms", None)
    return out


def verify_report_digest(report: dict) -> bool:
    body = strip_timing(report)
    body.pop("recheck", None)
    claimed = body.pop("digest", None)
    return claimed == digest_of(body)


# -- certificate rechecking ---------------------------------------------------------

_NUMBER = (str, int, dict)   # the JSON types a number literal can take


def recheck_certificates(report: dict, source: str = "report"):
    """Re-verify every embedded certificate with exact arithmetic only.

    One pass reads each field once, through `need`: a missing field, one of
    the wrong JSON type or a bad literal raises ParseError before anything
    is computed from it.  A cos/sin pair that is no angle fails its check;
    a relation coefficient above MAX_HEIGHT_BOUND raises SizeCap.  Each
    kind of certificate imports the layers it reads when it is met, so a
    volume-mismatch loads neither `angles` nor `dehn`."""
    from .errors import MAX_HEIGHT_BOUND, ParseError, SizeCap
    from .numbers import one_field, parse_number, scalar_sign

    def need(obj, key, where, kind=_NUMBER):
        value = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParseError(f"{source}: {where} needs a {key!r} field "
                             f"of type {'/'.join(k.__name__ for k in kind)}")
        return value

    def literals(obj, where, keys=("cos", "sin")):
        return [need(obj, key, where) for key in keys]

    def angle(make, *values):
        """make(*values), the literals parsed, or None if AnglePair refuses."""
        try:
            return make(*one_field(parse_number(v) for v in values))
        except ParseError:
            raise   # a bad literal is an input error
        except ValueError:
            return None   # values that are no angle fail their check

    certificates = report.get("certificates", [])
    if not isinstance(certificates, list):
        raise ParseError(f"{source}: 'certificates' must be a list")
    checks = []
    for i, cert in enumerate(certificates):
        where = f"certificate {i}"
        if not isinstance(cert, dict):
            raise ParseError(f"{source}: {where} is not a JSON object")
        kind = cert.get("type")
        if kind == "angle-relations":
            from .angles import AnglePair, verify_relation
            for j, rel in enumerate(need({"relations": [], **cert},
                                         "relations", where, (list,))):
                at = f"{where} relation {j}"
                pairs = [literals(a, at + " angle") for a in need(
                    need(rel, "witness", at, (dict,)), "angles",
                    at + " witness", (list,))]
                ms = need(rel, "coefficients", at, (list,))
                if len(ms) != len(pairs) or any(
                        isinstance(m, bool) or not isinstance(m, int)
                        for m in ms):
                    raise ParseError(f"{source}: {at} needs one integer "
                                     "coefficient per angle")
                if any(abs(m) > MAX_HEIGHT_BOUND for m in ms):
                    raise SizeCap(f"{at}: coefficient > {MAX_HEIGHT_BOUND}")
                # the angles in one field, where the product is taken
                values = one_field(parse_number(v) for p in pairs for v in p)
                angles = [angle(AnglePair, *values[k:k + 2])
                          for k in range(0, len(values), 2)]
                checks.append({"certificate": kind, "coefficients": ms,
                               "pass": None not in angles
                               and verify_relation(angles, ms)})
        elif kind == "rational-angles":
            from .angles import AnglePair, is_rational_angle
            for j, drop in enumerate(need({"dropped": [], **cert},
                                          "dropped", where, (list,))):
                cos, q = literals(drop, f"{where} dropped {j}", ("cos", "q"))
                pair, want = angle(AnglePair.from_cos, cos), parse_number(q)
                got = pair and is_rational_angle(pair)
                checks.append({"certificate": kind, "cos": cos,
                               "pass": got is not None and got == want})
        elif kind == "nonzero-dehn":
            from .angles import AnglePair, is_rational_angle, two_cos_minpoly
            cos_sin = need(cert, "angle", where, (dict,))
            pair = angle(AnglePair, *literals(cos_sin, where + " angle"))
            length = parse_number(need(cert, "length", where))
            printed = need(cert, "two_cos_minpoly", where, (list,))
            minpoly = pair and two_cos_minpoly(pair)
            checks.append({"certificate": kind, "pass": pair is not None
                           and is_rational_angle(pair) is None and length != 0
                           and [str(c) for c in minpoly] == printed
                           and (minpoly[-1] == 1) == bool(cert.get("monic"))})
        elif kind == "volume-mismatch":
            va, vb = one_field(parse_number(v) for v in literals(
                cert, where, ("volume_a", "volume_b")))
            checks.append({"certificate": kind,
                           "pass": scalar_sign(va - vb) != 0})
        elif kind == "dehn-block":
            from .dehn import block_holds
            m, s = need(cert, "m", where), need(cert, "s", where)
            terms = [need(cert, "term", where, (dict,))] + need(
                cert, "terms", where, (list,))
            terms = [literals(t, f"{where} term {j}", ("cos", "sin", "length"))
                     for j, t in enumerate(terms)]
            checks.append({"certificate": kind, "m": m, "s": s,
                           "pass": block_holds(m, s, terms[0], terms[1:])})
        else:
            checks.append({"certificate": str(kind), "pass": False,
                           "note": "unknown certificate type"})
    digest_ok = verify_report_digest(report)
    return {
        "digest_ok": digest_ok,
        "checks": checks,
        "recheck_passed": digest_ok and all(c["pass"] for c in checks),
    }
