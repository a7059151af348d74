"""Deterministic machine-readable reports with recheckable certificates.

The digest covers every field except the timing, the `recheck` block that
`compare --recheck` adds after the digest is taken, and the digest itself,
so repeated invocations with equal inputs and seeds are byte-identical after
dropping `timing_ms`, and their digests coincide.
"""

import hashlib
import json
import time


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


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
    h = hashlib.sha256()
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


def check_report_shape(report, source: str) -> None:
    """Raise ParseError unless `report` is an object whose certificates have
    every field, of the right JSON type, that recheck_certificates reads.

    Only the shape is checked here, so that the exact re-verification runs on
    well-formed input and any exception it raises is a fault of its own."""
    from .numbers import ParseError

    def need(obj, key, kind, where):
        value = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ParseError(f"{source}: {where} needs a {key!r} field "
                             f"of type {'/'.join(k.__name__ for k in kind)}")
        return value

    def optional_list(obj, key, where):
        return need({key: [], **obj}, key, (list,), where)

    def angle(obj, where):
        need(obj, "cos", _NUMBER, where)
        need(obj, "sin", _NUMBER, where)

    if not isinstance(report, dict):
        raise ParseError(f"{source}: a report must be a JSON object")
    certificates = report.get("certificates", [])
    if not isinstance(certificates, list):
        raise ParseError(f"{source}: 'certificates' must be a list")
    for i, cert in enumerate(certificates):
        where = f"certificate {i}"
        if not isinstance(cert, dict):
            raise ParseError(f"{source}: {where} is not a JSON object")
        kind = cert.get("type")
        if kind == "angle-relations":
            for j, rel in enumerate(optional_list(cert, "relations", where)):
                at = f"{where} relation {j}"
                angles = need(need(rel, "witness", (dict,), at), "angles",
                              (list,), at + " witness")
                for a in angles:
                    angle(a, at + " angle")
                coefficients = need(rel, "coefficients", (list,), at)
                if len(coefficients) != len(angles) or any(
                        isinstance(m, bool) or not isinstance(m, int)
                        for m in coefficients):
                    raise ParseError(f"{source}: {at} needs one integer "
                                     "coefficient per angle")
        elif kind == "rational-angles":
            for j, drop in enumerate(optional_list(cert, "dropped", where)):
                need(drop, "cos", _NUMBER, f"{where} dropped {j}")
                need(drop, "q", _NUMBER, f"{where} dropped {j}")
        elif kind == "nonzero-dehn":
            angle(need(cert, "angle", (dict,), where), where + " angle")
            need(cert, "length", _NUMBER, where)
            need(cert, "two_cos_minpoly", (list,), where)
        elif kind == "volume-mismatch":
            need(cert, "volume_a", _NUMBER, where)
            need(cert, "volume_b", _NUMBER, where)
        elif kind == "dehn-block":
            need(cert, "m", _NUMBER, where)
            need(cert, "s", _NUMBER, where)
            for j, term in enumerate([need(cert, "term", (dict,), where)]
                                     + need(cert, "terms", (list,), where)):
                angle(term, f"{where} term {j}")
                need(term, "length", _NUMBER, f"{where} term {j}")
    # an object without a digest is no report, so no recheck of it fails
    need(report, "digest", (str,), "the report")


def recheck_certificates(report: dict):
    """Re-verify every embedded certificate with exact arithmetic only."""
    from .angles import (
        AnglePair,
        is_rational_angle,
        two_cos_minpoly,
        verify_relation,
    )
    from .numbers import one_field, parse_number
    from .scalars import scalar_sign

    checks = []
    for cert in report.get("certificates", []):
        kind = cert.get("type")
        if kind == "angle-relations":
            for rel in cert.get("relations", []):
                angles = [AnglePair.from_json(a)
                          for a in rel["witness"]["angles"]]
                ok = verify_relation(angles, rel["coefficients"])
                checks.append({"certificate": kind,
                               "coefficients": rel["coefficients"],
                               "pass": ok})
        elif kind == "rational-angles":
            for drop in cert.get("dropped", []):
                cos = parse_number(drop["cos"])
                pair = AnglePair.from_cos(cos)
                q = is_rational_angle(pair)
                want = parse_number(drop["q"])
                checks.append({"certificate": kind, "cos": drop["cos"],
                               "pass": q is not None and q == want})
        elif kind == "nonzero-dehn":
            angle = AnglePair.from_json(cert["angle"])
            irrational = is_rational_angle(angle) is None
            nonzero_len = parse_number(cert["length"]) != 0
            monic_claim = bool(cert.get("monic"))
            minpoly = two_cos_minpoly(angle)
            poly_matches = [str(c) for c in minpoly] == \
                cert["two_cos_minpoly"]
            monic_actual = minpoly[-1] == 1
            checks.append({
                "certificate": kind,
                "pass": irrational and nonzero_len and poly_matches
                and monic_actual == monic_claim,
            })
        elif kind == "volume-mismatch":
            va, vb = one_field([parse_number(cert["volume_a"]),
                                parse_number(cert["volume_b"])])
            checks.append({"certificate": kind,
                           "pass": scalar_sign(va - vb) != 0})
        elif kind == "dehn-block":
            from .dehn import block_holds
            checks.append({"certificate": kind, "m": cert["m"],
                           "s": cert["s"], "pass": block_holds(cert)})
        else:
            checks.append({"certificate": str(kind), "pass": False,
                           "note": "unknown certificate type"})
    digest_ok = verify_report_digest(report)
    return {
        "digest_ok": digest_ok,
        "checks": checks,
        "recheck_passed": digest_ok and all(c["pass"] for c in checks),
    }

