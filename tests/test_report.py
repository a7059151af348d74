"""The report digests are SHA-256, whichever module takes them: the
interpreter's built-in `_sha2` or `_sha256`, or `hashlib` when neither
imports."""

import hashlib
import importlib.util
import json
import random
import sys

import pytest

import scissors.report

BUILTIN_HASHES = ("_sha2", "_sha256")


def _report_module(monkeypatch, blocked):
    """A fresh copy of `scissors.report`, loaded while the modules `blocked`
    cannot be imported."""
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location(
        "report_under_test", scissors.report.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _text(rng):
    """A string of ASCII, Latin, Greek, mathematical and astral characters."""
    pool = "az09 ,:\"\\{}éßπΣ∛⊗ℚ√𝔽😀"
    return "".join(rng.choice(pool) for _ in range(rng.randrange(12)))


def _value(rng, depth=0):
    kind = rng.randrange(6 if depth < 3 else 3)
    if kind == 0:
        return rng.randrange(-10 ** 30, 10 ** 30)
    if kind == 1:
        return _text(rng)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_text(rng): _value(rng, depth + 1)
            for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("blocked", [(), BUILTIN_HASHES],
                         ids=["builtin", "hashlib"])
def test_digests_are_sha256(blocked, monkeypatch, tmp_path):
    report = _report_module(monkeypatch, blocked)
    if blocked:
        assert report.sha256 is hashlib.sha256
    else:
        assert report.sha256.__module__ in BUILTIN_HASHES
    rng = random.Random(2718)
    objects = [{}, [], "", "é∛ℚ😀"] + [_value(rng) for _ in range(200)]
    for obj in objects:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
        assert report.digest_of(obj) == \
            hashlib.sha256(text.encode()).hexdigest()
    big = tmp_path / "big.bin"
    big.write_bytes(rng.randbytes(1_500_000))
    small = tmp_path / "small.json"
    small.write_text(json.dumps(objects[-1], ensure_ascii=False),
                     encoding="utf-8")
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    blobs = [rng.randbytes(rng.randrange(100)) for _ in range(5)]
    for inputs in ([], [b""], [str(empty)], [str(big)],
                   [str(small), b"", str(big)] + blobs,
                   [_text(rng).encode() for _ in range(20)]):
        h = hashlib.sha256()
        for item in inputs:
            if isinstance(item, str):
                with open(item, "rb") as fh:
                    item = fh.read()
            h.update(item + b"\x00")
        assert report.digest_inputs(inputs) == h.hexdigest()
    assert report.digest_inputs([]) == hashlib.sha256(b"").hexdigest()
