"""Wire formats: polytope, tensor, chain-complex and group JSON."""

import json

from .geom import Polytope, Simplex, SimplexChain
from .homology import ChainComplex, SparseIntMatrix
from .homology.groups import (
    FiniteGroup,
    GModule,
    cyclic_group,
    symmetric_group_3,
    trivial_group,
    trivial_module,
)
from .numbers import ParseError, format_number, parse_number


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def polytope_from_json(obj, validate: bool = True,
                       exact_strict: bool = False) -> Polytope:
    """{"dim": 2|3, "vertices": [[num,..],..], "cells": [[i,..],..]}."""
    try:
        dim = int(obj["dim"])
        vertices = [tuple(parse_number(c) for c in v)
                    for v in obj["vertices"]]
        cells = [list(map(int, cell)) for cell in obj["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad polytope JSON: {exc}") from exc
    terms = []
    for cell in cells:
        if any(not 0 <= i < len(vertices) for i in cell):
            raise ParseError(f"cell index out of range: {cell}")
        if len(cell) != dim + 1:
            raise ParseError(f"cell {cell} is not a top simplex in E{dim}")
        terms.append((1, Simplex(dim, tuple(vertices[i] for i in cell))))
    return Polytope(SimplexChain(dim, terms), name=obj.get("name", ""),
                    validate=validate, exact_strict=exact_strict)


def polytope_to_json(p: Polytope) -> dict:
    verts = []
    index = {}
    cells = []
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


def complex_from_json(obj) -> ChainComplex:
    """{"ranks": {deg: int}, "boundaries": {deg: [[r, c, "int"], ...]}}."""
    try:
        ranks = {int(k): int(v) for k, v in obj["ranks"].items()}
        boundaries = {}
        for k, entries in obj.get("boundaries", {}).items():
            k = int(k)
            mat = SparseIntMatrix(ranks.get(k - 1, 0), ranks.get(k, 0))
            for r, c, v in entries:
                mat[int(r), int(c)] = int(v)
            boundaries[k] = mat
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex JSON: {exc}") from exc
    return ChainComplex(ranks, boundaries)


def group_from_spec(spec: str) -> FiniteGroup:
    """"Z/m", "S3", "1", or a JSON file path with an explicit table."""
    spec = spec.strip()
    if spec.startswith("Z/"):
        try:
            m = int(spec[2:])
        except ValueError as exc:
            raise ParseError(f"bad cyclic group {spec!r}") from exc
        if m < 1:
            raise ParseError(f"cyclic group order must be >= 1: {spec!r}")
        return cyclic_group(m)
    if spec in ("S3", "Sigma3"):
        return symmetric_group_3()
    if spec == "1":
        return trivial_group()
    obj = load_json(spec)
    try:
        return FiniteGroup(obj["table"], name=obj.get("name", spec))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group JSON {spec!r}: {exc}") from exc


def module_from_spec(group: FiniteGroup, spec: str) -> GModule:
    if spec in ("trivialZ", "trivial"):
        return trivial_module(group)
    obj = load_json(spec)
    try:
        rank = int(obj["rank"])
        action = [obj["action"][str(g)] for g in range(group.n)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad module JSON {spec!r}: {exc}") from exc
    return GModule(group, rank, action, name=obj.get("name", spec))


def tensor_terms_from_json(obj):
    """Terms of a tensor file; cos/sin may be tower-expression strings."""
    try:
        raw = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError("tensor JSON needs a 'terms' list") from exc
    out = []
    for term in raw:
        length = term.get("length", "rat:1/1")
        cos = term["cos"]
        sin = term.get("sin")
        out.append((length, cos, sin))
    return out
