"""Wire formats: polytope, tensor, chain-complex and group JSON.

Each reader imports the layer whose objects it builds, so that reading a
group loads no geometry and reading a polytope no homology.  That holds for
the number literals of `numbers` too, which only the polytope reader and
writer import: reading a group, a complex or an algebra loads none of it.
"""

import json
import re

from .errors import ParseError


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON and bytes that are no UTF-8, and
    # RecursionError arrays or objects nested too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _integer(value, what: str, lo=None, hi=None) -> int:
    """A JSON integer with lo <= value < hi, either bound optional.
    Strings, booleans and floats are rejected, not converted or truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer: {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        span = f"[{lo}, {hi})" if hi is not None else f"[{lo}, ∞)"
        raise ParseError(f"{what} {value} out of range {span}")
    return value


def _degree(key: str) -> int:
    """A degree, which JSON can only carry as an object key: a decimal
    integer string such as "0" or "-1"."""
    if not re.fullmatch(r"-?[0-9]+", key):
        raise ParseError(f"degree must be a decimal integer: {key!r}")
    return int(key)


def polytope_from_json(obj, exact_strict: bool = False):
    """{"dim": 1|2|3, "vertices": [[num,..],..], "cells": [[i,..],..],
    "name": str} -> Polytope, its vertices on one table (equal values
    share one id) and its cells id tuples."""
    from .geom import Polytope, SimplexChain, VertexTable
    from .numbers import one_field, parse_number

    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected an object, not {type(obj).__name__}")
        dim = _integer(obj["dim"], "dim", 1, 4)
        vertices = [tuple(parse_number(c) for c in v)
                    for v in obj["vertices"]]
        for k, v in enumerate(vertices):
            if len(v) != dim:
                raise ValueError(f"vertex {k} has {len(v)} coordinates, "
                                 f"not {dim}")
        cells = [[_integer(i, "cell index", 0, len(vertices)) for i in cell]
                 for cell in obj["cells"]]
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise TypeError(f"name must be a string: {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad polytope JSON: {exc}") from exc
    # one number field for all of the polytope's literals
    flat = iter(one_field([c for v in vertices for c in v]))
    table = VertexTable()
    ids = [table.add(tuple([next(flat) for _ in range(dim)]))
           for _ in vertices]
    terms = []
    for cell in cells:
        if len(cell) != dim + 1:
            raise ParseError(f"cell {cell} is not a top simplex in E{dim}")
        terms.append((1, tuple([ids[i] for i in cell])))
    return Polytope(SimplexChain.from_ids(dim, table, terms), name=name,
                    exact_strict=exact_strict)


def polytope_to_json(p) -> dict:
    """The JSON of polytope_from_json, vertices numbered in order of first
    appearance in the cells."""
    from .numbers import format_number

    table = p.chain.table
    index = {}  # vertex id -> its number in the file
    cells = [[index.setdefault(i, len(index)) for i in v]
             for _, v in p.chain.ids]
    verts = [[format_number(c) for c in table.point(i)] for i in index]
    out = {"dim": p.dim, "vertices": verts, "cells": cells}
    if p.name:
        out["name"] = p.name
    return out


def complex_from_json(obj):
    """{"ranks": {"deg": int}, "boundaries": {"deg": [[r, c, int], ...]}}
    -> ChainComplex; each (r, c) of a map is given at most once."""
    from .homology import ChainComplex, SparseIntMatrix

    try:
        ranks = {_degree(k): _integer(v, "rank", 0)
                 for k, v in obj["ranks"].items()}
        boundaries = {}
        for k, entries in obj.get("boundaries", {}).items():
            k = _degree(k)
            mat = SparseIntMatrix(ranks.get(k - 1, 0), ranks.get(k, 0))
            seen = set()
            for r, c, v in entries:
                r = _integer(r, f"boundary {k} row", 0, mat.rows)
                c = _integer(c, f"boundary {k} column", 0, mat.cols)
                if (r, c) in seen:
                    raise ValueError(f"boundary {k} repeats entry [{r}, {c}]")
                seen.add((r, c))
                mat[r, c] = _integer(v, "entry")
            boundaries[k] = mat
        # ChainComplex raises InvalidComplex, a ValueError, when ∂∂ ≠ 0:
        # bad input, not a fault of the program
        return ChainComplex(ranks, boundaries)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex JSON: {exc}") from exc


def group_from_spec(spec: str):
    """"Z/m", "S3", "1", or a JSON file path with an explicit table
    -> FiniteGroup."""
    from .homology.groups import (
        FiniteGroup,
        check_group_order,
        cyclic_group,
        symmetric_group_3,
        trivial_group,
    )

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
        n = len(obj["table"])
        check_group_order(n)  # before n² entries are parsed
        table = [[_integer(x, "group table entry", 0, n) for x in row]
                 for row in obj["table"]]
        return FiniteGroup(table, name=obj.get("name", spec))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad group JSON {spec!r}: {exc}") from exc


def module_from_spec(group, spec: str):
    """"trivialZ" or a JSON module file over `group` -> GModule."""
    from .homology.groups import GModule, trivial_module

    if spec in ("trivialZ", "trivial"):
        return trivial_module(group)
    obj = load_json(spec)
    try:
        rank = _integer(obj["rank"], "module rank", 0)
        action = [obj["action"][str(g)] for g in range(group.n)]
        for m in action:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise ParseError(f"action matrices must be {rank}x{rank}")
        action = [[[_integer(x, "action entry") for x in row] for row in m]
                  for m in action]
        name = obj.get("name", spec)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad module JSON {spec!r}: {exc}") from exc
    try:
        return GModule(group, rank, action, name=name)
    except ValueError as exc:
        # the matrices are well-formed but do not define an action
        raise ParseError(f"bad module JSON {spec!r}: {exc}") from exc


def tensor_terms_from_json(obj):
    """Terms of a tensor file; cos/sin may be tower-expression strings."""
    raw = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(raw, list):
        raise ParseError("tensor JSON needs a 'terms' list")
    out = []
    for term in raw:
        if not isinstance(term, dict) or "cos" not in term:
            raise ParseError(f"tensor term needs a 'cos' entry: {term!r}")
        length, cos, sin = (term.get("length", "rat:1/1"), term["cos"],
                            term.get("sin"))
        for value in (length, cos) if sin is None else (length, cos, sin):
            if isinstance(value, bool) or \
                    not isinstance(value, (str, int, dict)):
                raise ParseError("tensor entries are expressions or number "
                                 f"literals: {value!r}")
        out.append((length, cos, sin))
    return out
