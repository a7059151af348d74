"""Spans around the public functions of each scissors layer, from outside.

`Tracer.install()` replaces the listed functions and methods with wrappers,
in their own module and in every other `scissors.*` module that imported
them by name, so calls between layers are seen as well as the benchmark's
own calls.  `uninstall()` puts the originals back.

Each call opens a frame.  Its *self* time is its duration minus the time
spent in spans of other layers below it; nested calls of the same layer stay
inside it.  A key (a layer, a function, or a named group of functions)
counts every call, and adds duration and self time only for its outermost
frames, so nested calls are never counted twice.

Spans (name, start ns, end ns, parent span) are kept in memory and written
out at the end of the run.  Calls of the hot leaf functions in FOLDED are
only aggregated: a dissection case makes millions of predicate calls, and
one span each would not fit in memory.
"""

import functools
import importlib
import sys
import time

# layer -> [(module, [function or Class.method, ...])]
TARGETS = {
    "geom.predicates": [("scissors.geom.predicates", [
        "orient", "hyperplane", "cut_point", "apply_functional", "side",
        "centroid"])],
    "geom.refine": [("scissors.geom.refine", [
        "refinement_pieces", "split_simplex", "chain_vanishes",
        "chain_covers_once", "verify_dissection", "phi_boundary_chain",
        "phi_boundary_check"])],
    "geom.convex": [("scissors.geom.convex", [
        "convex_polytope_3d", "convex_polygon_2d", "polygon_from_cycle",
        "split_convex_points_3d", "box", "unit_cube", "tetrahedron",
        "regular_tetrahedron", "regular_octahedron", "scaled_simplices",
        "transformed"])],
    "geom": [("scissors.geom", [
        "SimplexChain.reduce", "boundary", "boundary_facets",
        "dihedral_edges", "prism", "orientation_sign", "simplex_volume",
        "signed_indicator", "point_in_open_simplex", "Polytope.volume",
        "Polytope.validate"])],
    "algebraic": [("scissors.algebraic", [
        "AlgebraicReal.__add__", "AlgebraicReal.__radd__",
        "AlgebraicReal.__sub__", "AlgebraicReal.__rsub__",
        "AlgebraicReal.__mul__", "AlgebraicReal.__rmul__",
        "AlgebraicReal.__truediv__", "AlgebraicReal.__rtruediv__",
        "AlgebraicReal.__neg__", "AlgebraicReal.__pow__",
        "AlgebraicReal.inverse", "AlgebraicReal.compare",
        "AlgebraicReal.__eq__", "AlgebraicReal.__lt__",
        "AlgebraicReal.__le__", "AlgebraicReal.__gt__",
        "AlgebraicReal.__ge__", "AlgebraicReal.sign",
        "make_algebraic", "sqrt_nonneg", "as_scalar", "scalar_sign",
        "scalar_cmp", "scalar_eq", "scalar_sqrt", "field_ops",
        "count_roots"])],
    "angles": [("scissors.angles", [
        "find_angle_relations", "is_rational_angle", "certified_relation",
        "verify_relation"])],
    "dehn": [("scissors.dehn", [
        "tensor_normalize", "tensor_add", "tensor_neg", "dehn_invariant",
        "is_zero", "nonzero_certificate", "compare_polytopes"])],
    "linalg": [("scissors.linalg", [
        "smith_normal_form_dense", "rref_sparse", "rank_sparse",
        "nullspace_sparse", "rank_int_rows", "mat_mul", "det_small"])],
    "homology": [
        ("scissors.homology", [
            "smith_normal_form", "ChainComplex.homology",
            "SparseIntMatrix.smith", "SparseIntMatrix.elementary_divisors",
            "DoubleComplex.total_complex"]),
        ("scissors.homology.simplicial", [
            "sd_power", "subdivision_homotopy", "barycentric_sd",
            "torus_homology", "affine_span_dim"]),
        ("scissors.homology.flags", [
            "flag_double_complex", "verify_flag_nullhomotopy"]),
        ("scissors.homology.groups", [
            "group_homology", "bar_complex", "shapiro_check"])],
    "hochschild": [
        ("scissors.hochschild", [
            "builtin_algebra", "hochschild_homology",
            "hochschild_homology_table", "hochschild_boundary",
            "omega_basis"]),
        ("scissors.hochschild.involution", [
            "tau", "tau_chain", "spin_action", "eigenspace_split",
            "ses_audit"])],
    "kahler": [("scissors.kahler", [
        "FieldTower.__init__", "phi_map", "phi_of_tensor",
        "hkr_degree1_check"])],
    "io": [("scissors.io", [
        "load_json", "polytope_from_json", "polytope_to_json",
        "complex_from_json", "group_from_spec", "module_from_spec",
        "tensor_terms_from_json"])],
    "report": [("scissors.report", [
        "make_report", "digest_of", "digest_inputs", "verify_report_digest",
        "recheck_certificates"])],
    "cli": [("scissors.cli", [
        "main", "cmd_polytope_info", "cmd_compare", "cmd_verify",
        "cmd_hochschild", "cmd_homology", "cmd_phi", "cmd_recheck"])],
}

LAYERS = tuple(TARGETS)

# functions aggregated without a span record each
FOLDED = {
    "geom.predicates:" + n for n in TARGETS["geom.predicates"][0][1]
} | {
    "algebraic:" + n for n in TARGETS["algebraic"][0][1]
} | {
    "geom:SimplexChain.reduce", "geom:orientation_sign",
    "geom:simplex_volume", "geom:point_in_open_simplex",
    "geom:signed_indicator", "geom.refine:split_simplex",
    "homology:affine_span_dim", "linalg:mat_mul", "linalg:det_small",
}

# groups of functions reported together; outermost frames only
GROUPS = {
    "algebraic.ops": [f"algebraic:AlgebraicReal.{m}" for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
        "compare", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
        "sign")] + ["algebraic:make_algebraic", "algebraic:sqrt_nonneg"],
    "locate": ["geom.refine:chain_vanishes", "geom.refine:chain_covers_once"],
    "homology.sd": ["homology:sd_power", "homology:subdivision_homotopy"],
    "homology.flags": ["homology:flag_double_complex",
                       "homology:verify_flag_nullhomotopy"],
    "homology.group": ["homology:group_homology", "homology:shapiro_check"],
    "io.load": ["io:load_json", "io:polytope_from_json"],
    "report.digest": ["report:digest_of", "report:digest_inputs"],
}

SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.calls = {}
        self.incl_ns = {}
        self.self_ns = {}
        self.depth = {}
        self.counters = {"refine.cells": 0, "refine.planes": 0,
                         "refine.pieces": 0, "angles.relations_found": 0,
                         "dehn.unknown": 0, "linalg.snf_max_entries": 0,
                         "spans_dropped": 0}
        self.names = []
        self.spans = []
        self.stack = []
        self._plane_ids = set()
        self._saved = []
        self.paused = False

    # -- patching -------------------------------------------------------

    def install(self):
        group_of = {}
        for group, members in GROUPS.items():
            for m in members:
                group_of.setdefault(m, []).append(group)
        # import every layer first: a module imported halfway through would
        # bind wrappers that uninstall() does not know about
        modules = {modname: importlib.import_module(modname)
                   for entries in TARGETS.values() for modname, _ in entries}
        for layer, entries in TARGETS.items():
            for modname, attrs in entries:
                mod = modules[modname]
                for attr in attrs:
                    name = f"{layer}:{attr}"
                    keys = (layer, name, *group_of.get(name, ()))
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        owner = getattr(mod, cls_name)
                        orig = owner.__dict__[meth]
                    else:
                        owner, meth, orig = mod, attr, getattr(mod, attr)
                    wrapper = self._wrap(orig, name, layer, keys,
                                         HOOKS.get(name), name in FOLDED)
                    self._set(owner, meth, wrapper)
                    if owner is mod:
                        self._rebind(orig, wrapper)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        """Point names imported with `from x import f` at the wrapper too.

        The module that defines `orig` is skipped when it is not the module
        being patched (the predicate kernels call each other internally)."""
        home = getattr(orig, "__module__", None)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("scissors") or modname == home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def _wrap(self, fn, name, layer, keys, hook, folded):
        for k in keys:
            self.calls.setdefault(k, 0)
            self.incl_ns.setdefault(k, 0)
            self.self_ns.setdefault(k, 0)
            self.depth.setdefault(k, 0)
        name_id = len(self.names)
        self.names.append(name)
        perf = time.perf_counter_ns
        stack, spans = self.stack, self.spans
        calls, incl, selfns, depth = (self.calls, self.incl_ns, self.self_ns,
                                      self.depth)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            for k in keys:
                depth[k] += 1
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent is not None else -1
            # frame: [other-layer ns below, layer, span index for children]
            frame = [0, layer, parent_span]
            span = -1
            if not folded:
                if len(spans) < SPAN_CAP:
                    span = frame[2] = len(spans)
                    spans.append(None)
                else:
                    tracer.counters["spans_dropped"] += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += frame[0] if parent[1] == layer else dur
                for k in keys:
                    depth[k] -= 1
                    calls[k] += 1
                    if depth[k] == 0:
                        incl[k] += dur
                        selfns[k] += own
                if span >= 0:
                    spans[span] = (name_id, start, end, parent_span)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- output -----------------------------------------------------------

    def data(self) -> dict:
        """Everything a run needs to merge or report, as plain JSON."""
        return {"calls": self.calls, "incl_ns": self.incl_ns,
                "self_ns": self.self_ns, "counters": self.counters,
                "names": self.names,
                "spans": [s for s in self.spans if s is not None]}


def _refine_pieces_hook(tracer, args, result):
    pieces, cells, _ = result
    c = tracer.counters
    c["refine.cells"] += len(cells)
    c["refine.pieces"] += len(pieces)
    c["refine.planes"] += len(tracer._plane_ids)
    tracer._plane_ids.clear()


def _split_hook(tracer, args, result):
    # the refinement keeps every plane alive, so ids are distinct planes
    tracer._plane_ids.add(id(args[1]))


def _relations_hook(tracer, args, result):
    tracer.counters["angles.relations_found"] += len(result)


def _is_zero_hook(tracer, args, result):
    if result == "Unknown":
        tracer.counters["dehn.unknown"] += 1


def _snf_hook(tracer, args, result):
    c = tracer.counters
    c["linalg.snf_max_entries"] = max(c["linalg.snf_max_entries"],
                                      args[1] * args[2])


HOOKS = {
    "geom.refine:refinement_pieces": _refine_pieces_hook,
    "geom.refine:split_simplex": _split_hook,
    "angles:find_angle_relations": _relations_hook,
    "dehn:is_zero": _is_zero_hook,
    "linalg:smith_normal_form_dense": _snf_hook,
}


def merge(total: dict, part: dict) -> dict:
    """Add the aggregates of `part` (one traced process) into `total`."""
    for table in ("calls", "incl_ns", "self_ns"):
        dst = total.setdefault(table, {})
        for k, v in part[table].items():
            dst[k] = dst.get(k, 0) + v
    dst = total.setdefault("counters", {})
    for k, v in part["counters"].items():
        if k == "linalg.snf_max_entries":
            dst[k] = max(dst.get(k, 0), v)
        else:
            dst[k] = dst.get(k, 0) + v
    return total


def per_layer_metrics(agg: dict) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    calls = agg.get("calls", {})
    incl = agg.get("incl_ns", {})
    selfns = agg.get("self_ns", {})
    c = agg.get("counters", {})

    def ms(table, key):
        return table.get(key, 0) / 1e6

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.ms"] = (ms(incl, layer), "ms")
        out[f"{layer}.self_ms"] = (ms(selfns, layer), "ms")
    cells = c.get("refine.cells", 0)
    pieces_ms = ms(incl, "geom.refine:refinement_pieces")
    out.update({
        "geom.refine.cells": (cells, "count"),
        "geom.refine.planes": (c.get("refine.planes", 0), "count"),
        "geom.refine.pieces": (c.get("refine.pieces", 0), "count"),
        "geom.refine.pieces_per_cell": (
            c.get("refine.pieces", 0) / cells if cells else 0.0, "1"),
        "geom.refine.split_ms": (
            ms(selfns, "geom.refine:refinement_pieces"), "ms"),
        "geom.refine.locate_ms": (
            max(ms(incl, "locate") - pieces_ms, 0.0), "ms"),
        "geom.convex.hull_ms": (
            ms(incl, "geom.convex:convex_polytope_3d"), "ms"),
        "geom.chain_reduce.calls": (
            calls.get("geom:SimplexChain.reduce", 0), "count"),
        "geom.chain_reduce.ms": (ms(incl, "geom:SimplexChain.reduce"), "ms"),
        "geom.edges_ms": (ms(incl, "geom:dihedral_edges"), "ms"),
        "algebraic.ops": (calls.get("algebraic.ops", 0), "count"),
        "angles.search_calls": (
            calls.get("angles:find_angle_relations", 0), "count"),
        "angles.search_ms": (ms(incl, "angles:find_angle_relations"), "ms"),
        "angles.relations_found": (
            c.get("angles.relations_found", 0), "count"),
        "angles.rational_tests": (
            calls.get("angles:is_rational_angle", 0), "count"),
        "angles.rational_ms": (ms(incl, "angles:is_rational_angle"), "ms"),
        "dehn.normalize_calls": (
            calls.get("dehn:tensor_normalize", 0), "count"),
        "dehn.normalize_self_ms": (
            ms(selfns, "dehn:tensor_normalize"), "ms"),
        "dehn.is_zero_calls": (calls.get("dehn:is_zero", 0), "count"),
        "dehn.unknown_ratio": (
            c.get("dehn.unknown", 0) / calls["dehn:is_zero"]
            if calls.get("dehn:is_zero") else 0.0, "1"),
        "linalg.snf_calls": (
            calls.get("linalg:smith_normal_form_dense", 0), "count"),
        "linalg.snf_ms": (ms(incl, "linalg:smith_normal_form_dense"), "ms"),
        "linalg.snf_max_entries": (
            c.get("linalg.snf_max_entries", 0), "count"),
        "linalg.rref_ms": (ms(incl, "linalg:rref_sparse"), "ms"),
        "homology.sd_ms": (ms(incl, "homology.sd"), "ms"),
        "homology.flags_ms": (ms(incl, "homology.flags"), "ms"),
        "homology.group_ms": (ms(incl, "homology.group"), "ms"),
        "io.load_ms": (ms(incl, "io.load"), "ms"),
        "report.digest_ms": (ms(incl, "report.digest"), "ms"),
    })
    return out
