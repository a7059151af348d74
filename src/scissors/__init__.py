"""Exact scissors-congruence invariants of Euclidean polytopes, plus the
finite homological machinery (Smith normal form homology, flag complexes,
group and Hochschild homology, Kähler differentials) behind them.

The names in `__all__` are loaded from their submodules on first access
(PEP 562), so importing the package, or one light submodule such as
`scissors.cli`, compiles none of the layers it does not use.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("AlgebraicReal", "field_ops", "make_algebraic",
                     "sqrt_nonneg"), "algebraic"),
    **dict.fromkeys(("AnglePair", "IntegerRelation", "find_angle_relations",
                     "is_rational_angle"), "angles"),
    **dict.fromkeys(("CongruenceVerdict", "DehnTensor", "compare_polytopes",
                     "dehn_invariant", "is_zero", "tensor_add", "tensor_neg",
                     "tensor_normalize"), "dehn"),
    **dict.fromkeys(("Polytope", "Simplex", "SimplexChain", "boundary",
                     "dihedral_edges", "orientation_sign", "prism",
                     "signed_indicator", "simplex_volume"), "geom"),
    **dict.fromkeys(("phi_boundary_check", "verify_dissection"),
                    "geom.refine"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
