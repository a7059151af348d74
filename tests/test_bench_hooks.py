"""The benchmark harness in perfbench/ reaches into the package by name.

Its tracer wraps the functions listed in `TARGETS`, and its provenance record
reads `scissors.geom.predicates.KERNEL`.  A refactor that renames or drops
one of them breaks the benchmark, so it should fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # looked up as Tracer.install() does, with no default: a function as a
    # module attribute, a method in its own class's __dict__ (an inherited
    # one would not do)
    missing = []
    for layer, groups in load_tracer().TARGETS.items():
        for module_name, names in groups:
            module = importlib.import_module(module_name)
            for name in names:
                owner, _, meth = name.rpartition(".")
                try:
                    if owner:
                        getattr(module, owner).__dict__[meth]
                    else:
                        getattr(module, name)
                except (AttributeError, KeyError):
                    missing.append(f"{layer}: {module_name}.{name}")
    assert not missing


def test_kernel_name_is_recorded():
    from scissors.geom import predicates
    assert predicates.KERNEL == "pure"
