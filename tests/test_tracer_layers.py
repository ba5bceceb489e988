"""Every engine attribute that the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` names functions and methods of the package by module
and attribute path; a rename in the engine would otherwise surface only when
the benchmark runs.  The tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    missing = []
    for layer, modname, path, _ in load_tracer().LAYERS:
        owner = importlib.import_module(f"quadricops.{modname}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        # the tracer reads the attribute from the owner's own namespace
        if not callable(vars(owner).get(attr) if owner is not None else None):
            missing.append(f"{layer}: quadricops.{modname}.{path}")
    assert missing == []
