"""The benchmark's traced pass wraps sandwichlab functions by `module.attr`
name (perfbench/layers.py).  A renamed or deleted function would fail every
traced pass, so each name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    groups = (*layers.SELF_TIME.values(), *layers.CALLS.values(), layers.STRUCTURE)
    names = sorted({name for group in groups for name in group})
    missing = []
    for name in names:
        short, attr = name.split(".")
        module = importlib.import_module(f"sandwichlab.{short}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert names and missing == []
