"""The benchmark's traced run wraps functions by name (``perfbench/tracer.py``,
``LAYERS``); a renamed kernel would leave its layer reading 0 calls.  Every
name must resolve to a function of its ``eqgenus`` module.  The tracer's
file is only run for its table: nothing is wrapped."""
import importlib
import os
import runpy

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                      "tracer.py")


def test_every_traced_layer_resolves():
    layers = runpy.run_path(TRACER)["LAYERS"]
    assert "graded_exp" in layers["algebra"]
    for mod, names in layers.items():
        module = importlib.import_module("eqgenus." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), "eqgenus.%s.%s" % (mod, name)
