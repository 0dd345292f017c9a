"""The benchmark wraps functions by name (``perfbench/tracer.py``,
``LAYERS``) and imports others by name; a renamed or moved function would
leave its layer reading 0 calls, or fail a workload's gate.  Every name
must resolve to a function of its ``eqgenus`` module.  The tracer's file
is only run for its table: nothing is wrapped."""
import ast
import glob
import importlib
import os
import runpy

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


def test_every_traced_layer_resolves():
    layers = runpy.run_path(TRACER)["LAYERS"]
    assert "graded_exp" in layers["algebra"]
    for mod, names in layers.items():
        module = importlib.import_module("eqgenus." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), "eqgenus.%s.%s" % (mod, name)


def test_every_name_the_benchmark_imports_resolves():
    # every ``from eqgenus.X import name`` in perfbench/*.py, read with ast
    imported = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eqgenus."):
                imported.update((node.module, alias.name) for alias in node.names)
    assert {("eqgenus.theta", "check_modular_ST"), ("eqgenus.theta", "check_quasi_periodicity"),
            ("eqgenus.localization", "component_contribution"),
            ("eqgenus.localization", "pole_cancellation_check")} <= imported
    for mod, name in sorted(imported):
        assert hasattr(importlib.import_module(mod), name), "%s.%s" % (mod, name)
