"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped eqgenus function: (name, start, end,
parent), where parent is the index of the enclosing wrapped call in the
same command, or -1.  Spans stay in memory and are written once, when the
command ends; run.py turns them into per-function call
counts and self times.

Nothing here touches ``src/``: the wrappers are installed at run time by
rebinding names.  A module that did ``from .algebra import series_mul``
holds its own binding, so every ``eqgenus`` module that bound a wrapped
function gets the wrapper; otherwise calls made from ``genera``, ``theta``
or ``localization`` would go unseen.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# module -> public functions whose calls and self time the traced run reports
LAYERS = {
    "algebra": ("series_mul", "series_invert", "wpoly_gcd", "graded_exp", "fiber_integrate"),
    "genera": ("theta_quotient_integrand", "numeric_integrand"),
    "localization": ("validate", "equivariant_character", "rigidity_check",
                     "evaluate_numeric"),
    "theta": ("theta_numeric",),
    "jacobi": ("check_jacobi", "count_zeros"),
    "dataset": ("load_dataset",),
    "cli": ("main",),
}

SPAN_NAMES = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns)


class Recorder:
    """Wraps the LAYERS functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def install(self) -> None:
        for name_id, qualified in enumerate(SPAN_NAMES):
            mod_name, fn_name = qualified.split(".")
            original = getattr(importlib.import_module("eqgenus." + mod_name), fn_name)
            wrapped = self._wrap(name_id, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("eqgenus") \
                        and getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapped)

    def _wrap(self, name_id: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return traced

    def dump(self, path: str, command: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": command, "names": SPAN_NAMES, "spans": self.spans}, fh)


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.  Self time is a span's
    duration minus the durations of the spans directly inside it."""
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    totals = {name: [0, 0.0] for name in SPAN_NAMES}
    for (name_id, start, end, _), covered in zip(spans, inner):
        acc = totals[SPAN_NAMES[name_id]]
        acc[0] += 1
        acc[1] += end - start - covered
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
