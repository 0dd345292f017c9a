"""JSON dataset serialization, the inverse of ``dataset.parse_dataset``.

Only ``catalog emit``, the tests and the benchmark's input writer run
it, so it lives apart from the parser that every exact command loads.
"""
from __future__ import annotations

from .algebra import GradedElement, format_monomial
from .dataset import FORMAT_VERSION
from .localization import ActionData


def format_root(root: GradedElement) -> str:
    names = [n for n, _ in root.gens]
    parts = []
    for exps, v in sorted(root.terms.items()):
        idx = [i for i, e in enumerate(exps) if e]
        if len(idx) != 1 or exps[idx[0]] != 1:
            raise ValueError("roots must be linear in the generators")
        name = names[idx[0]]
        parts.append(name if v == 1 else "%s*%s" % (v, name))
    return " + ".join(parts) if parts else "0"


def dataset_to_json(data: ActionData) -> dict:
    out: dict = {"format": FORMAT_VERSION, "fiber_half_dim": data.fiber_half_dim}
    if data.name:
        out["name"] = data.name
    if data.base_gens:
        out["base_generators"] = [{"name": n, "degree": d} for n, d in data.base_gens]
    if data.base_cap:
        out["base_degree_cap"] = data.base_cap
    if data.v_half_rank is not None:
        out["v_half_rank"] = data.v_half_rank
    if data.declared_anomaly is not None:
        out["declared_anomaly"] = data.declared_anomaly
    comps = []
    for c in data.components:
        fiber_names = list(c.table.fiber_gens)
        item = {
            "name": c.name,
            "k_alpha": c.k_alpha,
            "sign": c.sign,
            "tangent_roots": [format_root(r) for r in (c.tangent.roots if c.tangent else ())],
            "normals": [{"weight": str(b.weight), "rank": b.rank,
                         "roots": [format_root(r) for r in b.roots]} for b in c.normals],
            "integration_table": {format_monomial(kk, fiber_names): str(v)
                                  for kk, v in sorted(c.table.entries.items())},
        }
        if fiber_names:
            fg = {n: d for n, d in c.gens}
            item["fiber_generators"] = [{"name": n, "degree": fg[n]} for n in fiber_names]
        if c.vbundles:
            item["v"] = [{"weight": str(b.weight), "rank": b.rank,
                          "roots": [format_root(r) for r in b.roots]} for b in c.vbundles]
        comps.append(item)
    out["components"] = comps
    return out
