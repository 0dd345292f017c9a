"""The commands off the exact stack: ``jacobi``, ``zeros``, ``theta`` and
``catalog``, with the argument checks only they use.

``cli`` imports this module only when one of them runs, so ``expand``
and ``rigidity`` never compile it.  Each command imports the modules it
runs (``jacobi``, ``numeric``, ``theta``, ``reference``, ``catalog``)
itself; exit codes and error mapping are ``cli``'s.
"""
from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction

from .cli import _check_order, _emit, _load_input, _operator, _q_name, _series_payload
from .dataset import dataset_to_json, parse_rational
from .kinds import ThetaKind
from .localization import InconsistentAnomaly, ValidationError, anomaly_index

# the largest jacobi --samples
MAX_SAMPLES = 1024


def _parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValidationError("cannot parse complex number %r (use e.g. 0.5+1.2i)" % s)
    if not cmath.isfinite(z):
        raise ValidationError("complex number %r is not finite" % s)
    return z


def _parse_tau(s: str) -> complex:
    tau = _parse_complex(s)
    if tau.imag <= 0:
        raise ValidationError("tau must lie in the upper half plane")
    return tau


def _check_samples(samples: int):
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValidationError("--samples %d outside [1, %d]" % (samples, MAX_SAMPLES))


def _check_tolerance(flag: str, x: float):
    # a NaN fails both comparisons and is rejected too; below the
    # double-precision epsilon a relative bound cannot be met
    if not sys.float_info.epsilon <= x < 1:
        raise ValidationError("%s %r outside [%r, 1)" % (flag, x, sys.float_info.epsilon))


def cmd_jacobi(args) -> int:
    from .jacobi import check_jacobi, designated_spec
    from .numeric import degree_component_function
    _check_samples(args.samples)
    _check_tolerance("--tol", args.tol)
    data = _load_input(args.input)
    kind = _operator(args.operator)
    if args.degree % 2 or args.degree < 0 or args.degree > data.base_cap:
        raise ValidationError("degree %d outside the even range [0, %d]"
                              % (args.degree, data.base_cap))
    n = anomaly_index(data)
    spec = designated_spec(kind, n, data.fiber_half_dim, data.components[0].v_rank(),
                           args.degree // 2)
    F = degree_component_function(data, kind, args.degree,
                                  normalized=True, eps=args.tol * 1e-4)
    rep = check_jacobi(F, spec, samples=args.samples, eps=args.tol)
    report = {
        "format": 1, "command": "jacobi", "dataset": data.name or args.input,
        "operator": kind.value, "degree": args.degree, "monomial": F.monomial,
        "anomaly": n, "index": str(Fraction(n, 2)), "weight": spec.weight,
        "group": spec.group.value, "samples": rep.samples,
        "max_modular_discrepancy": rep.max_modular_discrepancy,
        "max_lattice_discrepancy": rep.max_lattice_discrepancy,
        "tolerance": args.tol, "identically_zero": rep.identically_zero,
        "passed": rep.passed,
    }
    lines = ["operator: %s, degree %d (monomial %s)" % (kind.value, args.degree, F.monomial),
             "anomaly n = %d: expected index %s, weight %d over %s"
             % (n, Fraction(n, 2), spec.weight, spec.group.value),
             "max discrepancy: modular %.3e, lattice %.3e at %d samples"
             % (rep.max_modular_discrepancy, rep.max_lattice_discrepancy, rep.samples)]
    if rep.identically_zero:
        lines.append("IdenticallyZero (sampled max |F| below the zero floor)")
    lines.append("PASS" if rep.passed else "FAIL")
    _emit(report, args.format, lines)
    return 0 if rep.passed else 1


def cmd_zeros(args) -> int:
    from .jacobi import LATTICE_SCALE, count_zeros
    from .numeric import degree_component_function
    data = _load_input(args.input)
    kind = _operator(args.operator)
    tau = _parse_tau(args.tau)
    origin = _parse_complex(args.origin) if args.origin else 0.171 + 0.113j
    F = degree_component_function(data, kind, 0, normalized=True, eps=1e-12)
    res = count_zeros(F, tau, (origin, LATTICE_SCALE, LATTICE_SCALE * tau))
    try:
        n = anomaly_index(data)
    except InconsistentAnomaly:
        n = None
    # a form of index n/2 has n zeros in each unit cell of the lattice
    cells = LATTICE_SCALE ** 2
    report = {"format": 1, "command": "zeros", "dataset": data.name or args.input,
              "operator": kind.value, "tau": str(tau),
              "identically_zero": res.identically_zero,
              "count": res.count, "anomaly": n,
              "cell": "(%dZ)^2 fundamental cell (%d unit cells)" % (LATTICE_SCALE, cells)}
    if res.identically_zero:
        lines = ["IdenticallyZero (sampled max |F| below the zero floor)"]
    else:
        lines = ["zero count over the (%dZ)^2 cell at tau=%s: %.4f"
                 % (LATTICE_SCALE, tau, round(res.count, 4) + 0.0),  # -1e-17 prints 0.0000
                 "(area-scaled expectation for index n/2: %dn = %s)"
                 % (cells, cells * n if n is not None else "unknown")]
    _emit(report, args.format, lines)
    return 0


def cmd_theta(args) -> int:
    kind = ThetaKind(args.kind)
    if args.formal:
        from .reference import theta_formal
        _check_order(args.order)
        ts = theta_formal(kind, parse_rational(args.m, "--m"), args.order)
        report = {"format": 1, "command": "theta", "kind": kind.value,
                  "m": args.m, "order_n8": args.order, "i_power": ts.i_power,
                  "series": _series_payload(ts.series, 1)}
        lines = ["theta kind %s at v = %s t, i-power %d" % (kind.value, args.m, ts.i_power)]
        for k in sorted(ts.series.c):
            lines.append("  q^{%s}: %s" % (_q_name(k), ts.series.c[k]))
        if not ts.series.c:
            lines.append("  identically zero (order-%d vanishing at v=0)" % ts.vanishing_order)
        _emit(report, args.format, lines)
        return 0
    from .theta import theta_numeric
    _check_tolerance("--eps", args.eps)
    t = _parse_complex(args.t)
    tau = _parse_tau(args.tau)
    val = theta_numeric(kind, t, tau, args.eps)
    report = {"format": 1, "command": "theta", "kind": kind.value,
              "t": str(t), "tau": str(tau), "eps": args.eps,
              "value": {"re": val.real, "im": val.imag}}
    _emit(report, args.format, ["%s(%s, %s) = %s (within relative %g)"
                                % (kind.value, t, tau, val, args.eps)])
    return 0


def cmd_catalog(args) -> int:
    from .catalog import builtin, names as catalog_names
    if args.action == "list":
        report = {"format": 1, "command": "catalog", "entries": {}}
        lines = []
        for name in catalog_names():
            e = builtin(name)
            report["entries"][name] = {"doc": e.doc, "expected": e.expected}
            lines.append("%-22s %s" % (name, e.doc.split(".")[0] + "."))
        _emit(report, args.format, lines)
        return 0
    entry = builtin(args.name)
    payload = dataset_to_json(entry.data)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print("wrote %s" % args.output)
    else:
        print(text)
    return 0
