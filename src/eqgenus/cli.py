"""Command-line surface: dataset ingestion, computations, verification.

Exit codes: 0 success, 2 parse/ingestion error, 3 validation error,
4 computation error.  Reports go to stdout, diagnostics to stderr.
No environment variable is consulted.
"""
from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

from .algebra import (
    AlgebraError,
    DegreeOutOfRange,
    NonInvertibleLeadingCoefficient,
    OffGridExponent,
    QSeries,
)
from .dataset import DatasetFormatError, dataset_to_json, load_dataset, parse_rational
from .genera import NON_V_KINDS, V_KINDS, OperatorKind, ZeroWeightNormalBundle
from .localization import (
    InconsistentAnomaly,
    NearPole,
    ValidationError,
    anomaly_index,
    equivariant_character,
    equivariant_characters,
    rigidity_check,
)
from .theta import NonconvergentDomain, ThetaKind, theta_numeric

EXIT_PARSE, EXIT_VALIDATION, EXIT_COMPUTE = 2, 3, 4

# the largest --order (in eighth-steps) of the exact engine's commands
MAX_ORDER = 256
# the largest jacobi --samples
MAX_SAMPLES = 1024

_PARSE_ERRORS = (DatasetFormatError, OSError)
# catalog.UnknownEntry is a ValidationError, and jacobi's BoundaryZero and
# NonFiniteSample are NonconvergentDomain errors: commands import those
# modules only when they run them
_VALIDATION_ERRORS = (ValidationError, InconsistentAnomaly, DegreeOutOfRange,
                      ZeroWeightNormalBundle, ValueError)
_COMPUTE_ERRORS = (NonInvertibleLeadingCoefficient, OffGridExponent, NearPole,
                   NonconvergentDomain, AlgebraError, ZeroDivisionError)


def _load_input(source: str):
    """The dataset of --input; its validation warnings go to stderr."""
    if source.startswith("catalog:"):
        from .catalog import builtin
        data = builtin(source.split(":", 1)[1]).data
    else:
        data = load_dataset(source)
    for w in data.report.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return data


def _operator(name: str) -> OperatorKind:
    try:
        return OperatorKind(name)
    except ValueError:
        raise ValidationError("unknown operator %r (have: %s)" %
                              (name, ", ".join(k.value for k in OperatorKind)))


def _parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValidationError("cannot parse complex number %r (use e.g. 0.5+1.2i)" % s)
    if not cmath.isfinite(z):
        raise ValidationError("complex number %r is not finite" % s)
    return z


def _check_order(order: int):
    if not 0 <= order <= MAX_ORDER:
        raise ValidationError("order %d outside [0, %d] eighth-steps" % (order, MAX_ORDER))


def _check_samples(samples: int):
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValidationError("--samples %d outside [1, %d]" % (samples, MAX_SAMPLES))


def _check_unit_interval(flag: str, x: float):
    # a NaN fails both comparisons and is rejected too
    if not 0 < x < 1:
        raise ValidationError("%s %r outside the open interval (0, 1)" % (flag, x))


def _q_name(key: int) -> str:
    return "%d/8" % key


def _emit(report: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _series_payload(ser: QSeries, grid_step: int = 8) -> dict:
    if not ser.c:
        return {_q_name(k): "0" for k in range(0, ser.n8 + 1, grid_step)}
    return {_q_name(k): str(ser.c[k]) for k in sorted(ser.c)}


# -- commands ---------------------------------------------------------------------


def cmd_expand(args) -> int:
    _check_order(args.order)
    data = _load_input(args.input)
    kind = _operator(args.operator)
    res = equivariant_character(data, kind, args.order, args.normalized)
    mono_series: dict[str, dict] = {}
    for exps in res.monomials():
        name = res.monomial_name(exps)
        sub = QSeries({k: res.coefficient(k, exps) for k in res.series.c}, res.series.n8)
        mono_series[name] = _series_payload(sub)
    report = {
        "format": 1, "command": "expand", "dataset": data.name or args.input,
        "digest": res.provenance, "operator": kind.value,
        "normalized": args.normalized, "order_n8": res.n8,
        "ledger": {"two_pi": res.ledger.two_pi, "i": res.ledger.i, "two": res.ledger.two},
        "coefficients": mono_series,
    }
    lines = ["operator: %s%s" % (kind.value, " (dim-normalized)" if args.normalized else ""),
             "dataset: %s  digest %s" % (data.name or args.input, res.provenance),
             "order: q-exponents up to %s" % _q_name(res.n8),
             "ledger (2pi, i, 2) powers: (%d, %d, %d)"
             % (res.ledger.two_pi, res.ledger.i, res.ledger.two)]
    for name, coeffs in mono_series.items():
        lines.append("monomial %s:" % name)
        for qk, val in coeffs.items():
            lines.append("  q^{%s}: %s" % (qk, val))
    _emit(report, args.format, lines)
    return 0


def cmd_rigidity(args) -> int:
    _check_order(args.order)
    data = _load_input(args.input)
    if args.operator == "all":
        kinds = NON_V_KINDS + (V_KINDS if all(c.vbundles for c in data.components) else ())
        if args.normalized:
            kinds = tuple(k for k in kinds if k.supports_normalized)
            if not kinds:
                raise ValidationError("no operator of 'all' has a dim-normalized variant "
                                      "on a dataset without V data on every component")
    else:
        kinds = (_operator(args.operator),)
    rep = data.report
    verdicts = {}
    lines = ["dataset: %s" % (data.name or args.input)]
    if rep.anomaly is not None:
        lines.append("anomaly n = %s" % rep.anomaly)
    for kind, res in equivariant_characters(data, kinds, args.order, args.normalized).items():
        v = rigidity_check(res)
        if v.rigid:
            nonzero = {("q^{%s}" % _q_name(k), m): str(c)
                       for (k, m), c in v.constants.items() if c}
            verdicts[kind.value] = {"rigid": True,
                                    "constants": {"%s %s" % k: c for k, c in nonzero.items()}}
            lines.append("%s: rigid (%d nonzero constants)" % (kind.value, len(nonzero)))
            for (qk, m), c in sorted(nonzero.items()):
                lines.append("  %s %s = %s" % (qk, m, c))
        else:
            key, mono, coeff = v.witness
            verdicts[kind.value] = {"rigid": False,
                                    "witness": {"q": _q_name(key), "monomial": mono,
                                                "coefficient": str(coeff)}}
            lines.append("%s: NOT rigid; witness at q^{%s}, monomial %s: %s"
                         % (kind.value, _q_name(key), mono, coeff))
    report = {"format": 1, "command": "rigidity", "dataset": data.name or args.input,
              "anomaly": None if rep.anomaly is None else str(rep.anomaly),
              "order_n8": args.order, "verdicts": verdicts}
    _emit(report, args.format, lines)
    return 0


def cmd_jacobi(args) -> int:
    from .jacobi import check_jacobi, designated_spec
    from .numeric import degree_component_function
    _check_samples(args.samples)
    _check_unit_interval("--tol", args.tol)
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
    tau = _parse_complex(args.tau)
    if tau.imag <= 0:
        raise ValidationError("tau must lie in the upper half plane")
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
    _check_unit_interval("--eps", args.eps)
    t = _parse_complex(args.t)
    tau = _parse_complex(args.tau)
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


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqgenus",
        description="Exact equivariant elliptic genus computations from "
                    "circle-action fixed-point data.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True,
                        help="dataset JSON file, or catalog:NAME")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = common(sub.add_parser("expand", help="print the localized character"))
    sp.add_argument("--operator", required=True)
    sp.add_argument("--order", type=int, default=32, help="truncation in eighth-steps")
    sp.add_argument("--normalized", action="store_true",
                    help="dim-normalized variant of the element")
    sp.set_defaults(fn=cmd_expand)

    sp = common(sub.add_parser("rigidity", help="rigidity verdicts"))
    sp.add_argument("--operator", default="all")
    sp.add_argument("--order", type=int, default=32)
    sp.add_argument("--normalized", action="store_true")
    sp.set_defaults(fn=cmd_rigidity)

    sp = common(sub.add_parser("jacobi", help="Jacobi-form transformation checks"))
    sp.add_argument("--operator", required=True)
    sp.add_argument("--degree", type=int, default=0, help="base degree 2p")
    sp.add_argument("--samples", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(fn=cmd_jacobi)

    sp = common(sub.add_parser("zeros", help="argument-principle zero count"))
    sp.add_argument("--operator", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--origin", default=None)
    sp.set_defaults(fn=cmd_zeros)

    sp = sub.add_parser("theta", help="theta function values and expansions")
    sp.add_argument("--kind", required=True,
                    choices=[k.value for k in ThetaKind])
    sp.add_argument("--t", default="0.3")
    sp.add_argument("--tau", default="1.0i")
    sp.add_argument("--eps", type=float, default=1e-12)
    sp.add_argument("--formal", action="store_true")
    sp.add_argument("--m", default="1")
    sp.add_argument("--order", type=int, default=32)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_theta)

    sp = sub.add_parser("catalog", help="built-in datasets")
    sp.add_argument("action", choices=("list", "emit"))
    sp.add_argument("name", nargs="?")
    sp.add_argument("--output", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "emit" and not args.name:
        print("catalog emit requires a name", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.fn(args)
    except _PARSE_ERRORS as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except _VALIDATION_ERRORS as e:
        print("validation error: %s" % e, file=sys.stderr)
        return EXIT_VALIDATION
    except _COMPUTE_ERRORS as e:
        print("computation error: %s" % e, file=sys.stderr)
        return EXIT_COMPUTE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
