"""Command-line surface: dataset ingestion, computations, verification.

Exit codes: 0 success, 2 parse/ingestion error, 3 validation error,
4 computation error, 141 stdout closed early (128 + SIGPIPE).  Reports go
to stdout, diagnostics to stderr.  No environment variable is consulted.

The exact commands, ``expand`` and ``rigidity``, live here; the others
live in ``cli_extra``, which is imported only when one of them runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    AlgebraError,
    DegreeOutOfRange,
    NonInvertibleLeadingCoefficient,
    OffGridExponent,
    QSeries,
)
from .dataset import DatasetFormatError, load_dataset
from .genera import NON_V_KINDS, V_KINDS, OperatorKind, ZeroWeightNormalBundle
from .kinds import NonconvergentDomain, ThetaKind
from .localization import (
    InconsistentAnomaly,
    NearPole,
    ValidationError,
    equivariant_character,
    equivariant_characters,
    rigidity_check,
)

EXIT_PARSE, EXIT_VALIDATION, EXIT_COMPUTE, EXIT_BROKEN_PIPE = 2, 3, 4, 141

# the largest --order (in eighth-steps) of the exact engine's commands
MAX_ORDER = 256

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


def _check_order(order: int):
    if not 0 <= order <= MAX_ORDER:
        raise ValidationError("order %d outside [0, %d] eighth-steps" % (order, MAX_ORDER))


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
    digest = data.digest()
    mono_series: dict[str, dict] = {}
    for exps in res.monomials():
        name = res.monomial_name(exps)
        sub = QSeries({k: res.coefficient(k, exps) for k in res.series.c}, res.series.n8)
        mono_series[name] = _series_payload(sub)
    report = {
        "format": 1, "command": "expand", "dataset": data.name or args.input,
        "digest": digest, "operator": kind.value,
        "normalized": args.normalized, "order_n8": res.n8,
        "ledger": {"two_pi": res.ledger.two_pi, "i": res.ledger.i, "two": res.ledger.two},
        "coefficients": mono_series,
    }
    lines = ["operator: %s%s" % (kind.value, " (dim-normalized)" if args.normalized else ""),
             "dataset: %s  digest %s" % (data.name or args.input, digest),
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


# -- wiring -----------------------------------------------------------------------


def _off_stack(name: str):
    """The command ``name`` of ``cli_extra``, which is imported only when
    the command runs."""
    def run(args):
        from . import cli_extra
        return getattr(cli_extra, name)(args)
    return run


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
    sp.set_defaults(fn=_off_stack("cmd_jacobi"))

    sp = common(sub.add_parser("zeros", help="argument-principle zero count"))
    sp.add_argument("--operator", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--origin", default=None)
    sp.set_defaults(fn=_off_stack("cmd_zeros"))

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
    sp.set_defaults(fn=_off_stack("cmd_theta"))

    sp = sub.add_parser("catalog", help="built-in datasets")
    sp.add_argument("action", choices=("list", "emit"))
    sp.add_argument("name", nargs="?")
    sp.add_argument("--output", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_off_stack("cmd_catalog"))
    return p


def _bind_dash_values(argv: list[str]) -> list[str]:
    """argv with each value that starts with "-" bound to the option before
    it, as --option=value: argparse takes plain decimals like -0.3 as
    values, but -0.2+0.8i or -1e-3 as options.  Every option but "-h"
    starts with "--", and one that takes no value fails on a bound value
    with exit 2, as it does on the stray token."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if arg[:1] == "-" and arg[:2] != "--" and prev[:2] == "--" and "=" not in prev:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_dash_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "catalog" and args.action == "emit" and not args.name:
        print("catalog emit requires a name", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # an OSError, but the reader stopped (``| head``): quiet at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
