"""One benchmark command, run in a fresh interpreter as the CLI would be.

    child.py [--trace SPANS_FILE COMMAND_ID] cli EQGENUS_ARGS...
    child.py [--trace SPANS_FILE COMMAND_ID] laws POINTS_FILE

``cli`` runs ``eqgenus.cli.main`` on the arguments, exactly like the
``eqgenus`` console script.  ``laws`` runs the theta transformation-law
suite (S, T and quasi-periodicity for all four kinds) at the points in
POINTS_FILE and prints one JSON report.  With ``--trace`` the wrapped
layer functions record spans, written to SPANS_FILE when the command ends.
"""
from __future__ import annotations

import json
import sys


def law_suite(points_path: str) -> int:
    from eqgenus.theta import ThetaKind, check_modular_ST, check_quasi_periodicity

    with open(points_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    eps = spec["eps"]
    pts = [(complex(a, b), complex(c, d), complex(e, f)) for a, b, c, d, e, f in spec["points"]]
    checks = []
    for kind in ThetaKind:
        for rep in (check_modular_ST(kind, "S", pts, eps),
                    check_modular_ST(kind, "T", pts, eps),
                    check_quasi_periodicity(kind, *spec["quasi_period"], samples=pts, eps=eps)):
            checks.append({"identity": rep.identity, "samples": rep.samples,
                           "max_discrepancy": rep.max_discrepancy})
    print(json.dumps({"checks": checks}, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    recorder = None
    if argv[:1] == ["--trace"]:
        spans_path, command_id, argv = argv[1], argv[2], argv[3:]
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        if argv[0] == "cli":
            import eqgenus.cli
            return eqgenus.cli.main(argv[1:])
        if argv[0] == "laws":
            return law_suite(argv[1])
        raise SystemExit("unknown child mode %r" % argv[0])
    finally:
        if recorder is not None:
            recorder.dump(spans_path, command_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
