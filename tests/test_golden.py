"""Golden-output gate for refactors of the exact engine.

Every catalog entry is expanded with every operator that applies to it
(the V-twisted families only where the entry carries V data, and those
both raw and dim-normalized) at orders 16 and 32, every entry runs
``rigidity --operator all`` at order 24, every theta kind is expanded
formally at m = 1 and m = 2 at order 16, and s2-family-base is expanded
with dv-theta-q at order 48 and 128, and with ``rigidity --operator all``
at order 96, raw and dim-normalized: the exact integers grow with the
order.  Four more ``rigidity --operator all`` cases
cover the per-kind working orders of one command: dim-normalized at
order 24 on the two V entries, and order 1 on s2-v-double-tangent and
cp3-weighted, where the kinds' working orders reach down to 0.  The
canonical form
of each ``--format json`` report is hashed and compared against
``golden_digests.json``, which holds the digests of the reference
implementation.  A change that alters any
exact coefficient, truncation order or report field fails here.
"""
import hashlib
import json
import os

import pytest

from eqgenus.catalog import builtin, names
from eqgenus.cli import main
from eqgenus.genera import OperatorKind
from eqgenus.theta import ThetaKind

ORDER = "16"
DEEP_ORDER = "32"
RIGIDITY_ORDER = "24"
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")


def _expand_cases(order: str, suffix: str = ""):
    out = []
    for name in names():
        has_v = all(c.vbundles for c in builtin(name).data.components)
        for kind in OperatorKind:
            if kind.needs_v and not has_v:
                continue
            for normalized in ((False, True) if kind.needs_v else (False,)):
                argv = ["expand", "--input", "catalog:" + name, "--operator", kind.value,
                        "--order", order, "--format", "json"]
                case = "expand-%s-%s" % (name, kind.value)
                out.append((case + "-normalized" + suffix, argv + ["--normalized"])
                           if normalized else (case + suffix, argv))
    return out


def _rigidity_cases():
    return [("rigidity-%s" % name,
             ["rigidity", "--input", "catalog:" + name, "--operator", "all",
              "--order", RIGIDITY_ORDER, "--format", "json"])
            for name in names()]


# rigidity --operator all where the requested kinds work to different
# orders: dim-normalized (every V kind, one shared denominator) and order 1,
# where the working orders max(n8 - q8_shift, 0) run from 0 to 2 on
# s2-v-double-tangent and are 1 and 4 on cp3-weighted
CROSS_KIND_CASES = [
    ("rigidity-%s-normalized" % name,
     ["rigidity", "--input", "catalog:" + name, "--operator", "all", "--normalized",
      "--order", RIGIDITY_ORDER, "--format", "json"])
    for name in ("s2-family-base", "s2-v-double-tangent")
] + [
    ("rigidity-%s-order1" % name,
     ["rigidity", "--input", "catalog:" + name, "--operator", "all",
      "--order", "1", "--format", "json"])
    for name in ("s2-v-double-tangent", "cp3-weighted")
]


def _theta_cases():
    return [("theta-%s-m%d" % (kind.value, m),
             ["theta", "--kind", kind.value, "--formal", "--m", str(m),
              "--order", ORDER, "--format", "json"])
            for kind in ThetaKind for m in (1, 2)]


# the deepest exact output of the benchmark (its expand-deep workload)
BENCHMARK_CASE = ("expand-s2-family-base-dv-theta-q-order48",
                  ["expand", "--input", "catalog:s2-family-base", "--operator", "dv-theta-q",
                   "--order", "48", "--format", "json"])

# s2-family-base, the one family dataset, above the benchmark's orders
HIGH_ORDER_CASES = [
    ("rigidity-s2-family-base-order96",
     ["rigidity", "--input", "catalog:s2-family-base", "--operator", "all",
      "--order", "96", "--format", "json"]),
    ("rigidity-s2-family-base-normalized-order96",
     ["rigidity", "--input", "catalog:s2-family-base", "--operator", "all", "--normalized",
      "--order", "96", "--format", "json"]),
    ("expand-s2-family-base-dv-theta-q-order128",
     ["expand", "--input", "catalog:s2-family-base", "--operator", "dv-theta-q",
      "--order", "128", "--format", "json"]),
]

CASES = dict(_expand_cases(ORDER) + _expand_cases(DEEP_ORDER, "-order32")
             + _rigidity_cases() + CROSS_KIND_CASES + _theta_cases() + [BENCHMARK_CASE]
             + HIGH_ORDER_CASES)


def report_digest(argv, capsys) -> str:
    """sha256 of the command's JSON report in canonical form."""
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    canon = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def recorded_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_case_list_is_complete():
    assert len(CASES) == 102
    assert sorted(recorded_digests()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, capsys):
    assert report_digest(CASES[case], capsys) == recorded_digests()[case]
