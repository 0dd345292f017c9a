"""Seeded inputs, commands and output gates of the benchmark workloads.

Every command reads only dataset files written here, so ``dataset`` is on
every command's path.  The workloads follow the README's command examples
and the acceptance suite:

expand-deep
    ``expand`` at n8 = 48 on a seeded weighted-CP^3 dataset (d-theta-q, a
    vanishing series whose components carry poles) and on s2-family-base
    (dv-theta-q, non-rigid, w-rational coefficients).  A few long series:
    time goes to carrier and Fraction arithmetic in ``series_mul`` and
    ``series_invert``; the numeric path is idle.  The order is 48, not 80,
    so that each command takes one to two seconds: calibration runs next
    to a command track the host's speed over that short a time, not over
    the 5-8 s an n8 = 80 command takes (see run.py).
rigidity-sweep
    ``rigidity --operator all`` at n8 = 24 on all six catalog entries.  Many
    short series over every operator recipe: time goes to building the
    integrands, validation and the family push-forward.  The order is 24,
    not 32, for the same reason as expand-deep's: at 32 the sweep's longest
    command takes 3-4 s and a run fits only three passes.
numeric-checks
    ``jacobi`` and ``zeros`` on the family and anomaly datasets plus the theta
    transformation-law suite.  The exact engine never runs: time goes to
    complex-jet arithmetic, ``numeric_integrand`` and ``theta_numeric``.

The CP^3 weights are 4 distinct integers in [-3, 3] whose range is exactly
4.  The exact engine's cost grows with the largest normal weight (a range
of 3 runs expand at n8 = 80 in about 5 s on a 2-core VM, 4 in about 7.5 s,
6 in 10-13 s), so a free range would make the workload's size depend on
the seed; within one range the seed still picks the weight differences
and the point order.

The law suite checks quasi-periodicity in the tau direction, (l, a, b) =
(1, 2, 0).  With b = 2 the shifted argument has Re t near 4, and
theta_numeric, which does not reduce t modulo the lattice, raises
NonconvergentDomain at about 1 point in 3000 of this domain (Re tau near
+-1/2, Im tau below 0.08), e.g. theta(4.1250+0.0646i, 0.4899+0.0534i).
A benchmark workload must not fail on working code, so that defect is
left to the correctness tests.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

WORKLOADS = ("expand-deep", "rigidity-sweep", "numeric-checks")

EXPAND_N8 = 48
RIGIDITY_N8 = 24
POLE_CHECK_N8 = 32
CP3_RANGE = 4
LAW_POINTS = 2500
LAW_EPS = 1e-9
# (l, a, b) of check_quasi_periodicity: the tau-direction law theta(x + l(t + a tau + b))
QUASI_PERIOD = (1, 2, 0)
REFERENCE_DPS = 20


@dataclass
class Task:
    """One command of a workload.

    ``check(exit_code, stdout)`` returns an error message or None.
    ``post_check()``, if set, runs once per benchmark run outside the timed
    region; an error fails every instance of the task.
    """

    name: str
    args: list[str]
    check: Callable[[int, str], str | None]
    post_check: Callable[[], str | None] | None = None


def canonical_digest(report: dict) -> str:
    """sha256 of a parsed ``--format json`` report in canonical JSON form."""
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs -------------------------------------------------------------------


def write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit_catalog(workdir: str) -> dict[str, str]:
    """All six catalog entries, serialized by the program's dataset_to_json."""
    from eqgenus.catalog import builtin, names
    from eqgenus.dataset import dataset_to_json

    return {name: write_json(os.path.join(workdir, name + ".json"),
                             dataset_to_json(builtin(name).data))
            for name in names()}


def cp3_weights(rng: random.Random) -> list[int]:
    """Projective weights: 4 distinct integers in [-3, 3] spanning CP3_RANGE."""
    lo = rng.randint(-3, 3 - CP3_RANGE)
    inner = rng.sample(range(lo + 1, lo + CP3_RANGE), 2)
    weights = [lo, lo + CP3_RANGE] + inner
    rng.shuffle(weights)
    return weights


def cp3_dataset(name: str, weights: list[int]) -> dict:
    """Format-1 JSON of the weighted CP^3 action: one isolated fixed point
    per projective weight, normal weights the pairwise differences."""
    comps = []
    for i, a_i in enumerate(weights):
        comps.append({
            "name": "e%d" % i, "k_alpha": 0, "sign": 1, "tangent_roots": [],
            "integration_table": {},
            "normals": [{"weight": str(a_j - a_i), "rank": 1, "roots": ["0"]}
                        for j, a_j in enumerate(weights) if j != i],
        })
    return {"format": 1, "name": name, "fiber_half_dim": 3, "components": comps}


def law_points(rng: random.Random, count: int) -> list[list[float]]:
    """(x, t, tau) as six floats; 0.05 <= Im tau <= 1.4 and |Re tau| <= 0.5,
    so the low-Im-tau points go through theta_numeric's S/T reduction."""
    pts = []
    for _ in range(count):
        x = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1))
        t = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
        pts.append([x.real, x.imag, t.real, t.imag, tau.real, tau.imag])
    return pts


# -- gates --------------------------------------------------------------------


def _report(code: int, out: str):
    if code != 0:
        raise ValueError("exit code %d" % code)
    return json.loads(out)


def _gate(predicate: Callable[[dict], str | None]):
    def check(code: int, out: str) -> str | None:
        try:
            return predicate(_report(code, out))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            return "bad report: %s" % e
    return check


def digest_gate(key: str, digests: dict[str, str]):
    def same_digest(rep: dict) -> str | None:
        got, want = canonical_digest(rep), digests.get(key)
        return None if got == want else "digest %s, reference %s" % (got[:12], want)
    return _gate(same_digest)


def _all_zero(rep: dict) -> str | None:
    values = [v for mono in rep["coefficients"].values() for v in mono.values()]
    nonzero = [v for v in values if v != "0"]
    if not values:
        return "no coefficients reported"
    if nonzero:
        return "%d of %d coefficients nonzero, e.g. %s" % (len(nonzero), len(values), nonzero[0])
    return None


vanishing_gate = _gate(_all_zero)
jacobi_gate = _gate(lambda rep: None if rep["passed"] is True else
                    "jacobi check failed: %r" % {k: rep[k] for k in
                                                 ("max_modular_discrepancy",
                                                  "max_lattice_discrepancy")})
zeros_gate = _gate(lambda rep: None if rep["identically_zero"] is True else
                   "not identically zero: count %r" % rep["count"])


def law_gate(count: int, eps: float):
    def laws(rep: dict) -> str | None:
        if len(rep["checks"]) != 12:
            return "expected 12 law checks, got %d" % len(rep["checks"])
        for c in rep["checks"]:
            if c["samples"] != count or not c["max_discrepancy"] < eps:
                return "%s: discrepancy %r at %d samples" % (
                    c["identity"], c["max_discrepancy"], c["samples"])
        return None
    return _gate(laws)


def pole_gate(dataset_path: str, operator: str, n8: int):
    """Components must carry poles and their sum must not."""
    def check() -> str | None:
        from eqgenus.dataset import load_dataset
        from eqgenus.genera import OperatorKind
        from eqgenus.localization import component_contribution, pole_cancellation_check

        data = load_dataset(dataset_path)
        kind = OperatorKind(operator)
        rep = pole_cancellation_check([component_contribution(data, c, kind, n8)
                                       for c in data.components])
        if not any(before > 0 for before, _ in rep.per_q.values()):
            return "no component carries a pole"
        if not rep.cancelled:
            key = min(k for k, (_, after) in rep.per_q.items() if after)
            return "poles survive the component sum at q^{%d/8}" % key
        return None
    return check


def theta_reference_gate(points: list[list[float]], eps: float):
    """theta_numeric(kind, t, tau, eps) against mpmath.jtheta at every point,
    scale-normalized: |a - b| / (1 + max(|a|, |b|)) must not exceed eps."""
    def check() -> str | None:
        import mpmath
        from eqgenus.theta import ThetaKind, theta_numeric

        jacobi_number = {ThetaKind.Theta: 1, ThetaKind.Theta1: 2,
                         ThetaKind.Theta2: 4, ThetaKind.Theta3: 3}
        with mpmath.workdps(REFERENCE_DPS):
            for _, _, tr, ti, ur, ui in points:
                t, tau = complex(tr, ti), complex(ur, ui)
                nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                # mpmath takes nome^{1/4} on the principal branch; eqgenus means e^{i pi tau/4}
                branch = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau) / 4) / mpmath.nthroot(nome, 4)
                for kind, number in jacobi_number.items():
                    ref = mpmath.jtheta(number, mpmath.pi * mpmath.mpc(t), nome)
                    if number in (1, 2):
                        ref *= branch
                    ref = complex(ref)
                    got = theta_numeric(kind, t, tau, eps)
                    diff = abs(got - ref) / (1.0 + max(abs(got), abs(ref)))
                    if diff > eps:
                        return "%s(%r, %r): %r vs mpmath %r" % (kind.value, t, tau, got, ref)
        return None
    return check


# -- workloads ----------------------------------------------------------------


def _cli(*args) -> list[str]:
    return ["cli", *args, "--format", "json"]


def build(workload: str, seed: int, workdir: str) -> list[Task]:
    """The workload's tasks for this seed, in the seed's order.  Writes the
    inputs into workdir."""
    rng = random.Random(seed)
    catalog = emit_catalog(workdir)
    digests = load_digests()
    tasks: list[Task] = []
    if workload == "expand-deep":
        cp3_name = "cp3-seed-%d" % seed
        cp3 = write_json(os.path.join(workdir, cp3_name + ".json"),
                         cp3_dataset(cp3_name, cp3_weights(rng)))
        tasks.append(expand_vanishing_task(cp3, EXPAND_N8))
        key = "expand:s2-family-base:dv-theta-q:%d" % EXPAND_N8
        tasks.append(Task(key, _cli("expand", "--input", catalog["s2-family-base"],
                                    "--operator", "dv-theta-q", "--order", str(EXPAND_N8)),
                          digest_gate(key, digests)))
    elif workload == "rigidity-sweep":
        for name, path in catalog.items():
            key = "rigidity:%s:all:%d" % (name, RIGIDITY_N8)
            tasks.append(Task(key, _cli("rigidity", "--input", path, "--operator", "all",
                                        "--order", str(RIGIDITY_N8)),
                              digest_gate(key, digests)))
    elif workload == "numeric-checks":
        family = catalog["s2-family-base"]
        tasks.append(Task("jacobi:s2-family-base:dv-theta-q:2",
                          _cli("jacobi", "--input", family, "--operator", "dv-theta-q",
                               "--degree", "2"), jacobi_gate))
        tasks.append(Task("jacobi:s2-family-base:dv-star-difference:0",
                          _cli("jacobi", "--input", family, "--operator",
                               "dv-star-difference", "--degree", "0"), jacobi_gate))
        tasks.append(Task("zeros:s2-v-double-tangent:dv-theta-q",
                          _cli("zeros", "--input", catalog["s2-v-double-tangent"],
                               "--operator", "dv-theta-q", "--tau", "0.5+1.2i"), zeros_gate))
        pts = law_points(rng, LAW_POINTS)
        spec = write_json(os.path.join(workdir, "law-points.json"),
                          {"eps": LAW_EPS, "quasi_period": QUASI_PERIOD, "points": pts})
        tasks.append(Task("theta-laws", ["laws", spec], law_gate(LAW_POINTS, LAW_EPS),
                          theta_reference_gate(pts, LAW_EPS)))
    else:
        raise ValueError("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
    rng.shuffle(tasks)
    return tasks


def expand_vanishing_task(dataset_path: str, n8: int) -> Task:
    """``expand`` of d-theta-q on a CP^3 dataset, whose series must vanish
    while its components carry poles."""
    return Task("expand:cp3:d-theta-q:%d" % n8,
                _cli("expand", "--input", dataset_path, "--operator", "d-theta-q",
                     "--order", str(n8)),
                vanishing_gate, pole_gate(dataset_path, "d-theta-q", POLE_CHECK_N8))
