"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test pins the tolerance and runtime stated for it and is exact
wherever the computation is exact.
"""
import cmath
import math
import random
import time

from eqgenus.algebra import WLaurentRational
from eqgenus.catalog import (
    builtin,
    names as catalog_names,
    oracle_check_s2,
)
from eqgenus.dataset import dataset_to_json, parse_dataset
from eqgenus.genera import OperatorKind
from eqgenus.jacobi import check_jacobi, count_zeros, designated_spec
from eqgenus.localization import (
    ActionData,
    FixedComponent,
    anomaly_index,
    equivariant_character,
    rigidity_check,
    validate,
)
from eqgenus.reference import (
    component_contribution,
    oracle_expand_vs_closed,
    pole_cancellation_check,
)
from eqgenus.theta import ThetaKind, theta_numeric

NON_V = (OperatorKind.DsThetaPrime, OperatorKind.DThetaQ,
         OperatorKind.DThetaMinusQ, OperatorKind.WittenH)
V_KINDS = (OperatorKind.DeltaVThetaPrime, OperatorKind.DVThetaQ,
           OperatorKind.DVThetaMinusQ, OperatorKind.DVStarDifference)


class Gate:
    def __init__(self, number, label, limit_s):
        self.number, self.label, self.limit = number, label, limit_s
        self.t0 = time.monotonic()

    def done(self, ok=True, note=""):
        dt = time.monotonic() - self.t0
        status = "PASS" if ok and dt < self.limit else "FAIL"
        extra = " [%s]" % note if note else ""
        print("ACCEPTANCE %02d %-28s %s (%.1fs < %ds)%s"
              % (self.number, self.label, status, dt, self.limit, extra))
        assert ok, "%s failed%s" % (self.label, extra)
        assert dt < self.limit, "%s overran: %.1fs" % (self.label, dt)


def with_v_equal_tx(data: ActionData) -> ActionData:
    comps = tuple(
        FixedComponent(c.name, c.k_alpha, c.tangent, c.normals, c.normals,
                       c.table, c.sign, c.gens, c.cap)
        for c in data.components)
    return ActionData(data.fiber_half_dim, comps, data.base_gens, data.base_cap,
                      data.fiber_half_dim, None, data.name + "+v=tx")


def _norm_diff(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _sample_points(count, seed):
    rng = random.Random(seed)
    return [(rng.uniform(0.06, 0.94),
             complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.3)))
            for _ in range(count)]


def test_criterion_01_theta_laws():
    gate = Gate(1, "theta-law-suite", 5)
    worst = 0.0
    pts = _sample_points(20, 11)
    # eight translation laws: t -> t+1 and t -> t+tau
    one_signs = {ThetaKind.Theta: -1, ThetaKind.Theta1: -1,
                 ThetaKind.Theta2: 1, ThetaKind.Theta3: 1}
    tau_signs = {ThetaKind.Theta: -1, ThetaKind.Theta1: 1,
                 ThetaKind.Theta2: -1, ThetaKind.Theta3: 1}
    for kind in ThetaKind:
        for t, tau in pts:
            lhs = theta_numeric(kind, t + 1, tau)
            rhs = one_signs[kind] * theta_numeric(kind, t, tau)
            worst = max(worst, _norm_diff(lhs, rhs))
            lhs = theta_numeric(kind, t + tau, tau)
            factor = tau_signs[kind] * cmath.exp(-1j * math.pi * tau) \
                * cmath.exp(-2j * math.pi * t)
            rhs = factor * theta_numeric(kind, t, tau)
            worst = max(worst, _norm_diff(lhs, rhs))
    # eight modular laws: S and T for each kind
    from eqgenus.theta import check_modular_ST
    for kind in ThetaKind:
        for gen in ("S", "T"):
            rep = check_modular_ST(kind, gen, samples=20, eps=1e-9)
            worst = max(worst, rep.max_discrepancy)
    gate.done(worst < 1e-9, "max discrepancy %.2e" % worst)


def test_criterion_02_nullwert_oracle():
    gate = Gate(2, "nullwert-expansions", 5)

    def dict_mul(a, b, n8=64):
        out = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                if e1 + e2 <= n8:
                    out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
        return {k: v for k, v in out.items() if v}

    ok = True
    from eqgenus.reference import theta_formal
    for kind, sgn in ((ThetaKind.Theta2, -1), (ThetaKind.Theta3, 1)):
        oracle = {0: 1}
        n = 1
        while 8 * n <= 64:
            oracle = dict_mul(oracle, {0: 1, 8 * n: -1})
            n += 1
        n = 1
        while 8 * n - 4 <= 64:
            f = {0: 1, 8 * n - 4: sgn}
            oracle = dict_mul(oracle, dict_mul(f, f))
            n += 1
        ts = theta_formal(kind, 0, 64)
        for key in set(oracle) | set(ts.series.c):
            got = ts.series.c.get(key, WLaurentRational.zero())
            ok = ok and got == WLaurentRational.const(oracle.get(key, 0))
    gate.done(ok)


def test_criterion_03_sphere_vanishing():
    gate = Gate(3, "two-sphere-vanishing", 10)
    data = builtin("s2-rotation").data
    res = equivariant_character(data, OperatorKind.WittenH, 48)
    all_zero = not res.series.c
    per = [component_contribution(data, c, OperatorKind.WittenH, 48)
           for c in data.components]
    nonzero_parts = all(bool(p.c) for p in per)
    rep = pole_cancellation_check(per)
    poles_before = any(before > 0 for before, _ in rep.per_q.values())
    gate.done(all_zero and nonzero_parts and rep.cancelled and poles_before,
              "zero sum of nonzero pole-carrying parts")


def test_criterion_04_rigidity_non_v():
    gate = Gate(4, "rigidity-theorem-families", 60)
    ok = True
    notes = []
    for name in ("cp3-weighted", "s2xs2-birotation"):
        data = builtin(name).data
        for kind in NON_V:
            res = equivariant_character(data, kind, 32)
            v = rigidity_check(res)
            ok = ok and v.rigid
            if kind is OperatorKind.DsThetaPrime:
                sig = res.coefficient(0)
                ok = ok and sig == WLaurentRational.zero()
                notes.append("%s signature %s" % (name, sig))
    gate.done(ok, "; ".join(notes))


def test_criterion_05_rigidity_with_v():
    gate = Gate(5, "rigidity-v-equal-tx", 60)
    data = with_v_equal_tx(builtin("cp3-weighted").data)
    ok = anomaly_index(data) == 0
    for kind in V_KINDS:
        res = equivariant_character(data, kind, 32)
        ok = ok and rigidity_check(res).rigid
    gate.done(ok, "anomaly 0, four V-families rigid")


def test_criterion_06_anomaly_and_jacobi():
    gate = Gate(6, "anomaly-jacobi-zeros", 120)
    data = builtin("s2-v-double-tangent").data
    n = anomaly_index(data)
    ok = n == 1
    k, l = data.fiber_half_dim, data.components[0].v_rank()
    worst = 0.0
    for kind in V_KINDS:
        spec = designated_spec(kind, n, k, l, 0)
        from eqgenus.numeric import degree_component_function
        F = degree_component_function(data, kind, 0, normalized=True, eps=1e-12)
        rep = check_jacobi(F, spec, samples=32, eps=1e-8)
        ok = ok and rep.passed
        worst = max(worst, rep.max_discrepancy)
    from eqgenus.numeric import degree_component_function
    F = degree_component_function(data, OperatorKind.DVThetaQ, 0,
                                  normalized=True, eps=1e-12)
    zr = count_zeros(F, 0.5 + 1.2j, (0.171 + 0.113j, 2, 2 * (0.5 + 1.2j)))
    outcome = "IdenticallyZero" if zr.identically_zero \
        else "count %.3f (expect 4n = 4)" % zr.count
    ok = ok and (zr.identically_zero or abs(zr.count - 4 * n) < 0.2)
    gate.done(ok, "n=1; jacobi max %.1e; zeros: %s" % (worst, outcome))


def test_criterion_07_family_weight_shift():
    gate = Gate(7, "family-weight-k-plus-p", 60)
    data = builtin("s2-family-base").data
    n = anomaly_index(data)
    k, l = data.fiber_half_dim, data.components[0].v_rank()
    ok = n == 0
    worst = 0.0
    from eqgenus.numeric import degree_component_function
    for kind in (OperatorKind.DVThetaQ, OperatorKind.DeltaVThetaPrime):
        spec = designated_spec(kind, n, k, l, 1)
        assert spec.weight == k + 1
        F = degree_component_function(data, kind, 2, normalized=True, eps=1e-12)
        rep = check_jacobi(F, spec, samples=16, eps=1e-8)
        ok = ok and rep.passed
        worst = max(worst, rep.max_discrepancy)
    gate.done(ok, "weight k+1 = %d law, max %.1e" % (k + 1, worst))


def test_criterion_08_cross_path_oracles():
    gate = Gate(8, "cross-path-oracles", 120)
    ok = True
    failures = []
    for name in catalog_names():
        entry = builtin(name)
        datasets = [entry.data] + list(entry.variants.values())
        for data in datasets:
            has_v = all(c.vbundles for c in data.components)
            kinds = list(NON_V) + (list(V_KINDS) if has_v else [])
            for comp in data.components:
                for kind in kinds:
                    rep = oracle_expand_vs_closed(kind, comp, 16)
                    if not rep.equal:
                        ok = False
                        failures.append((name, comp.name, kind.value))
    for kind in (OperatorKind.DThetaQ, OperatorKind.DsThetaPrime, OperatorKind.WittenH):
        rep = oracle_check_s2(kind, 16)
        ok = ok and rep.equal
    calib = oracle_check_s2(OperatorKind.DVStarDifference, 8)
    ok = ok and calib.equal and calib.engine.c.get(0) == WLaurentRational.const(-2)
    gate.done(ok, "calibration index -2" if ok else str(failures[:3]))


def test_criterion_09_integrality():
    gate = Gate(9, "integrality-after-ledger", 60)
    ok = True
    for name in ("s2-rotation", "s4-rotation", "cp3-weighted",
                 "s2xs2-birotation", "s2-v-double-tangent"):
        data = builtin(name).data
        has_v = all(c.vbundles for c in data.components)
        kinds = list(NON_V) + (list(V_KINDS) if has_v else [])
        for kind in kinds:
            res = equivariant_character(data, kind, 32)
            if not rigidity_check(res).rigid:
                ok = False
                continue
            idx = res.index_character()
            for key, g in idx.c.items():
                for exps, v in g.terms.items():
                    c = v if isinstance(v, WLaurentRational) else WLaurentRational.const(v)
                    ok = ok and c.is_constant() and c.constant().denominator == 1
    gate.done(ok)


def test_criterion_10_negative_controls():
    gate = Gate(10, "negative-controls", 60)
    payload = dataset_to_json(builtin("cp3-weighted").data)
    payload["components"][0]["normals"][0]["weight"] = "-1"
    corrupted = parse_dataset(payload)
    res = equivariant_character(corrupted, OperatorKind.DThetaQ, 16)
    v = rigidity_check(res)
    broke = not v.rigid and v.witness is not None
    payload2 = dataset_to_json(builtin("s2-rotation").data)
    payload2["components"][0]["normals"][0]["weight"] = "0"
    zero_rejected = not validate(parse_dataset(payload2)).ok
    gate.done(broke and zero_rejected,
              "witness at q^{%d/8}" % v.witness[0] if broke else "no witness")
