import cmath
import math
import random
from fractions import Fraction

import pytest

from eqgenus.catalog import builtin
from eqgenus.genera import OperatorKind
from eqgenus.jacobi import (
    GROUP_GENERATORS,
    IDENTITY,
    IndexClassification,
    JacobiFormSpec,
    ModularGroup,
    ModularMatrix,
    S,
    T,
    check_jacobi,
    count_zeros,
    designated_spec,
    rigidity_verdict_from_index,
    slash_action,
    subgroup_member,
)
from eqgenus.localization import anomaly_index, degree_component_function, equivariant_character
from eqgenus.theta import ThetaKind, theta_numeric


# -- subgroup membership ----------------------------------------------------------

def test_membership_examples():
    assert subgroup_member(S, ModularGroup.GAMMA_THETA)
    assert not subgroup_member(S, ModularGroup.GAMMA0_2)
    assert not subgroup_member(S, ModularGroup.GAMMA_UPPER0_2)
    assert subgroup_member(T, ModularGroup.GAMMA0_2)
    assert not subgroup_member(T, ModularGroup.GAMMA_THETA)
    assert not subgroup_member(T, ModularGroup.GAMMA_UPPER0_2)
    for grp in ModularGroup:
        assert subgroup_member(IDENTITY, grp)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        ModularMatrix(1, 1, 1, 1)


def test_membership_closure():
    rng = random.Random(97)
    for grp, gens in GROUP_GENERATORS.items():
        pool = list(gens) + [g.inverse() for g in gens]
        for _ in range(50):
            g = IDENTITY
            for _ in range(rng.randrange(1, 6)):
                g = g * rng.choice(pool)
            assert subgroup_member(g, grp), (grp, g)
            assert subgroup_member(g.inverse(), grp)


def test_generators_belong_to_their_groups():
    for grp, gens in GROUP_GENERATORS.items():
        for g in gens:
            assert subgroup_member(g, grp), (grp, str(g))


# -- designated specs ---------------------------------------------------------------

# (group, weight) of designated_spec at (n, k, l, p) = (1, 2, 3, 1): weight
# k + p, and k - l + p for dv-star-difference; None where theta1, theta2 or
# theta3 sits on TX and there is no designated group
DESIGNATED_SPECS = {
    OperatorKind.DsThetaPrime: None,
    OperatorKind.DThetaQ: None,
    OperatorKind.DThetaMinusQ: None,
    OperatorKind.DeltaVThetaPrime: (ModularGroup.GAMMA0_2, 3),
    OperatorKind.DVThetaQ: (ModularGroup.GAMMA_UPPER0_2, 3),
    OperatorKind.DVThetaMinusQ: (ModularGroup.GAMMA_THETA, 3),
    OperatorKind.DVStarDifference: (ModularGroup.SL2Z, 0),
    OperatorKind.WittenH: (ModularGroup.SL2Z, 3),
}


@pytest.mark.parametrize("kind", list(OperatorKind), ids=lambda k: k.value)
def test_designated_spec_of_every_family(kind):
    expected = DESIGNATED_SPECS[kind]
    if expected is None:
        with pytest.raises(ValueError, match="has no designated Jacobi-form group"):
            designated_spec(kind, 1, 2, 3, 1)
    else:
        spec = designated_spec(kind, 1, 2, 3, 1)
        assert (spec.index, spec.group, spec.weight) == (Fraction(1, 2),) + expected


# -- slash action -----------------------------------------------------------------

def test_slash_identity():
    spec = JacobiFormSpec(Fraction(1, 2), 3)
    F = lambda t, tau: cmath.exp(2j * math.pi * t) + tau
    G = slash_action(F, IDENTITY, spec)
    for t, tau in ((0.3, 1j), (0.1 + 0.2j, 0.4 + 0.8j)):
        assert abs(F(t, tau) - G(t, tau)) < 1e-14


def test_slash_cocycle():
    rng = random.Random(103)
    spec = JacobiFormSpec(1, 2)
    assert type(spec.index) is Fraction
    F = lambda t, tau: cmath.exp(2j * math.pi * (t + 0.3 * t * t)) / (tau - 0.1j)
    pool = [S, T, T.inverse()]
    for _ in range(20):
        word = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        g = IDENTITY
        for m in word:
            g = g * m
        lhs = F
        for m in word:
            lhs = slash_action(lhs, m, spec)
        rhs = slash_action(F, g, spec)
        t = rng.uniform(0.1, 0.9)
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.3))
        a, b = lhs(t, tau), rhs(t, tau)
        assert abs(a - b) / (1 + max(abs(a), abs(b))) < 1e-9


# -- Jacobi-form checks --------------------------------------------------------------

def test_check_jacobi_all_v_kinds_on_double_tangent():
    data = builtin("s2-v-double-tangent").data
    n = anomaly_index(data)
    assert n == 1
    for kind in (OperatorKind.DeltaVThetaPrime, OperatorKind.DVThetaQ,
                 OperatorKind.DVThetaMinusQ, OperatorKind.DVStarDifference):
        spec = designated_spec(kind, n, 1, 2, 0)
        F = degree_component_function(data, kind, 0, normalized=True, eps=1e-12)
        rep = check_jacobi(F, spec, samples=8, eps=1e-8)
        assert rep.passed, (kind, rep.max_discrepancy)


def test_check_jacobi_zero_function_passes():
    data = builtin("s2-rotation").data
    spec = designated_spec(OperatorKind.WittenH, 1, 1, 0, 0)
    F = degree_component_function(data, OperatorKind.WittenH, 0, eps=1e-12)
    rep = check_jacobi(F, spec, samples=4, eps=1e-8)
    assert rep.passed and rep.identically_zero


def test_check_jacobi_rigid_catalog_degree0():
    # rigid (anomaly 0) datasets still satisfy the full two-variable law
    # for their designated groups; the checker exercises both identities
    from eqgenus.localization import ActionData, FixedComponent

    def v_eq_tx(data):
        comps = tuple(FixedComponent(c.name, c.k_alpha, c.tangent, c.normals,
                                     c.normals, c.table, c.sign, c.gens, c.cap)
                      for c in data.components)
        return ActionData(data.fiber_half_dim, comps, data.base_gens,
                          data.base_cap, data.fiber_half_dim, None, data.name)

    for name in ("s2-rotation", "s2xs2-birotation"):
        data = v_eq_tx(builtin(name).data)
        n = anomaly_index(data)
        assert n == 0
        for kind in (OperatorKind.DVThetaQ, OperatorKind.DeltaVThetaPrime):
            spec = designated_spec(kind, n, data.fiber_half_dim,
                                   data.components[0].v_rank(), 0)
            F = degree_component_function(data, kind, 0, normalized=True, eps=1e-12)
            rep = check_jacobi(F, spec, samples=6, eps=1e-8)
            assert rep.passed, (name, kind, rep.max_discrepancy)


@pytest.mark.parametrize("samples", [0, -3, []])
def test_check_jacobi_rejects_empty_sample_set(samples):
    spec = JacobiFormSpec(Fraction(0), 2, ModularGroup.GAMMA0_2)
    with pytest.raises(ValueError):
        check_jacobi(lambda t, tau: 1.0, spec, samples=samples)


def test_check_jacobi_evaluates_base_once_per_sample():
    # F(t, tau) is shared by both laws: one base value, one slashed value
    # per generator and one translate per lattice vector
    calls = []

    def F(t, tau):
        calls.append((t, tau))
        return cmath.exp(1j * t) + tau

    spec = JacobiFormSpec(Fraction(1, 2), 2, ModularGroup.GAMMA_THETA)
    rep = check_jacobi(F, spec, samples=3)
    assert rep.samples == 3
    assert len(GROUP_GENERATORS[spec.group]) == 2
    assert len(calls) == 3 * 5
    assert len(set(calls)) == 3 * 5


def test_lattice_translation_example():
    # F(t + 2 tau, tau) = e^{-2 pi i m(4 tau + 4 t)} F(t, tau) for theta3
    # (a Jacobi-type function of index 1/2 for the doubled lattice)
    m = 0.5
    rng = random.Random(7)
    for _ in range(5):
        t = rng.uniform(0.1, 0.9)
        tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.6, 0.9))
        lhs = theta_numeric(ThetaKind.Theta3, t + 2 * tau, tau)
        rhs = cmath.exp(-2j * math.pi * m * (4 * tau + 4 * t)) * \
            theta_numeric(ThetaKind.Theta3, t, tau)
        assert abs(lhs - rhs) / (1 + max(abs(lhs), abs(rhs))) < 1e-9


# -- zero counting --------------------------------------------------------------------

def test_count_zeros_theta_unit_cell():
    tau = 0.5 + 1.2j
    F = lambda t, tt: theta_numeric(ThetaKind.Theta, t, tt, 1e-12)
    res = count_zeros(F, tau, (0.171 + 0.113j, 1, tau))
    assert not res.identically_zero
    assert abs(res.count - 1) < 0.2


def test_count_zeros_zero_function():
    res = count_zeros(lambda t, tau: 0j, 1j, (0.1, 1, 1j))
    assert res.identically_zero


def test_count_zeros_random_theta_quotients():
    rng = random.Random(113)
    tau = 0.3 + 1.1j
    kinds = list(ThetaKind)
    for _ in range(10):
        exps = {k: rng.randrange(-1, 3) for k in kinds}
        if all(e == 0 for e in exps.values()):
            exps[ThetaKind.Theta] = 1

        def F(t, tt, exps=exps):
            out = 1 + 0j
            for k, e in exps.items():
                if e:
                    out *= theta_numeric(k, t, tt, 1e-13) ** e
            return out

        expected = sum(exps.values())  # one zero per unit cell and kind
        res = count_zeros(F, tau, (0.161 + 0.093j, 1, tau))
        assert abs(res.count - expected) < 0.2, (exps, res)
        assert abs(res.count - round(res.count)) < 0.2


def _seeded_theta_quotients():
    # the ten quotients of test_count_zeros_random_theta_quotients, with
    # their expected counts
    rng = random.Random(113)
    kinds = list(ThetaKind)
    for _ in range(10):
        exps = {k: rng.randrange(-1, 3) for k in kinds}
        if all(e == 0 for e in exps.values()):
            exps[ThetaKind.Theta] = 1

        def F(t, tt, exps=exps):
            out = 1 + 0j
            for k, e in exps.items():
                if e:
                    out *= theta_numeric(k, t, tt, 1e-13) ** e
            return out

        yield F, sum(exps.values())


def test_count_zeros_is_integral_to_1e9():
    # the winding number sums exact phase increments of F: no quadrature
    # or difference quotient error is left in the count
    tau = 0.3 + 1.1j
    for F, expected in _seeded_theta_quotients():
        res = count_zeros(F, tau, (0.161 + 0.093j, 1, tau))
        assert abs(res.count - expected) < 1e-9, (expected, res)


def test_count_zeros_perturbs_origin_off_a_boundary_zero():
    # theta(0) = 0 exactly: the corner at the origin is a boundary zero
    tau = 0.5 + 1.2j
    F = lambda t, tt: theta_numeric(ThetaKind.Theta, t, tt, 1e-12)
    res = count_zeros(F, tau, (0, 1, tau))
    assert res.perturbations == 1
    assert round(res.count) == 1


def test_count_zeros_evaluation_budget():
    # the 16 x 16 zero-function grid plus the adaptively split edges
    calls = []

    def F(t, tt):
        calls.append(t)
        return theta_numeric(ThetaKind.Theta, t, tt, 1e-12)

    tau = 0.5 + 1.2j
    count_zeros(F, tau, (0.171 + 0.113j, 1, tau))
    assert len(calls) <= 400


# -- index classification ---------------------------------------------------------------

def test_verdict_zero_index():
    data = builtin("cp3-weighted").data
    res = equivariant_character(data, OperatorKind.DThetaQ, 16)
    v = rigidity_verdict_from_index(0, res)
    assert v.classification is IndexClassification.RigidByZeroIndex
    assert not v.contradiction


def test_verdict_positive_index_yet_zero():
    data = builtin("s2-rotation").data
    res = equivariant_character(data, OperatorKind.WittenH, 16)
    v = rigidity_verdict_from_index(1, res)
    assert v.classification is IndexClassification.PositiveIndexJacobiForm
    assert v.series_is_zero


def test_verdict_negative_index():
    from eqgenus.localization import ActionData, FixedComponent
    from eqgenus.algebra import GradedElement, IntegrationTable
    from eqgenus.genera import RootBundle
    zero = GradedElement.zero((), 0)
    # V a trivial weight-0 line: n = 0 - 1 = -1, and the character vanishes
    comps = tuple(
        FixedComponent(nm, 0, None, (RootBundle(Fraction(m), 1, (zero,)),),
                       (RootBundle(Fraction(0), 1, (zero,)),),
                       IntegrationTable((), 0, {}), 1, (), 0)
        for nm, m in (("p+", 1), ("p-", -1)))
    data = ActionData(1, comps, v_half_rank=1, name="neg")
    assert anomaly_index(data) == -1
    res = equivariant_character(data, OperatorKind.DVThetaQ, 16, normalized=True)
    v = rigidity_verdict_from_index(-1, res)
    assert v.classification is IndexClassification.VanishesByNegativeIndex
    assert v.series_is_zero and not v.contradiction
    # a nonzero series with a claimed negative index is flagged
    res2 = equivariant_character(builtin("s2-family-base").data,
                                 OperatorKind.DVThetaQ, 8, normalized=True)
    v2 = rigidity_verdict_from_index(-1, res2)
    assert v2.contradiction
