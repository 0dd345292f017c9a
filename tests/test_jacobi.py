import cmath
import math
import random
from fractions import Fraction

import pytest

from eqgenus.catalog import builtin, names
from eqgenus.genera import _NUMERATORS, _THETA_PRIME_0, OperatorKind, _numerators
from eqgenus.jacobi import (
    GROUP_GENERATORS,
    IDENTITY,
    IndexClassification,
    JacobiFormSpec,
    ModularGroup,
    ModularMatrix,
    S,
    T,
    _jacobi_samples,
    check_jacobi,
    count_zeros,
    designated_spec,
    rigidity_verdict_from_index,
    slash_action,
    subgroup_member,
)
from eqgenus.localization import anomaly_index, equivariant_character
from eqgenus.numeric import NumericPlan, degree_component_function, numeric_integrand
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


def test_check_jacobi_rejects_a_generator_outside_its_group(monkeypatch):
    # T is not in Gamma_theta: a law checked on it is not one the form obeys
    monkeypatch.setitem(GROUP_GENERATORS, ModularGroup.GAMMA_THETA, (S, T))
    spec = JacobiFormSpec(Fraction(1, 2), 2, ModularGroup.GAMMA_THETA)
    with pytest.raises(ValueError, match=r"generator \[\[1,1\],\[0,1\]\] is not in Gamma_theta"):
        check_jacobi(lambda t, tau: 1.0, spec, samples=3)


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


# -- the numeric integrand against theta_numeric ------------------------------------

_NULLS = (ThetaKind.Theta1, ThetaKind.Theta2, ThetaKind.Theta3)


def _line_value(num, v, tau, eps):
    """(value, count): ``genera``'s numerator num (a key of ``_NUMERATORS``)
    on a line at v, from theta_numeric, and the number of theta values it
    reads.  A theta kind's tokens are its pair product times E^{1/2} (1 -+
    E^{-1}) where it has "lin-+", which is 2 i sin(pi v) or 2 cos(pi v), so
    the kind's value is theta_numeric's times i per "lin-".  theta'(0) =
    c(q)^3 q^{1/8} is D_v = (2 pi i)^{-1} d/dv of that i theta at 0, and
    Jacobi's derivative formula, theta'(0) = pi theta1(0) theta2(0)
    theta3(0) in d/dv, makes it theta1(0) theta2(0) theta3(0) / 2, the 2
    being theta1's "lin+" at E = 1."""
    if num is None:
        return 1, 0
    if num == _THETA_PRIME_0:
        # the table's c(q) and q^{1/8} powers of theta'(0) are those of the product
        assert _NUMERATORS[num][2:] == tuple(map(sum, zip(*(_NUMERATORS[k][2:] for k in _NULLS))))
        lin = _NUMERATORS[ThetaKind.Theta1][0].count("lin+")
        return math.prod(theta_numeric(_NULLS, 0, tau, eps)) / 2 ** lin, 3
    return 1j ** _NUMERATORS[num][0].count("lin-") * theta_numeric(num, v, tau, eps), 1


def _quotient_at_point(kind, normalized, comp, t, tau, eps):
    """(value, count): the theta quotient of (kind, normalized) at an
    isolated fixed point with its roots at 0, as a product of
    theta_numeric values at (m t, tau) (``_line_value``): the TX numerator
    over theta on each normal line, and on each V line the V numerator over
    its value at 0 (``genera._numerators``)."""
    tx_num, v_num, null_num = _numerators(kind, normalized)
    value, count = 1, 0
    parts = [(comp.normals, tx_num, ThetaKind.Theta, None)]
    if kind.needs_v:
        parts.append((comp.vbundles, v_num, null_num, 0))
    for bundles, num, den, den_at in parts:
        for b in bundles:
            v = b.weight * t
            for _ in range(b.rank):
                (top, n), (bottom, m) = (_line_value(num, v, tau, eps),
                                         _line_value(den, v if den_at is None else den_at, tau, eps))
                value, count = value * top / bottom, count + n + m
    return value, count


def _oracle_points():
    """check_jacobi's default samples, their images under every group
    generator (Im tau down to 0.12), and seeded points down to Im tau = 0.1."""
    pts = _jacobi_samples(16)
    images = [g.act(t, tau) for gens in GROUP_GENERATORS.values() for g in gens
              for t, tau in pts]
    rng = random.Random(131)
    seeded = [(complex(rng.uniform(0.07, 0.93), rng.uniform(-0.02, 0.02)),
               complex(rng.uniform(-0.5, 0.5), 0.1 if i == 0 else 10 ** rng.uniform(-1, 0.1)))
              for i in range(16)]
    return pts + images + seeded


def test_numeric_integrand_matches_theta_numeric_quotients():
    # at every isolated fixed point of every catalog dataset and variant,
    # for every kind, raw and dim-normalized, the integrand's scalar part
    # (all of it but at s2-family-base, whose roots are b) is the product of
    # theta_numeric quotients at (m t, tau) that its family names; each of
    # the n theta values is within relative eps and the jet within
    # l1-relative eps, so the two agree within (n + 1) eps of the jet's l1
    # norm.  Nothing is fitted: the constants come from genera's tables
    eps = 1e-12
    points = _oracle_points()
    assert min(tau.imag for _, tau in points) == 0.1
    cases = 0
    for name in names():
        entry = builtin(name)
        for data in (entry.data, *entry.variants.values()):
            has_v = bool(data.components[0].vbundles)
            for kind in OperatorKind:
                if kind.needs_v and not has_v:
                    continue
                for normalized in (False, True)[:1 + kind.supports_normalized]:
                    for comp in data.components:
                        assert comp.k_alpha == 0
                        plan = NumericPlan(kind, normalized, comp)
                        for t, tau in points:
                            jet = numeric_integrand(kind, comp, t, tau, eps, normalized, plan)
                            want, count = _quotient_at_point(kind, normalized, comp, t, tau, eps)
                            err = abs(jet.scalar_part() - want)
                            assert err <= (count + 1) * eps * sum(map(abs, jet.c)), (
                                data.name, kind, normalized, comp.name, t, tau)
                            cases += 1
    assert cases > 5000


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


def _grid(origin, v1, v2):
    return [origin + (i + 0.5) / 16 * v1 + (j + 0.5) / 16 * v2
            for i in range(16) for j in range(16)]


@pytest.mark.parametrize("tau, cell, band_size", [
    (1j, (0.1, 1, 1j), 96),
    (0.5 + 1.2j, (0.171 + 0.113j, 2, 1 + 2.4j), 32),
])
def test_count_zeros_reads_only_the_band_of_a_zero_function(tau, cell, band_size):
    # the verdict reads the low band |Im z - Im origin| <= max(0.35, |v2|/8)
    # alone, so a zero F is evaluated there and nowhere else
    calls = []

    def F(t, tt):
        calls.append(t)
        return 0j

    assert count_zeros(F, tau, cell).identically_zero
    origin, v1, v2 = (complex(c) for c in cell)
    band = [z for z in _grid(origin, v1, v2)
            if abs(z.imag - origin.imag) <= max(0.35, abs(v2) / 8)]
    assert len(band) == band_size
    assert sorted(calls, key=lambda z: (z.real, z.imag)) == \
        sorted(band, key=lambda z: (z.real, z.imag))


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
    # F is not zero: its scale comes from all 256 grid points
    assert set(_grid(0.171 + 0.113j, 1, tau)) <= set(calls)


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
