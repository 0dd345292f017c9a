import cmath
import math
import random
from fractions import Fraction

import pytest

from eqgenus.algebra import DegreeOutOfRange, GradedElement, IntegrationTable, WLaurentRational
from eqgenus.genera import (OperatorKind, RootBundle, component_denominator, component_integrands,
                            root_scale)
from eqgenus.catalog import builtin, names
from eqgenus.localization import (
    ActionData,
    FixedComponent,
    NearPole,
    ValidationError,
    anomaly_index,
    equivariant_character,
    equivariant_characters,
    _class_key,
    _component_classes,
    rigidity_check,
    validate,
)
from eqgenus.numeric import evaluate_numeric
from eqgenus.reference import component_contribution, degree_component, pole_cancellation_check


def isolated(name, weights, v=(), sign=1, base_gens=(), base_cap=0, roots=None):
    gens, cap = tuple(base_gens), base_cap
    zero = GradedElement.zero(gens, cap)
    rts = roots if roots is not None else {}
    normals = tuple(RootBundle(Fraction(m), 1, (rts.get(m, zero),)) for m in weights)
    vb = tuple(RootBundle(Fraction(n), r, (zero,) * r) for n, r in v)
    return FixedComponent(name, 0, None, normals, vb, IntegrationTable((), 0, {}), sign, gens, cap)


def s2(v=()):
    return ActionData(1, (isolated("p+", (1,), v), isolated("p-", (-1,), v)),
                      v_half_rank=sum(r for _, r in v) if v else None, name="s2")


# -- validation -----------------------------------------------------------------

def test_validate_s2():
    data = builtin("s2-rotation").data
    rep = validate(data)
    assert rep.ok
    assert data.report is data.report and data.report == rep
    assert rep.anomaly_tx == 1
    assert rep.witten_h_applicable


def _weighted_cp(weights):
    """CP^n under [z_0 : ... : t^{a_n} z_n] with distinct weights a_i: the
    fixed point e_i has the normal weights a_j - a_i."""
    return ActionData(len(weights) - 1,
                      tuple(isolated("e%d" % i, [b - a for b in weights if b != a])
                            for i, a in enumerate(weights)), name="cp%s" % (weights,))


def _parity_warnings(data):
    return [w for w in validate(data).warnings if "parity" in w]


def test_validate_warns_on_mixed_spin_parity():
    # on a spin manifold sum m d(m) has one parity at every fixed point
    # (Bott-Taubes): CP^2 is not spin, and under (0, 1, 2) its sums are 3, 0
    # and -3; CP^3 is spin, and under (0, 1, 2, 3) they are 6, 2, -2 and -6
    assert validate(_weighted_cp((0, 1, 2))).ok
    [warning] = _parity_warnings(_weighted_cp((0, 1, 2)))
    assert "'e0' 3, 'e1' 0, 'e2' -3" in warning
    assert not _parity_warnings(_weighted_cp((0, 1, 2, 3)))
    # half-integer weights are the circle of period 2's: s4-rotation's
    # variant has the sums 1 and 0, whose doubles are even
    for name in names():
        entry = builtin(name)
        for data in (entry.data, *entry.variants.values()):
            assert not _parity_warnings(data), data.name


def test_validate_zero_weight():
    data = ActionData(1, (isolated("p", (0,)),))
    rep = validate(data)
    assert not rep.ok
    assert any("ZeroWeightNormalBundle" in e for e in rep.errors)


def test_validate_rank_bookkeeping():
    data = ActionData(2, (isolated("p", (1,)),))
    rep = validate(data)
    assert not rep.ok


def test_anomaly_examples():
    # per-component sums: V = TX + TX gives 2 m^2 - m^2 = m^2 = 1 on the sphere
    assert anomaly_index(s2()) == 1
    assert anomaly_index(s2(v=((1, 2),))) == 1
    assert anomaly_index(s2(v=((1, 1),))) == 0  # V = TX


def test_anomaly_inconsistent():
    data = ActionData(1, (isolated("p+", (1,), v=((2, 1),)),
                          isolated("p-", (-1,), v=((1, 1),))),
                      v_half_rank=1)
    with pytest.raises(ValidationError):
        anomaly_index(data)


def test_declared_anomaly_checked():
    data = ActionData(1, s2(v=((1, 2),)).components, v_half_rank=2, declared_anomaly=5)
    rep = validate(data)
    assert not rep.ok


# -- the engine -------------------------------------------------------------------

def test_s2_dirac_q0_cancellation():
    # the two points contribute 1/(w - w^{-1}) and its negation at leading order
    res = equivariant_character(s2(), OperatorKind.DThetaQ, 8)
    assert res.coefficient(-1) == WLaurentRational.zero()
    per = [component_contribution(s2(), c, OperatorKind.DThetaQ, 8) for c in s2().components]
    lead = per[0].c[-1].scalar_part()
    w = WLaurentRational.w
    assert lead == (w(1) - w(-1)).inverse()


def test_s2_witten_h_vanishes():
    res = equivariant_character(s2(), OperatorKind.WittenH, 48)
    assert not res.series.c


@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("kind", [OperatorKind.DVStarDifference, OperatorKind.DeltaVThetaPrime])
def test_orders_below_the_q_shift(kind, copies):
    # V = copies * TX on S^2: the quotient carries q^{(copies - 1)/8}, so
    # the orders below claim no coefficient, and their index character is
    # defined
    data = ActionData(1, (isolated("p+", (1,), ((1, copies),)),
                          isolated("p-", (-1,), ((-1, copies),))), v_half_rank=copies)
    for n8 in range(copies - 1):
        res = equivariant_character(data, kind, n8)
        assert res.series.n8 == n8 and not res.series.c
        assert not res.index_character().c


def test_single_point_passthrough():
    from eqgenus.genera import theta_quotient_integrand
    data = ActionData(1, (isolated("p", (1,)),))
    res = equivariant_character(data, OperatorKind.DThetaQ, 16)
    direct = theta_quotient_integrand(OperatorKind.DThetaQ, data.components[0], 16)
    assert res.series == direct.map_coefficients(lambda g: g)


def _cp3(seed):
    """A weighted CP^3 with 4 distinct projective weights in [-3, 3] spanning
    4: one isolated point per weight, normal weights the differences."""
    rng = random.Random(seed)
    lo = rng.randint(-3, -1)
    weights = [lo, lo + 4] + rng.sample(range(lo + 1, lo + 4), 2)
    rng.shuffle(weights)
    return ActionData(3, tuple(isolated("e%d" % i, [b - a for b in weights if b != a])
                               for i, a in enumerate(weights)), name="cp3-%d" % seed)


def _summed_contributions(data, kind, n8, normalized=False):
    """The pole check over the per-component reduced series."""
    return pole_cancellation_check([component_contribution(data, c, kind, n8, normalized)
                                    for c in data.components])


@pytest.mark.parametrize("name", names())
def test_character_equals_sum_of_reduced_contributions(name):
    # the sum over the common denominator, reduced once, equals the sum of
    # the per-component reduced series, for every kind that applies
    data = builtin(name).data
    has_v = all(c.vbundles for c in data.components)
    for kind in OperatorKind:
        if kind.needs_v and not has_v:
            continue
        for normalized in (False, True) if kind.supports_normalized else (False,):
            rep = _summed_contributions(data, kind, 16, normalized)
            assert equivariant_character(data, kind, 16, normalized).series == rep.summed
            if (name, kind) == ("s2-family-base", OperatorKind.DVThetaQ):
                assert not rep.cancelled  # the sum keeps a pole


@pytest.mark.parametrize("name", names())
def test_characters_of_several_kinds_equal_each_kind_alone(name):
    # one denominator part per component, inverted to the deepest working
    # order of all the kinds, gives each kind the result it gets alone; at
    # n8 = 0 the working order of every kind with a positive q-shift
    # clamps at 0
    data = builtin(name).data
    has_v = all(c.vbundles for c in data.components)
    for normalized in (False, True):
        kinds = tuple(k for k in OperatorKind if (has_v or not k.needs_v)
                      and (k.supports_normalized or not normalized))
        for n8 in (0, 1, 7, 24):
            together = equivariant_characters(data, kinds, n8, normalized)
            assert tuple(together) == kinds
            for kind in kinds:
                assert together[kind] == equivariant_character(data, kind, n8, normalized)


@pytest.mark.parametrize("seed", range(5))
def test_character_equals_sum_of_reduced_contributions_cp3(seed):
    data = _cp3(seed)
    for kind in OperatorKind:
        if kind.needs_v:
            continue
        rep = _summed_contributions(data, kind, 24)
        assert equivariant_character(data, kind, 24).series == rep.summed
        if kind is OperatorKind.DThetaQ:
            # the components carry poles and the sum vanishes
            assert any(before for before, _ in rep.per_q.values()) and not rep.summed


def test_cp3_d_theta_q_vanishes_at_order_48():
    data = _cp3(48)
    assert validate(data).ok
    res = equivariant_character(data, OperatorKind.DThetaQ, 48)
    assert res.n8 == 48 and not res.series.c


def test_rigidity_s2_and_witness():
    res = equivariant_character(s2(), OperatorKind.DThetaQ, 20)
    v = rigidity_check(res)
    assert v.rigid and not any(v.constants.values())
    # corrupt one weight
    bad = ActionData(1, (isolated("p+", (1,)), isolated("p-", (1,), sign=1)), name="bad")
    resb = equivariant_character(bad, OperatorKind.DThetaQ, 16)
    vb = rigidity_check(resb)
    assert not vb.rigid
    assert vb.witness[0] == -1  # fails already at the leading exponent


def test_pole_cancellation_s2():
    data = s2()
    per = [component_contribution(data, c, OperatorKind.DThetaQ, 16)
           for c in data.components]
    rep = pole_cancellation_check(per)
    assert rep.cancelled
    assert any(before > 0 for before, _ in rep.per_q.values())
    solo = pole_cancellation_check(per[:1])
    assert not solo.cancelled


def test_pole_cancellation_cp3_half_power():
    # the q^{1/2} coefficient of the Dirac family on the weighted projective
    # space: each point carries denominators, the sum is w-free
    data = builtin("cp3-weighted").data
    per = [component_contribution(data, c, OperatorKind.DThetaQ, 8)
           for c in data.components]
    rep = pole_cancellation_check(per)
    key = -3 + 4  # q^{-3/8} * q^{4/8}: the q^{1/8}-grid slot of the q^{1/2} term
    before, after = rep.per_q[key]
    assert before > 0 and after == 0
    # numeric sampling on |w| = 1 agrees with the reduced constant
    from eqgenus.numeric import evaluate_numeric
    for j in range(8):
        t = 0.11 + j / 9.31
        vals = evaluate_numeric(data, OperatorKind.DThetaQ, t, 1.3j, 1e-11)
        # isolate nothing: just confirm the full series evaluation stays
        # finite and t-independent (rigid), consistent with w-free reduction
        assert abs(vals["1"] - evaluate_numeric(data, OperatorKind.DThetaQ,
                                                0.21, 1.3j, 1e-11)["1"]) < 1e-8


def test_orientation_warning_for_flipped_table():
    gens = (("y", 2),)
    y = GradedElement.generator(gens, 2, "y")
    table = IntegrationTable(("y",), 1, {(1,): Fraction(-1)})
    comp = FixedComponent("all", 1, RootBundle(Fraction(0), 1, (y,)), (), (),
                          table, 1, gens, 2)
    rep = validate(ActionData(1, (comp,)))
    assert rep.ok
    assert any("orientation" in w for w in rep.warnings)
    # an error in an earlier component leaves this component's check on
    empty = FixedComponent("empty", 0, None, (), (), IntegrationTable((), 0, {}), 1, gens, 2)
    rep = validate(ActionData(1, (empty, comp)))
    assert not rep.ok
    assert any("orientation" in w for w in rep.warnings)


def test_degree_component_examples():
    res = equivariant_character(s2(), OperatorKind.DThetaQ, 16)
    d0 = degree_component(res, 0)
    assert set(d0) <= {"1"}
    with pytest.raises(DegreeOutOfRange):
        degree_component(res, 2)


def test_family_degree2_is_root_derivative():
    # frozen hand computation: on the b-shifted family, the q^0 coefficient
    # of the degree-2 part of the normalized D-family is
    # d/db [sum over +-1 of 1/(w^m e^{b/2} - w^{-m} e^{-b/2})] at b = 0
    #   = -w (w^2 + 1)/(w^2 - 1)^2
    data = builtin("s2-family-base").data
    res = equivariant_character(data, OperatorKind.DVThetaQ, 8, normalized=True)
    d2 = degree_component(res, 2)
    w = WLaurentRational.w
    expect = -(w(3) + w(1)) * ((w(2) - 1) ** 2).inverse()
    assert d2["b"].c[0] == expect


def test_linearity_disjoint_union():
    a = s2()
    b = ActionData(1, (isolated("q+", (2,)), isolated("q-", (-2,))), name="b")
    union = ActionData(1, a.components + b.components, name="ab")
    ra = equivariant_character(a, OperatorKind.DThetaMinusQ, 12).series
    rb = equivariant_character(b, OperatorKind.DThetaMinusQ, 12).series
    ru = equivariant_character(union, OperatorKind.DThetaMinusQ, 12).series
    assert ru == ra + rb
    # orientation sign -1 enters negated: flipping one cp3 component's sign
    # moves the character by twice that component's contribution
    cp3 = builtin("cp3-weighted").data
    first = cp3.components[0]
    flipped = ActionData(3, (first._replace(sign=-1),) + cp3.components[1:], name="flipped")
    r = equivariant_character(cp3, OperatorKind.DThetaMinusQ, 12).series
    rf = equivariant_character(flipped, OperatorKind.DThetaMinusQ, 12).series
    part = component_contribution(cp3, first, OperatorKind.DThetaMinusQ, 12)
    assert part
    assert r - rf == part + part


def test_weight_negation_involution():
    data = s2(v=((1, 2),))
    neg = ActionData(1, (isolated("p+", (-1,), v=((-1, 2),)),
                         isolated("p-", (1,), v=((-1, 2),))), v_half_rank=2)
    for kind in (OperatorKind.DVThetaQ, OperatorKind.WittenH):
        ra = equivariant_character(data, kind, 12, normalized=True).series
        rb = equivariant_character(neg, kind, 12, normalized=True).series
        flipped = ra.map_coefficients(lambda g: g.subs_w_inverse())
        assert flipped == rb


# -- conjugate pairs ---------------------------------------------------------------

# each catalog pair (first, conjugate): the conjugate's data is the first's
# with every normal and V weight negated
_CATALOG_PAIRS = {
    "cp3-weighted": [("e0", "e3"), ("e1", "e2")],
    "s2-family-base": [("p+", "p-")],
    "s2-rotation": [("p+", "p-")],
    "s2-v-double-tangent": [("p+", "p-")],
    "s2xs2-birotation": [("p+1+1", "p-1-1"), ("p+1-1", "p-1+1")],
    "s4-rotation": [],
}

# each catalog class (representative, summed sign of its equal members,
# summed sign of its conjugates): s2xs2's p-1+1 is p+1-1 with its two lines
# listed in the other order, so it is equal as well as conjugate, and
# equality wins
_CATALOG_CLASSES = {
    "cp3-weighted": [("e0", 1, 1), ("e1", 1, 1)],
    "s2-family-base": [("p+", 1, 1)],
    "s2-rotation": [("p+", 1, 1)],
    "s2-v-double-tangent": [("p+", 1, 1)],
    "s2xs2-birotation": [("p+1+1", 1, 1), ("p+1-1", 2, 0)],
    "s4-rotation": [("pN", 1, 0), ("pS", 1, 0)],
}


def _variants(data):
    """Every applicable (kind, normalized) of a dataset."""
    has_v = all(c.vbundles for c in data.components)
    return [(kind, normalized) for kind in OperatorKind if has_v or not kind.needs_v
            for normalized in ((False, True) if kind.supports_normalized else (False,))]


@pytest.mark.parametrize("name", names())
def test_conjugate_pairs_of_the_catalog(name):
    data = builtin(name).data
    comps = {c.name: c for c in data.components}
    for first, conj in _CATALOG_PAIRS[name]:
        assert _class_key(comps[first], True) == _class_key(comps[conj])
    classes = [(c.name, s, cs) for c, s, cs in _component_classes(data.components)]
    assert classes == _CATALOG_CLASSES[name]


def _assert_conjugate_integrands(data, pairs):
    """Built directly, each conjugate's unreduced series is its first's with
    w -> w^{-1}, coefficient by coefficient, and so is its den."""
    comps = {c.name: c for c in data.components}
    for first, conj in pairs:
        for kind, normalized in _variants(data):
            N = root_scale(data.components)
            [(_, series)] = component_integrands(comps[first], (kind,), 24, normalized, N)
            [(_, series_c)] = component_integrands(comps[conj], (kind,), 24, normalized, N)
            den, den_c = component_denominator(comps[first]), component_denominator(comps[conj])
            assert den_c == den.subs_w_inverse()
            flipped = series.map_coefficients(lambda g: g.subs_w_inverse())
            assert series_c.c and series_c == flipped, (first, kind, normalized)


@pytest.mark.parametrize("name", [n for n in names() if _CATALOG_PAIRS[n]])
def test_conjugate_integrand_is_the_first_with_w_inverted(name):
    _assert_conjugate_integrands(builtin(name).data, _CATALOG_PAIRS[name])


def test_s4_poles_are_not_conjugate():
    # pS negates both weights but also one line's root class
    n, s = builtin("s4-rotation").data.components
    assert _class_key(n, True) != _class_key(s) and _class_key(s, True) != _class_key(n)


def _fibered_pair(conj_root=1, conj_table=1, conj_sign=-1):
    """A fixed projective line with one normal line of weight 1 and root
    y + b, and its conjugate (weight -1), V = TX on both; the conjugate's
    normal root is conj_root (y + b), its table entry conj_table and its
    sign conj_sign."""
    gens = (("y", 2), ("b", 2))
    y, b = (GradedElement.generator(gens, 4, g) for g, _ in gens)
    tangent = RootBundle(Fraction(0), 1, (y * 2,))

    def comp(name, weight, root, entry, sign):
        normal = RootBundle(Fraction(weight), 1, (root,))
        return FixedComponent(name, 1, tangent, (normal,), (tangent, normal),
                              IntegrationTable(("y",), 1, {(1,): Fraction(entry)}),
                              sign, gens, 4)

    return ActionData(2, (comp("a", 1, y + b, 1, 1),
                          comp("a*", -1, (y + b) * conj_root, conj_table, conj_sign)),
                      base_gens=(("b", 2),), base_cap=2, name="fibered-pair")


def test_conjugate_needs_equal_roots_and_tables():
    a, conj = _fibered_pair().components
    assert _class_key(a, True) == _class_key(conj)
    for changed in (_fibered_pair(conj_root=2), _fibered_pair(conj_table=2)):
        a, other = changed.components
        assert _class_key(a, True) != _class_key(other)
        assert _component_classes(changed.components) == [(a, 1, 0), (other, -1, 0)]


def test_conjugate_pair_with_different_signs_sums_like_its_contributions():
    # the conjugate enters with its own sign, here the opposite of the first's
    data = _fibered_pair()
    assert validate(data).ok
    _assert_conjugate_integrands(data, [("a", "a*")])
    assert [(c.name, s, cs) for c, s, cs in _component_classes(data.components)] == [("a", 1, -1)]
    for kind, normalized in _variants(data):
        rep = _summed_contributions(data, kind, 16, normalized)
        res = equivariant_character(data, kind, 16, normalized).series
        assert res == rep.summed, (kind, normalized)
        # the conjugate's share is nonzero, so its sign is seen
        assert component_contribution(data, data.components[1], kind, 16, normalized)


def _cp3_repeated():
    """e0 three times with signs (+1, +1, -1); e1 twice with (+1, -1), so its
    class builds only for its conjugate e2; a point x with a copy of
    opposite sign, whose class sums to 0 and is not built."""
    e0, e1, e2, e3 = builtin("cp3-weighted").data.components
    x = isolated("x", (-1, 2, 3))
    return ActionData(3, (e0, e1, e0._replace(name="e0'"), e2, x, e3,
                          e0._replace(name="e0''", sign=-1), x._replace(name="x'", sign=-1),
                          e1._replace(name="e1'", sign=-1)),
                      name="cp3-repeated")


def test_equal_components_are_built_once_and_sum_like_their_contributions(monkeypatch):
    from eqgenus import genera
    data = _cp3_repeated()
    classes = [(c.name, s, cs) for c, s, cs in _component_classes(data.components)]
    assert classes == [("e0", 1, 1), ("e1", 0, 1), ("x", 0, 0)]
    for kind, normalized in _variants(data):
        rep = _summed_contributions(data, kind, 16, normalized)
        assert equivariant_character(data, kind, 16, normalized).series == rep.summed
    # each class builds U and expands 1/U, the one series divided by theta
    # pair factors, once for every kind
    built, inverted = [], []
    denominator, expand = genera._denominator, genera._expand
    monkeypatch.setattr(genera, "_denominator",
                        lambda be, *parts: built.append(be) or denominator(be, *parts))

    def counting_expand(c, f):
        if any(isinstance(a, GradedElement) for _, a, _ in f.divs):
            inverted.append(f)
        return expand(c, f)

    monkeypatch.setattr(genera, "_expand", counting_expand)
    equivariant_characters(data, [kind for kind, _ in _variants(data)], 16)
    assert len(built) == len(inverted) == 2


@pytest.mark.parametrize("name", names() + ["cp3-repeated"])
def test_component_order_leaves_every_character_unchanged(name):
    # the order picks each class's representative, and so which member of a
    # conjugate pair is built and which is its w -> w^{-1} image; reversing
    # the order swaps the first member of every pair.  This cannot catch an
    # error made the same way in every class, whatever its representative.
    data = _cp3_repeated() if name == "cp3-repeated" else builtin(name).data
    comps = list(data.components)
    orders = [comps[::-1]]
    rng = random.Random(len(comps))
    for _ in range(2):
        orders.append(rng.sample(comps, len(comps)))
    for normalized in (False, True):
        kinds = [kind for kind, norm in _variants(data) if norm == normalized]
        want = equivariant_characters(data, kinds, 16, normalized)
        for order in orders:
            got = equivariant_characters(data._replace(components=tuple(order)), kinds, 16,
                                         normalized)
            for kind in kinds:
                assert got[kind].series == want[kind].series, (kind, normalized,
                                                               [c.name for c in order])


# -- numeric path ------------------------------------------------------------------

def test_evaluate_numeric_h_vanishes():
    vals = evaluate_numeric(s2(), OperatorKind.WittenH, 0.3, 1j)
    assert abs(vals["1"]) < 1e-9


def test_evaluate_numeric_rigid_constancy():
    data = builtin("cp3-weighted").data
    v1 = evaluate_numeric(data, OperatorKind.DThetaQ, 0.21, 0.9j)
    v2 = evaluate_numeric(data, OperatorKind.DThetaQ, 0.37, 0.9j)
    assert abs(v1["1"] - v2["1"]) < 2e-9
    # all rigid constants vanish for this dataset, so the function itself does
    assert abs(v1["1"]) < 1e-9


def test_rigid_constants_match_numeric_spot_values():
    from eqgenus.reference import evaluate_formal
    data = ActionData(1, (isolated("p+", (1,), v=((1, 1),)),
                          isolated("p-", (-1,), v=((-1, 1),))),
                      v_half_rank=1, name="s2-vtx")
    res = equivariant_character(data, OperatorKind.DVStarDifference, 64)
    v = rigidity_check(res)
    assert v.rigid
    tau = 1.05j
    for t in (0.17, 0.29, 0.41, 0.63, 0.77):
        expect = sum(complex(c) * (cmath.exp(2j * math.pi * tau / 8)) ** k
                     for (k, m), c in v.constants.items())
        got = evaluate_numeric(data, OperatorKind.DVStarDifference, t, tau)["1"]
        assert abs(got - expect) < 1e-8, t


def test_evaluate_numeric_near_pole():
    with pytest.raises(NearPole):
        evaluate_numeric(s2(), OperatorKind.DThetaQ, 0.0, 1j)
    with pytest.raises(NearPole):
        evaluate_numeric(s2(), OperatorKind.DThetaQ, 1.0 + 2e-7, 1j)


def test_formal_vs_numeric_cross_validation():
    from eqgenus.reference import evaluate_formal
    rng = random.Random(61)
    datasets = [s2(), s2(v=((1, 2),)), builtin("s2xs2-birotation").data,
                ActionData(1, (isolated("p", (1,)),), name="one-pt")]
    for _ in range(10):
        data = rng.choice(datasets)
        kind = rng.choice([OperatorKind.DThetaQ, OperatorKind.DsThetaPrime,
                           OperatorKind.WittenH])
        t = rng.uniform(0.15, 0.85)
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))
        res = equivariant_character(data, kind, 64)
        ser = res.series.map_coefficients(lambda g: g.scalar_part())
        ser = ser.map_coefficients(lambda v: v if isinstance(v, WLaurentRational)
                                   else WLaurentRational.const(v))
        ref = evaluate_formal(ser, t, tau)
        val = evaluate_numeric(data, kind, t, tau, 1e-11)["1"]
        assert abs(val - ref) < 1e-7


def test_numeric_matches_formal_fibered_component():
    # whole-fiber fixed component (projective line, tangent root 2y)
    from eqgenus.reference import evaluate_formal
    gens = (("y", 2),)
    y = GradedElement.generator(gens, 2, "y")
    table = IntegrationTable(("y",), 1, {(1,): Fraction(1)})
    comp = FixedComponent("all", 1, RootBundle(Fraction(0), 1, (y * 2,)), (), (),
                          table, 1, gens, 2)
    data = ActionData(1, (comp,), name="p1-fiber")
    t, tau = 0.37, 0.2 + 1.1j
    for kind in (OperatorKind.DsThetaPrime, OperatorKind.DThetaMinusQ):
        res = equivariant_character(data, kind, 64)
        ser = res.series.map_coefficients(lambda g: g.scalar_part())
        ser = ser.map_coefficients(lambda v: v if isinstance(v, WLaurentRational)
                                   else WLaurentRational.const(v))
        ref = evaluate_formal(ser, t, tau)
        val = evaluate_numeric(data, kind, t, tau, 1e-11)["1"]
        assert abs(val - ref) < 1e-8, kind


def test_integrality_of_rigid_constants():
    # D* on the sphere with V = TX: the index character is the constant -2
    data = ActionData(1, (isolated("p+", (1,), v=((1, 1),)),
                          isolated("p-", (-1,), v=((-1, 1),))),
                      v_half_rank=1, name="s2-vtx")
    res = equivariant_character(data, OperatorKind.DVStarDifference, 16)
    v = rigidity_check(res)
    assert v.rigid
    idx = res.index_character()
    for key, coeff in idx.c.items():
        c = coeff.scalar_part()
        c = c if isinstance(c, Fraction) else c.constant()
        assert Fraction(c).denominator == 1
    assert idx.c[0].scalar_part() == WLaurentRational.const(-2)
