import cmath
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from eqgenus import genera, numeric
from eqgenus.algebra import (
    GradedElement,
    IntegrationTable,
    OffGridExponent,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
    series_invert,
    series_mul,
)
from eqgenus.genera import (
    NON_V_KINDS,
    OperatorKind,
    RootBundle,
    ZeroWeightNormalBundle,
    _line,
    constants_ledger,
    theta_quotient_integrand,
)
from eqgenus.kinds import PAIR_GRID, ConstantsLedger, ThetaKind
from eqgenus.localization import ActionData, FixedComponent, equivariant_character
from eqgenus.numeric import NumericPlan, _JetBackend, numeric_integrand
from eqgenus.reference import (
    a_hat,
    complexified,
    oracle_expand_vs_closed,
    theta_formal,
    theta_taylor,
    witten_element_ch,
)


@dataclass
class Comp:
    gens: tuple
    cap: int
    tangent: RootBundle | None
    normals: tuple
    vbundles: tuple = ()
    name: str = "c"


def point(*weights, v=()):
    """Isolated fixed point: rank-1 normals with zero roots."""
    zero = GradedElement.zero((), 0)
    normals = tuple(RootBundle(Fraction(m), 1, (zero,)) for m in weights)
    vb = tuple(RootBundle(Fraction(n), r, (zero,) * r) for n, r in v)
    return Comp((), 0, None, normals, vb)


def scalar_series(qs: QSeries) -> QSeries:
    """Drop the (empty) graded layer of a point-component integrand."""
    return qs.map_coefficients(
        lambda g: g.scalar_part() if isinstance(g, GradedElement) else g)


def as_wrat(qs: QSeries) -> QSeries:
    return qs.map_coefficients(
        lambda v: v if isinstance(v, WLaurentRational) else WLaurentRational.const(v))


# -- closed theta-quotient form -------------------------------------------------

def test_point_integrand_is_theta2_over_theta():
    # single normal line of weight 1: the integrand must equal the formal
    # quotient theta2(t)/theta(t) with the extracted i's cancelling
    comp = point(1)
    got = scalar_series(theta_quotient_integrand(OperatorKind.DThetaQ, comp, 16))
    th2 = theta_formal(ThetaKind.Theta2, 1, 18).series
    th = theta_formal(ThetaKind.Theta, 1, 18).series
    expect = series_mul(th2, series_invert(th)).truncate(16)
    assert as_wrat(got).first_mismatch(expect) is None


def test_ds_normal_factor_q0():
    for m in (1, 2, -1):
        comp = point(m)
        got = scalar_series(theta_quotient_integrand(OperatorKind.DsThetaPrime, comp, 8))
        w2m = WLaurentRational.w(2 * m)
        expect = (w2m + 1) / (w2m - 1)
        assert as_wrat(got).coefficient(0) == expect


def test_zero_weight_normal_rejected():
    zero = GradedElement.zero((), 0)
    comp = point(1)
    bad = Comp((), 0, None, comp.normals + (RootBundle(0, 1, (zero,)),))
    with pytest.raises(ZeroWeightNormalBundle):
        theta_quotient_integrand(OperatorKind.DThetaQ, bad, 8)
    # a bundle itself rejects a rank that is not its number of roots and a
    # weight off the half-integers, and stores its weight as a Fraction
    with pytest.raises(ValueError, match="rank 2 but 1 roots"):
        RootBundle(1, 2, (zero,))
    with pytest.raises(ValueError, match="half-integers"):
        RootBundle(Fraction(1, 3), 1, (zero,))
    assert type(RootBundle(2, 1, (zero,)).weight) is Fraction


def test_parity_involution():
    # w -> w^{-1} equals negating every weight
    comp = point(1, 2)
    neg = point(-1, -2)
    for kind in (OperatorKind.DThetaQ, OperatorKind.DsThetaPrime, OperatorKind.WittenH):
        a = as_wrat(scalar_series(theta_quotient_integrand(kind, comp, 12)))
        b = as_wrat(scalar_series(theta_quotient_integrand(kind, neg, 12)))
        flipped = a.map_coefficients(lambda c: c.subs_w_inverse())
        assert flipped.first_mismatch(b) is None


def test_tangent_factor_degree0_series():
    # one tangent root y at cap 4: at q^0 the factor is the spinor character
    # of a line, 2 + y^2/6 exactly (hand division of the two Taylor stacks)
    gens = (("y", 2),)
    y = GradedElement.generator(gens, 4, "y")
    comp = Comp(gens, 4, RootBundle(0, 1, (y,)), ())
    got = theta_quotient_integrand(OperatorKind.DsThetaPrime, comp, 8)
    q0 = got.coefficient(0)
    assert q0.scalar_part() == 2
    assert q0.terms.get((2,)) == Fraction(1, 6)
    # q-dependent degree-0 part: 2 * [prod(1+q^n)^2 / prod(1-q^n)^2]_q = 8
    deg0 = scalar_series(got)
    assert deg0.coefficient(8) == WLaurentRational.const(Fraction(2) * 4)


# -- the expansion path ----------------------------------------------------------

def test_a_hat_examples():
    gens = (("y", 2), ("z", 2))
    assert a_hat(RootBundle(0, 0, ()), gens, 4) == GradedElement.scalar(gens, 4, Fraction(1))
    y = GradedElement.generator(gens, 4, "y")
    ah = a_hat(RootBundle(0, 1, (y,)))
    assert ah == GradedElement(gens, 4, {(0, 0): Fraction(1), (2, 0): Fraction(-1, 24)})
    z = GradedElement.generator(gens, 4, "z")
    both = a_hat(RootBundle(0, 2, (y, z)))
    assert both == a_hat(RootBundle(0, 1, (y,))) * a_hat(RootBundle(0, 1, (z,)))


def test_witten_element_examples():
    gens = ()
    zero = GradedElement.zero(gens, 0)
    line = RootBundle(2, 1, (zero,))
    # q^0 coefficient of any Theta-element is 1
    el = witten_element_ch(OperatorKind.DThetaQ, (line,), (), 12, gens=gens, cap=0)
    assert el.coefficient(0).scalar_part() == 1
    # Lambda_{-q^{1/2}} first correction: -w^{2m} at q^{1/2}
    assert el.coefficient(4).scalar_part() == WLaurentRational.w(4) * Fraction(-1)
    # S_q(line): coefficient of q^1 includes w^{2m} e^x; isolate with Theta'_q-free kind
    h = witten_element_ch(OperatorKind.WittenH, (line,), (), 8, gens=gens, cap=0)
    # S_{q}(E - 1): q^1 coefficient is w^{2m} - 1
    assert h.coefficient(8).scalar_part() == WLaurentRational.w(4) - 1


def test_witten_element_sq_with_root():
    gens = (("x", 2),)
    x = GradedElement.generator(gens, 4, "x")
    line = RootBundle(1, 1, (x,))
    # plain S_q (no normalization): use a kind with no Lambda factor at
    # integer grid: WittenH without -dim is not exposed, so check via
    # DThetaQ at integer key 8 where only S contributes once Lambda's
    # half-grid keys are excluded
    el = witten_element_ch(OperatorKind.DThetaQ, (line,), (), 8, gens=gens, cap=4)
    # q^1 coefficient: S gives w^2 e^x; Lambda_{-q^{1/2}} twice gives
    # Lambda^2 = 0 for a single line, so only the S term plus the
    # cross term (-q^{1/2} E)^2 from squaring the same line vanishes
    from eqgenus.genera import _line
    expect = _line(2, x)
    assert el.coefficient(8) == expect


# -- cross-path oracle -----------------------------------------------------------

ALL_KINDS = list(OperatorKind)


def test_oracle_isolated_point_all_kinds():
    comp = point(1, v=((1, 2),))
    for kind in ALL_KINDS:
        rep = oracle_expand_vs_closed(kind, comp, 16)
        assert rep.equal, (kind, rep.first_mismatch)


def test_oracle_normalized_kinds():
    comp = point(1, -2, v=((1, 1), (2, 1)))
    for kind in (OperatorKind.DeltaVThetaPrime, OperatorKind.DVThetaQ,
                 OperatorKind.DVThetaMinusQ, OperatorKind.DVStarDifference,
                 OperatorKind.WittenH):
        rep = oracle_expand_vs_closed(kind, comp, 12, normalized=True)
        assert rep.equal, (kind, rep.first_mismatch)


def test_oracle_tangent_only_component():
    gens = (("y", 2),)
    y = GradedElement.generator(gens, 2, "y")
    comp = Comp(gens, 2, RootBundle(0, 1, (y,)), ())
    for kind in (OperatorKind.DsThetaPrime, OperatorKind.DThetaQ, OperatorKind.WittenH):
        rep = oracle_expand_vs_closed(kind, comp, 8)
        assert rep.equal, (kind, rep.first_mismatch)


def test_oracle_with_base_classes():
    gens = (("b", 2),)
    b = GradedElement.generator(gens, 4, "b")
    comp = Comp(gens, 4, None, (RootBundle(1, 1, (b,)),),
                (RootBundle(1, 1, (b,)),))
    for kind in ALL_KINDS:
        rep = oracle_expand_vs_closed(kind, comp, 12)
        assert rep.equal, (kind, rep.first_mismatch)


def test_oracle_random_components():
    rng = random.Random(101)
    for _ in range(6):
        weights = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randrange(1, 3))]
        comp = point(*weights, v=((rng.choice([-1, 1, 2]), 1),))
        kind = rng.choice(ALL_KINDS)
        rep = oracle_expand_vs_closed(kind, comp, 16)
        assert rep.equal, (kind, weights, rep.first_mismatch)


def test_oracle_half_integer_weights():
    # s4-style half-integer data: total stray stays integral
    comp = point(Fraction(1, 2), Fraction(1, 2))
    for kind in (OperatorKind.DThetaQ, OperatorKind.DsThetaPrime, OperatorKind.WittenH):
        rep = oracle_expand_vs_closed(kind, comp, 12)
        assert rep.equal, (kind, rep.first_mismatch)


def _drop_theta1_half_power(numerators):
    toks, _, c_power, q8_power = numerators[ThetaKind.Theta1]
    return toks, 0, c_power, q8_power


# engine-table mutations and the families they break.  The sphere's
# d-theta-q character is 0 with theta2 or theta3 on TX, so only the
# closed/expansion oracle sees the third.
BROKEN_ENGINE_TABLES = [
    ("_FAMILIES", OperatorKind.DVStarDifference, lambda _: (None, ThetaKind.Theta1),
     (OperatorKind.DVStarDifference,), True),
    ("_NUMERATORS", ThetaKind.Theta1, _drop_theta1_half_power,
     (OperatorKind.DsThetaPrime, OperatorKind.DeltaVThetaPrime), True),
    ("_FAMILIES", OperatorKind.DThetaQ, lambda _: (ThetaKind.Theta3, None),
     (OperatorKind.DThetaQ,), False),
]


@pytest.mark.parametrize("table,key,broken,kinds,on_sphere", BROKEN_ENGINE_TABLES,
                         ids=["families-dv-star", "theta1-half-power", "families-d-theta-q"])
def test_oracles_flag_a_broken_engine_table(monkeypatch, table, key, broken, kinds, on_sphere):
    # negative control: the expansion side of both oracles is independent of
    # the engine's tables, so breaking an engine entry must show
    from eqgenus import genera
    from eqgenus.catalog import builtin, oracle_check_s2
    comp = builtin("s2-family-base").data.components[0]
    entries = getattr(genera, table)
    monkeypatch.setitem(entries, key, broken(entries))
    for kind in kinds:
        assert not oracle_expand_vs_closed(kind, comp, 12).equal, kind
        if on_sphere:
            assert not oracle_check_s2(kind, 12).equal, kind


# -- numeric jets ---------------------------------------------------------------

# every recipe: the 8 raw kinds and the 5 dim-normalized variants
RECIPES = [(kind, False) for kind in OperatorKind] + \
    [(kind, True) for kind in OperatorKind if kind.supports_normalized]


def recipe_id(recipe):
    kind, normalized = recipe
    return kind.value + ("-normalized" if normalized else "")


# the paper's families: (numerator over each TX line, numerator over each
# V line), both over theta on each TX line; "d0" is theta'(0)
PAPER_FAMILIES = {
    OperatorKind.DsThetaPrime: (ThetaKind.Theta1, None),
    OperatorKind.DThetaQ: (ThetaKind.Theta2, None),
    OperatorKind.DThetaMinusQ: (ThetaKind.Theta3, None),
    OperatorKind.DeltaVThetaPrime: (None, ThetaKind.Theta1),
    OperatorKind.DVThetaQ: (None, ThetaKind.Theta2),
    OperatorKind.DVThetaMinusQ: (None, ThetaKind.Theta3),
    OperatorKind.DVStarDifference: (None, ThetaKind.Theta),
    OperatorKind.WittenH: ("d0", None),
}


def papers_theta_quotient(kind, normalized, comp, n8=40):
    """prod_TX num_TX(m) prod_V theta_v(n) / prod_TX theta(m) over a point
    component, from ``theta_formal``; normalized: theta'(0) on TX and each
    V factor over its value at 0."""
    from eqgenus.reference import theta_taylor
    d0 = theta_taylor(ThetaKind.Theta, 0, 1, n8).entries[1]

    def S(num, m):
        return d0 if num == "d0" else theta_formal(num, m, n8).series

    tx_num, v_num = PAPER_FAMILIES[kind]
    if normalized:
        tx_num = "d0"
    expect = QSeries({0: WLaurentRational.const(1)}, n8)
    for nb in comp.normals:
        m = nb.weight
        if tx_num is not None:
            expect = series_mul(expect, S(tx_num, m))
        expect = series_mul(expect, series_invert(S(ThetaKind.Theta, m)))
    if v_num is not None:
        for vb in comp.vbundles:
            expect = series_mul(expect, S(v_num, vb.weight))
            if normalized:
                null = "d0" if v_num is ThetaKind.Theta else v_num
                expect = series_mul(expect, series_invert(S(null, 0)))
    return expect


# a point with two TX lines and two V lines
QUOTIENT_POINT = point(1, 2, v=((1, 1), (2, 1)))


@pytest.mark.parametrize("kind,normalized", RECIPES, ids=map(recipe_id, RECIPES))
def test_recipe_is_the_papers_theta_quotient(kind, normalized):
    expect = papers_theta_quotient(kind, normalized, QUOTIENT_POINT)
    got = as_wrat(scalar_series(theta_quotient_integrand(kind, QUOTIENT_POINT, 24, normalized)))
    assert expect.n8 >= 24
    assert got.first_mismatch(expect) is None


def test_constants_ledger_of_every_supported_variant():
    # 2^l only for the normalized delta-v-theta-prime (theta1(0) = 2 c q^{1/8}
    # per V line) and i^{2l} only where theta is the V numerator
    for kind, normalized in RECIPES:
        if kind is OperatorKind.DeltaVThetaPrime and normalized:
            expect = ConstantsLedger(two=3)
        elif kind is OperatorKind.DVStarDifference:
            expect = ConstantsLedger(i=6)
        else:
            expect = ConstantsLedger()
        assert constants_ledger(kind, normalized, 3) == expect, (kind, normalized)
    assert len(RECIPES) == 13


@pytest.mark.parametrize("c_power,q8_power", [(0, 0), (1, 1)],
                         ids=["theta2-c-power-0", "theta2-q8-power-1"])
def test_theta_quotient_flags_a_broken_prefactor_power(monkeypatch, c_power, q8_power):
    # negative control: the index bridge undoes the c(q) and q^{1/8} powers
    # it reads from _NUMERATORS, so both oracles are blind to a wrong power
    # there; the product of theta_formal series is not
    from eqgenus import genera
    toks, stray, _, _ = genera._NUMERATORS[ThetaKind.Theta2]
    monkeypatch.setitem(genera._NUMERATORS, ThetaKind.Theta2,
                        (toks, stray, c_power, q8_power))
    for kind in (OperatorKind.DThetaQ, OperatorKind.DVThetaQ):
        expect = papers_theta_quotient(kind, False, QUOTIENT_POINT)
        got = as_wrat(scalar_series(theta_quotient_integrand(kind, QUOTIENT_POINT, 24)))
        assert got.first_mismatch(expect) is not None, kind


@pytest.mark.parametrize("kind,normalized", RECIPES, ids=map(recipe_id, RECIPES))
def test_numeric_matches_formal_point(kind, normalized):
    from eqgenus.reference import evaluate_formal
    comp = point(1, 2, v=((1, 2),))
    t, tau = 0.287, 0.1 + 1.05j
    ser = as_wrat(scalar_series(theta_quotient_integrand(kind, comp, 80, normalized)))
    ref = evaluate_formal(ser, t, tau)
    jet = numeric_integrand(kind, comp, t, tau, 1e-10, normalized)
    assert abs(jet.scalar_part() - ref) < 1e-8


@pytest.mark.parametrize("kind,normalized", RECIPES, ids=map(recipe_id, RECIPES))
def test_numeric_matches_formal_graded(kind, normalized):
    from eqgenus.reference import evaluate_formal
    gens = (("b", 2),)
    b = GradedElement.generator(gens, 2, "b")
    comp = Comp(gens, 2, None, (RootBundle(1, 1, (b,)),), (RootBundle(1, 1, (b,)),))
    t, tau = 0.41, -0.2 + 0.9j
    ser = theta_quotient_integrand(kind, comp, 80, normalized)
    coeff = ser.map_coefficients(lambda g: g.terms.get((1,), WLaurentRational.zero()))
    coeff = as_wrat(coeff)
    ref = evaluate_formal(coeff, t, tau)
    jet = numeric_integrand(kind, comp, t, tau, 1e-10, normalized)
    assert abs(jet.terms.get((1,), 0j) - ref) < 1e-7


def test_numeric_zero_weight_normal_rejected():
    # the numeric path runs the same component checks as the formal one
    comp = point(1)
    bad = Comp((), 0, None, comp.normals + (RootBundle(0, 1, (GradedElement.zero((), 0),)),))
    with pytest.raises(ZeroWeightNormalBundle):
        numeric_integrand(OperatorKind.DThetaQ, bad, 0.287, 0.1 + 1.05j, 1e-10)


def test_numeric_off_grid_stray_rejected():
    # one half-integer weight leaves the strays off the integer w-grid; both
    # paths reject such spin-inconsistent data
    comp = point(Fraction(1, 2))
    with pytest.raises(OffGridExponent):
        theta_quotient_integrand(OperatorKind.DThetaQ, comp, 16)
    with pytest.raises(OffGridExponent):
        numeric_integrand(OperatorKind.DThetaQ, comp, 0.3, 1j, 1e-10)


def fiber_and_base() -> Comp:
    """A weight-0 tangent root on a fiber generator, which runs the sigma
    unit and the numerators' tangent factors, with a base generator and V
    data."""
    gens = (("x", 2), ("b", 2))
    x = GradedElement.generator(gens, 4, "x")
    b = GradedElement.generator(gens, 4, "b")
    return Comp(gens, 4, RootBundle(0, 1, (x,)),
                (RootBundle(1, 1, (x + b,)), RootBundle(-2, 1, (b,))),
                (RootBundle(1, 1, (x * Fraction(1, 2) - b,)),))


def test_numeric_matches_formal_fiber_and_base():
    _assert_numeric_matches_formal(fiber_and_base())


def _assert_numeric_matches_formal(comp):
    # every monomial of the jet must match the formal integrand
    from eqgenus.reference import evaluate_formal
    t, tau = 0.37, 0.15 + 1.6j
    for kind, normalized in RECIPES:
        ser = theta_quotient_integrand(kind, comp, 24, normalized)
        jet = numeric_integrand(kind, comp, t, tau, 1e-12, normalized)
        monos = {m for g in ser.c.values() for m in g.terms} | set(jet.terms)
        assert len(monos) > 1
        for m in monos:
            coeff = as_wrat(ser.map_coefficients(
                lambda g: g.terms.get(m, WLaurentRational.zero())))
            ref = evaluate_formal(coeff, t, tau)
            got = jet.terms.get(m, 0j)
            assert abs(got - ref) / (1 + abs(ref)) < 1e-9, (kind, normalized, m)


def repeated_lines() -> Comp:
    """fiber_and_base with its normal line on x + b twice (a rank-2 bundle
    of two equal roots, not one object) and a rank-2 V bundle of equal
    roots: the interpreter builds each repeated factor once and multiplies
    it in once per line."""
    gens = (("x", 2), ("b", 2))
    x = GradedElement.generator(gens, 4, "x")
    b = GradedElement.generator(gens, 4, "b")
    v = x * Fraction(1, 2) - b
    return Comp(gens, 4, RootBundle(0, 1, (x,)),
                (RootBundle(1, 2, (x + b, x + b)), RootBundle(-2, 1, (b,))),
                (RootBundle(1, 2, (v, v)),))


def test_oracle_repeated_lines_all_kinds():
    comp = repeated_lines()
    for kind in ALL_KINDS:
        rep = oracle_expand_vs_closed(kind, comp, 16)
        assert rep.equal, (kind, rep.first_mismatch)


def test_numeric_matches_formal_repeated_lines():
    _assert_numeric_matches_formal(repeated_lines())


def test_numeric_function_does_its_point_independent_work_once(monkeypatch):
    # once F is built, a sample runs only the point's work: no lines,
    # recipe, prefactors, unit, exp or sigma jets; and one theta pair product
    # per distinct line of each component (s2-v-double-tangent: a normal
    # line and two equal V lines at each of its two points)
    from eqgenus import catalog
    from eqgenus.numeric import degree_component_function
    data = catalog.builtin("s2-v-double-tangent").data
    F = degree_component_function(data, OperatorKind.DVThetaQ, 0, normalized=True, eps=1e-12)
    calls = []
    for name in ("numeric_lines", "_recipe", "_prefactors", "_one", "graded_exp", "_sigma"):
        original = getattr(numeric, name)

        def spy(*args, name=name, original=original, **kw):
            calls.append(name)
            return original(*args, **kw)

        for mod in (numeric, genera):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    pairs = []
    pair_product = _JetBackend.pair_product

    def pair_spy(self, *args):
        pairs.append(args)
        return pair_product(self, *args)

    monkeypatch.setattr(_JetBackend, "pair_product", pair_spy)
    rng = random.Random(23)
    for _ in range(20):
        before = len(pairs)
        F(complex(rng.uniform(0.05, 0.95), rng.uniform(-0.2, 0.2)),
          complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5)))
        assert len(pairs) - before == 4
    assert calls == []


def test_numeric_integrand_within_l1_relative_eps():
    # the exact integrand at n8 = 48, evaluated monomial by monomial, is the
    # reference: with Im tau >= 1.1 its last q-step (keys 41..48) moves it
    # by less than eps / 100 in l1, and the left-out tail is |q| times smaller
    from eqgenus.reference import evaluate_formal
    comp = fiber_and_base()
    rng = random.Random(61)
    points = [(complex(rng.uniform(0.05, 0.95), rng.uniform(-0.2, 0.2)),
               complex(rng.uniform(-0.5, 0.5), rng.uniform(1.1, 1.6))) for _ in range(3)]
    zero = WLaurentRational.zero()
    for kind, normalized in RECIPES:
        ser = theta_quotient_integrand(kind, comp, 48, normalized)
        monos = {m for g in ser.c.values() for m in g.terms}
        coeffs = [as_wrat(ser.map_coefficients(lambda g, m=m: g.terms.get(m, zero)))
                  for m in monos]
        for t, tau in points:
            ref = dict(zip(monos, (evaluate_formal(c, t, tau) for c in coeffs)))
            norm = sum(map(abs, ref.values()))
            last = sum(abs(ref[m] - evaluate_formal(c.truncate(40), t, tau))
                       for m, c in zip(monos, coeffs))
            assert last < 1e-14 * norm
            for eps in (1e-9, 1e-12):
                jet = numeric_integrand(kind, comp, t, tau, eps, normalized)
                err = sum(abs(jet.terms.get(m, 0j) - ref.get(m, 0j))
                          for m in monos | set(jet.terms))
                assert err <= eps * norm, (kind, normalized, t, tau, eps, err / norm / eps)


def test_numeric_integrand_never_mixes_fraction_and_complex(monkeypatch):
    # a Fraction constant or unit reaching a complex jet would make every
    # product run in Python, about 50 times slower than with a float
    mixed = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def spy(a, b, name=name, op=getattr(Fraction, name)):
            if isinstance(b, complex):
                mixed.append(name)
            return op(a, b)
        monkeypatch.setattr(Fraction, name, spy)
    comp = fiber_and_base()
    for kind, normalized in RECIPES:
        jet = numeric_integrand(kind, comp, 0.37, 0.15 + 1.6j, 1e-12, normalized)
        assert len(jet.terms) > 1
        assert not mixed, (kind, normalized, sorted(set(mixed)))


def test_numeric_pair_product_matches_the_jet_product(monkeypatch):
    # the scalar loop and log-Taylor series against the direct product of the
    # two _line jets over the same keys, at seeded points 1e-7 to 1e-3 from a
    # zero of one factor 1 + c_k e^{+-x}, and at the lattice shift t + 2 tau,
    # where some |c_k| >> 1; cap 4 (J = 2) and cap 8 (J = 4)
    cap8 = (("x", 2), ("b", 2))
    x8, b8 = (GradedElement.generator(cap8, 8, n) for n in ("x", "b"))
    comps = [(fiber_and_base(), None), (Comp(cap8, 8, None, ()), (x8 + b8, x8 * 2 - b8 * 3))]
    kept = []
    product_keys = numeric.product_keys

    def spy(*args):
        kept.append(product_keys(*args))
        return kept[-1]

    monkeypatch.setattr(numeric, "product_keys", spy)
    rng = random.Random(73)
    for comp, roots in comps:
        if roots is None:
            roots = [x for b in (comp.tangent,) + comp.normals + comp.vbundles for x in b.roots]
        for _ in range(130):
            kind = rng.choice(list(ThetaKind))
            first, sign = PAIR_GRID[kind]
            tw, side = rng.choice((1, -1, 2, -3)), rng.choice((1, -1))
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.4))
            k = first + 8 * rng.choice((0, 1))
            # 1 + sign w^{side tw} q^{k/8} = 0 where side tw t + k tau / 4 is
            # 1 (sign 1) or 0 (sign -1) modulo 2
            zero = ((1 if sign > 0 else 0) + 2 * rng.randint(-1, 1) - k * tau / 4) / (side * tw)
            near = zero + cmath.rect(10 ** rng.uniform(-7, -3), rng.uniform(0, 2 * math.pi))
            for t in (near, near + 2 * tau):
                be = _JetBackend(NumericPlan(OperatorKind.DThetaQ, False, comp), t, tau, 1e-12)
                x = numeric._Root(rng.choice(roots))
                got = be.pair_product(first, sign, tw, x)
                ref = be.one
                for key in kept[-1]:
                    for c in (_line(tw, x, be, float) * sign, _line(-tw, -x, be, float) * sign):
                        ref = ref * (be.one + c * be.qpow(key))
                err = sum(abs(a - b) for a, b in zip(got.c, ref.c)) / sum(map(abs, ref.c))
                assert err <= 1e-13, (kind, tw, x, t, tau, err)


def test_numeric_scalar_products_take_only_scalars(monkeypatch):
    # the theta pair products over the lines run in pair_product, so the
    # backend's product serves the c(q) powers and the null values alone
    seen = []
    product = _JetBackend.product

    def spy(self, first, c, m):
        seen.append((c, m))
        return product(self, first, c, m)

    monkeypatch.setattr(_JetBackend, "product", spy)
    for kind, normalized in RECIPES:
        numeric_integrand(kind, fiber_and_base(), 0.37, 0.15 + 1.6j, 1e-12, normalized)
    assert seen
    assert all(isinstance(v, (int, float, complex)) for args in seen for v in args)


def test_exact_scalar_product_is_c_cubed():
    # theta'(0) = c(q)^3 q^{1/8} from the formal expansion of theta; by
    # Jacobi's identity c(q)^3 = 1 - 3q + 5q^3 - 7q^6 + ...
    n8 = 64
    cubed = genera._SeriesBackend(point(1), n8).product(8, -1, 3)
    got = genera._expand([1] + [0] * (n8 // 4), cubed)
    want = theta_taylor(ThetaKind.Theta, 0, 1, n8 + 1).entries[1].shift_q8(-1)
    assert want.n8 == n8 and len(want.c) > 3
    assert {4 * i: v.scalar_part() for i, v in enumerate(got) if v} == {
        k: v.constant() for k, v in want.c.items()}


# -- the exact path's factor steps ----------------------------------------------

STEP_GENS = (("x", 2), ("b", 2))


def _graded(rng, unit=False):
    """A random element of Z[w^+-1][x, b] truncated at degree 4; with
    ``unit`` its scalar part is +-1."""
    terms = {m: WLaurentPoly({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(2)})
             for m in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))}
    if unit:
        terms[(0, 0)] = rng.choice((1, -1))
    return GradedElement(STEP_GENS, 4, terms)


def _factors(rng, n8):
    """Random per-key factors: trinomials with a graded middle coefficient
    and binomials 1 +- q^{k/8}, on keys up to past n8; the first is a
    trinomial whose q^{k/4} term lies within n8."""
    out = [(4 * rng.randint(1, n8 // 8), _graded(rng), True)]
    for _ in range(rng.randint(0, 3)):
        k = 4 * rng.randint(1, n8 // 4 + 2)
        out.append((k, _graded(rng), True) if rng.random() < 0.6
                   else (k, rng.choice((1, -1)), False))
    return tuple(out)


def _dense(rng, n8):
    return [_graded(rng) if rng.random() < 0.8 else 0 for _ in range(n8 // 4 + 1)]


def _series(c, n8):
    return QSeries({4 * i: v for i, v in enumerate(c)}, n8)


@pytest.mark.parametrize("seed", range(6))
def test_a_factor_step_and_its_division_cancel_exactly(seed):
    rng = random.Random(seed)
    n8 = rng.randint(8, 40)
    c = _dense(rng, n8)
    f = genera._Factored(_graded(rng, unit=True), _factors(rng, n8), _factors(rng, n8))
    got = genera._expand(genera._expand(list(c), f), f.inverse())
    assert _series(got, n8) == _series(c, n8)


@pytest.mark.parametrize("seed", range(6))
def test_factor_steps_equal_the_series_product_and_inverse(seed):
    # the reference: each factor as a truncated series, multiplied in by
    # series_mul and divided out by series_invert; the orders are not all
    # multiples of the key step, and the input may start above q^0
    rng = random.Random(100 + seed)
    n8 = rng.randint(8, 52)
    c = _dense(rng, n8)
    c[0] = 0 if seed % 2 else c[0]
    head = _graded(rng, unit=True)
    muls, divs = _factors(rng, n8), _factors(rng, n8)
    want = _series(c, n8)
    want = series_mul(want, QSeries({0: head}, n8))
    for factors, step in ((muls, lambda f: f), (divs, series_invert)):
        for k, a, square in factors:
            want = series_mul(want, step(QSeries({0: 1, k: a, 2 * k: int(square)}, n8)))
    got = genera._expand(list(c), genera._Factored(head, muls, divs))
    assert _series(got, n8) == want


def test_numeric_scalar_product_is_the_product_of_the_copies(monkeypatch):
    # (prod (1 + c q^{k/8}))^m against m copies of each factor multiplied
    # one by one to convergence: within the product's budget, on the keys
    # product_keys gives for the m copies
    kept = []
    product_keys = numeric.product_keys

    def spy(*args):
        kept.append(product_keys(*args))
        return kept[-1]

    monkeypatch.setattr(numeric, "product_keys", spy)
    for tau in (0.2 + 0.35j, -0.4 + 0.8j, 1.3j, 0.1 + 3j):
        be = _JetBackend(NumericPlan(OperatorKind.DThetaQ, False, point(1)), 0.3, tau, 1e-6)
        for first, c in ((8, -1),) + tuple(PAIR_GRID.values()):
            for m in (0, 1, 2, 6):
                got = be.product(first, c, m)
                dev = sum(abs(c) for _ in range(m)) * abs(be.qpow(first))
                assert kept[-1] == product_keys(first, dev, be.log_q, be.budget)
                ref = 1 + 0j
                for k in range(first, first + 8 * 400, 8):
                    for _ in range(m):
                        ref *= 1 + c * be.qpow(k)
                assert abs(got - ref) <= (be.budget + 1e-14) * abs(got), (tau, first, c, m)
                assert m or got == 1


def test_exact_coefficients_are_rational_functions():
    # every nonzero exact coefficient leaves the engine as a WLaurentRational,
    # also on a component with no normal lines; localization relies on it
    gens = (("y", 2), ("b", 2))
    y = GradedElement.generator(gens, 4, "y")
    b = GradedElement.generator(gens, 4, "b")
    tangent_only = Comp(gens, 4, RootBundle(0, 1, (y + b,)), ())
    fb = fiber_and_base()
    fb_without_v = replace(fb, vbundles=())
    for comp in (tangent_only, fb, fb_without_v):
        for kind, normalized in RECIPES:
            if kind.needs_v and not comp.vbundles:
                continue
            ser = theta_quotient_integrand(kind, comp, 16, normalized)
            coeffs = [v for g in ser.c.values() for v in g.terms.values()]
            assert coeffs, (kind, normalized)
            assert all(isinstance(v, WLaurentRational) for v in coeffs), (kind, normalized)
            if comp is fb_without_v:
                # a family with no V numerator reads none of the V lines
                with_v = theta_quotient_integrand(kind, fb, 16, normalized)
                assert ser == with_v, (kind, normalized)
    # the same through the component sum; fiber_and_base's V data fails the
    # anomaly checks of validate, so it is dropped there
    for comp, fiber, k in ((tangent_only, "y", 1), (fb, "x", 3)):
        fixed = FixedComponent("c", 1, comp.tangent, comp.normals, (),
                               IntegrationTable((fiber,), 1, {(1,): 1}), 1, comp.gens, 4)
        data = ActionData(k, (fixed,), (("b", 2),), 2)
        for kind in NON_V_KINDS + (OperatorKind.WittenH,):
            res = equivariant_character(data, kind, 16)
            coeffs = [v for g in res.series.c.values() for v in g.terms.values()]
            assert coeffs, (fiber, kind)
            assert all(isinstance(v, WLaurentRational) for v in coeffs), (fiber, kind)
