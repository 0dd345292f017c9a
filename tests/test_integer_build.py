"""The exact integrands are built over the ints, on roots scaled by N.

``genera.component_integrands`` runs on the roots under the ring map that
multiplies a generator of degree 2d by N^d (``genera.root_scale``), and
its consumers divide the degree-2d part by N^d, and by the ledger's 2^two,
once.  These cases cover what N must clear: rational roots, sigma's
constants on a tangent line at cap 8, fiber integration tables with
k_alpha > 0 next to isolated points, the dim-normalized V kinds and a
conjugate pair.  Each is checked against the expansion oracle
(``oracle_expand_vs_closed``), and the localization sum against the sum
of ``theta_quotient_integrand``s pushed forward one component at a time.
A scale that changes nothing must give the same integrand, and one too
small for the data must raise, never floor.
"""
from fractions import Fraction
from math import factorial

import pytest

from eqgenus.algebra import AlgebraError, GradedElement, IntegrationTable, WLaurentRational
from eqgenus.genera import (OperatorKind, RootBundle, component_integrands,
                            constants_ledger, root_scale, theta_quotient_integrand)
from eqgenus.localization import ActionData, FixedComponent, equivariant_character
from eqgenus.reference import component_contribution, oracle_expand_vs_closed

NORMALIZED_KINDS = [k for k in OperatorKind if k.supports_normalized]


def _gens(fiber, cap):
    gens = tuple((n, 2) for n in fiber) + (("b", 2),)
    return gens, [GradedElement.generator(gens, cap, n) for n, _ in gens]


def rational_point():
    """An isolated point over a base class b, with roots b/2 and 2b/3."""
    gens, (b,) = _gens((), 4)
    half, two_thirds = b * Fraction(1, 2), b * Fraction(2, 3)
    normals = (RootBundle(1, 1, (half,)), RootBundle(-2, 1, (two_thirds,)))
    vbundles = (RootBundle(1, 1, (half,)), RootBundle(-2, 1, (two_thirds,)))
    return FixedComponent("p", 0, None, normals, vbundles, IntegrationTable((), 0), 1, gens, 4)


def fixed_line(weight=1, cap=8, sign=1):
    """A fixed projective line (tangent root 2y, integral of y = 1) with one
    normal line of root y + b/2, and V = TX + N: sigma runs to y^4 at cap 8,
    where it needs (J + 1)! = 5! in N."""
    gens, (y, b) = _gens(("y",), cap)
    tangent = RootBundle(0, 1, (y * 2,))
    normal = RootBundle(weight, 1, (y + b * Fraction(1, 2),))
    return FixedComponent("line%+d" % weight, 1, tangent, (normal,), (tangent, normal),
                          IntegrationTable(("y",), 1, {(1,): 1}), sign, gens, cap)


def line_and_point():
    """CP^2 under [z0 : z1 : t z2] over a base class b: the fixed line with
    k_alpha = 1 and the isolated point [0 : 0 : 1] with k_alpha = 0, so the
    sum lifts the point's part by N."""
    base = (("b", 2),)
    root = GradedElement.generator(base, 2, "b") * Fraction(-1, 2)
    lines = (RootBundle(-1, 2, (root, root)),)
    point = FixedComponent("pt", 0, None, lines, lines, IntegrationTable((), 0), 1, base, 2)
    return ActionData(2, (fixed_line(cap=4), point), base_gens=base, base_cap=2,
                      name="line-and-point")


def _kinds(normalized):
    return NORMALIZED_KINDS if normalized else list(OperatorKind)


def _unscaled(component, kind, n8, normalized, N):
    """``component_integrands`` at the scale N, reduced as
    ``theta_quotient_integrand`` reduces it."""
    den, [(_, series)] = component_integrands(component, (kind,), n8, normalized, N)
    l = sum(b.rank for b in component.vbundles)
    den = den * 2 ** constants_ledger(kind, normalized, l).two
    return series.map_coefficients(lambda g: g.map_by_degree(
        lambda v, d: WLaurentRational(v, den * N ** d)))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("component", [rational_point, fixed_line], ids=lambda f: f.__name__)
def test_oracle_agrees_on_the_integer_build(component, normalized):
    comp = component()
    for kind in _kinds(normalized):
        rep = oracle_expand_vs_closed(kind, comp, 8, normalized)
        assert rep.equal, (kind, normalized, rep.first_mismatch)


@pytest.mark.parametrize("component", [rational_point, fixed_line], ids=lambda f: f.__name__)
def test_a_larger_scale_gives_the_same_integrand(component):
    comp = component()
    N = root_scale((comp,))
    for kind, normalized in ([(k, False) for k in OperatorKind]
                             + [(k, True) for k in NORMALIZED_KINDS]):
        want = theta_quotient_integrand(kind, comp, 8, normalized)
        assert want.c and _unscaled(comp, kind, 8, normalized, 3 * N) == want, (kind, normalized)


def test_root_scale_clears_each_constant():
    # 2 J! on isolated points, (J + 1)! with a tangent line, times the
    # roots' denominators
    assert root_scale((rational_point(),)) == 2 * factorial(2) * 6
    assert root_scale((fixed_line(),)) == 2 * factorial(5) * 2


def test_a_scale_too_small_raises():
    # 2 J! = 48 at cap 8 clears exp but not sigma's 1 / (4^2 5!) at y^4
    comp = fixed_line()
    with pytest.raises(AlgebraError):
        list(component_integrands(comp, (OperatorKind.DThetaQ,), 8, False,
                                  2 * factorial(4) * 2)[1])
    # N = 1 leaves the roots' 1/2 and exp's 1/k!
    with pytest.raises(AlgebraError):
        list(component_integrands(rational_point(), (OperatorKind.DThetaQ,), 8, False, 1)[1])


def _assert_sum_is_the_pushed_integrands(data, normalized):
    nonzero = []
    for kind in _kinds(normalized):
        got = equivariant_character(data, kind, 8, normalized).series
        parts = [component_contribution(data, c, kind, 8, normalized) for c in data.components]
        assert all(p.c for p in parts), kind
        assert got == sum(parts[1:], parts[0]), (kind, normalized)
        nonzero += [kind] if got.c else []
    return nonzero


@pytest.mark.parametrize("normalized", [False, True])
def test_tables_next_to_points(normalized):
    data = line_and_point()
    for comp in data.components:
        for kind in _kinds(normalized):
            assert oracle_expand_vs_closed(kind, comp, 8, normalized).equal, (comp.name, kind)
    assert _assert_sum_is_the_pushed_integrands(data, normalized) == _kinds(normalized)


@pytest.mark.parametrize("normalized", [False, True])
def test_conjugate_pair_with_tables(normalized):
    line = fixed_line(cap=4)
    data = ActionData(2, (line, fixed_line(-1, cap=4, sign=-1)), base_gens=(("b", 2),),
                      base_cap=2, name="conjugate-lines")
    # every kind but dv-star-difference has a nonzero sum
    nonzero = _assert_sum_is_the_pushed_integrands(data, normalized)
    assert nonzero == [k for k in _kinds(normalized) if k is not OperatorKind.DVStarDifference]
