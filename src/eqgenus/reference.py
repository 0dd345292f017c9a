"""Independent checks: realizations of the theta functions, the integrands
and the localization sum that the exact engine does not use.

Tests, the benchmark's gates and the catalog's Borel-Weil oracle import
this module, and of the commands only ``theta --formal`` does, when it
runs.  It holds

* the formal theta expansions: exact q-expansions of the four theta
  functions of ``theta`` on the (1/8)Z grid, with Laurent-polynomial
  coefficients in w = e^{pi i t}, from their infinite products
  (``theta_formal``); their derivative stacks in v (``theta_taylor``),
  normalized as D_v = (2 pi i)^{-1} d/dv so that every derivative series
  stays rational; and their value at a point (``evaluate_formal``).  The
  power of i from the sine is kept out of the coefficients in a ledger.
* the exterior/symmetric-power expansion of each operator family,
  assembled term by term in q from its own table (``_EXPANSIONS``) by
  ``witten_element_ch`` and ``_twisted_element``; it reads no table of
  the theta quotients of ``genera``.  ``oracle_expand_vs_closed`` checks
  it exactly against ``genera.theta_quotient_integrand`` (times A-hat, on
  the index-character side of ``genera.bridge_to_index_character``), and
  ``catalog.oracle_check_s2`` maps the same twisted element through
  Borel-Weil on the rotation sphere.
* the localization sum taken apart: one component's pushed-forward
  integrand (``component_contribution``), the reduced denominators of the
  contributions against those of their sum (``pole_cancellation_check``)
  and the degree-2p part of a result (``degree_component``).
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .algebra import (DegreeOutOfRange, GradedElement, OffGridExponent, QSeries, WLaurentPoly,
                      WLaurentRational, fiber_integrate, graded_invert, series_invert, series_mul)
from .genera import (OperatorKind, RootBundle, _half_character, _iter_lines, _line, _one, _sigma,
                     bridge_to_index_character, theta_quotient_integrand)
from .kinds import PAIR_GRID, ConstantsLedger, ThetaKind
from .localization import ActionData, FixedComponent, GenusResult


# ---------------------------------------------------------------------------
# formal theta expansions


@lru_cache(maxsize=None)
def _char_series(kind: ThetaKind, n8: int) -> tuple[int, QSeries]:
    """Expansion of theta_kind(v, tau) over the half-character s = e^{pi i v}.

    Returns (i_power, series) where series has WLaurentPoly coefficients in
    the symbol s and theta = i^{i_power} * series.  All four kinds carry the
    c(q) factor; the sin/cos kinds carry q^{1/8} and the (s -+ s^{-1}) unit.
    """
    one, (first, sgn) = WLaurentPoly.one(), PAIR_GRID[kind]
    grids = ((8, (-one,)), (first, (WLaurentPoly.w(2, sgn), WLaurentPoly.w(-2, sgn))))
    acc = math.prod((QSeries({0: one, k: c}, n8) for start, cs in grids
                     for k in range(start, n8 + 1, 8) for c in cs), start=QSeries({0: one}, n8))
    if first == 4:
        return 0, acc
    unit = WLaurentPoly({1: 1, -1: sgn})
    return (-1 if kind is ThetaKind.Theta else 0), acc.scale(unit).shift_q8(1).truncate(n8)


def _subst_char(poly: WLaurentPoly, m: Fraction, k: int) -> WLaurentRational:
    """Map s^j -> j^k w^{j m} / 2^k; exponents must land on the integer grid."""
    out = WLaurentPoly.zero()
    for j, v in poly.c.items():
        e = j * m
        if e.denominator != 1:
            raise OffGridExponent(
                "weight %s sends the character s^%d off the w-grid" % (m, j))
        coeff = v * j ** k
        if coeff:
            out = out + WLaurentPoly.w(int(e), coeff)
    return WLaurentRational(out, WLaurentPoly.const(2 ** k))


class ThetaSeries(namedtuple("ThetaSeries", "kind m series i_power vanishing_order")):
    """A formal theta expansion: i^{i_power} times a rational q-w series;
    ``vanishing_order`` is the order of the zero at v = 0 carried by the
    series."""

    __slots__ = ()


def theta_formal(kind: ThetaKind, m, n8: int) -> ThetaSeries:
    """q-expansion of theta_kind(m t, tau) with e^{2 pi i t} -> w^2.

    The rational prefactors (c(q), q^{1/8}, the constant 2 from sin/cos)
    are folded into the series; the residual power of i is reported in
    ``i_power`` since it is not representable in rational coefficients.
    """
    if n8 < 0:
        raise ValueError("n8 must be >= 0")
    m = Fraction(m)
    i_pow, char = _char_series(kind, n8)
    series = char.map_coefficients(lambda p: _subst_char(p, m, 0))
    vanishing = 1 if (kind is ThetaKind.Theta and m == 0) else 0
    return ThetaSeries(kind, m, series, i_pow, vanishing)


class ThetaTaylorStack(namedtuple("ThetaTaylorStack", "kind m entries ledger vanishes_at_zero")):
    """Normalized derivative stack D_v^k theta_kind(v, tau) at v = m t.

    Entry k has rational coefficients; the true k-th derivative in v is
    (2 pi i)^k times entry k times the ledger constant.  The q^{1/8} and
    c(q) prefactors are exactly representable and live inside the series.
    """

    __slots__ = ()


def theta_taylor(kind: ThetaKind, m, k_max: int, n8: int) -> ThetaTaylorStack:
    """Stack of normalized v-derivatives of theta_kind at v = m t."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m = Fraction(m)
    i_pow, char = _char_series(kind, n8)
    entries = tuple(
        char.map_coefficients(lambda p, k=k: _subst_char(p, m, k))
        for k in range(k_max + 1)
    )
    vanishes = kind is ThetaKind.Theta and m == 0
    return ThetaTaylorStack(kind, m, entries, ConstantsLedger(i=i_pow), vanishes)


def evaluate_formal(series: QSeries, t: complex, tau: complex) -> complex:
    """Evaluate a scalar q-w series at w = e^{pi i t}, q = e^{2 pi i tau}."""
    w = cmath.exp(1j * math.pi * t)
    q8 = cmath.exp(2j * math.pi * tau / 8)
    total = 0j
    for e, v in series.c.items():
        cv = v.evaluate(w) if isinstance(v, WLaurentRational) else complex(v)
        total += cv * q8 ** e
    return total



# ---------------------------------------------------------------------------
# the exterior/symmetric expansion path


def _fold_strays(series: QSeries, stray_w: Fraction, stray_cls: GradedElement) -> QSeries:
    """series times w^{stray_w} e^{stray_cls/2} over rational functions."""
    if stray_w == 0 and not stray_cls:
        return series
    return series.scale(_half_character(stray_w, stray_cls, WLaurentRational.w, Fraction))


def a_hat(tangent: RootBundle, gens=None, cap=None) -> GradedElement:
    """A-hat class of the tangent part: prod (y/2)/sinh(y/2) over roots."""
    if tangent.weight != 0:
        raise ValueError("a_hat applies to the weight-0 tangent part")
    if tangent.roots:
        gens, cap = tangent.roots[0].gens, tangent.roots[0].cap
    if gens is None:
        raise ValueError("empty bundle needs explicit gens/cap")
    out = _one(gens, cap)
    for y in tangent.roots:
        out = out * graded_invert(_sigma(y))
    return out


# Each family's expansion element: (Lambda factor, spinor twist).  The
# Lambda factor (sign, grid, over) is the product over n >= 1 of
# Lambda_{sign q^{n - grid/8}} over the lines of "TX" or "V"; grid 0 is the
# integer q-grid, 4 the half-integer one.  The spinor twist (sign, over) is
# the character of Delta (sign 1) or Delta+ - Delta- (sign -1) of the
# complex bundle TX or V.  Every element carries S_{q^n}(TX) for n >= 1;
# Witten's, with no Lambda factor, is always "- dim" normalized.  The
# expansion path reads this table and no table of the theta quotients.
_EXPANSIONS = {
    OperatorKind.DsThetaPrime: ((1, 0, "TX"), (1, "TX")),
    OperatorKind.DThetaQ: ((-1, 4, "TX"), None),
    OperatorKind.DThetaMinusQ: ((1, 4, "TX"), None),
    OperatorKind.DeltaVThetaPrime: ((1, 0, "V"), (1, "V")),
    OperatorKind.DVThetaQ: ((-1, 4, "V"), None),
    OperatorKind.DVThetaMinusQ: ((1, 4, "V"), None),
    OperatorKind.DVStarDifference: ((-1, 0, "V"), (-1, "V")),
    OperatorKind.WittenH: (None, None),
}


def witten_element_ch(kind: OperatorKind, tx, vbundles, n8: int, normalized: bool = False,
                      gens=None, cap=None) -> QSeries:
    """Chern character of ``kind``'s expansion element, level by level: its
    Lambda factor (``_EXPANSIONS``) over tx or vbundles, and S_{q^n}(tx).

    Uses ch Lambda_t(E) = prod (1 + t E_j) and ch S_t(E) = prod (1 - t E_j)^{-1}
    with one factor per listed root; callers model a real bundle by passing
    the bundle together with its conjugate.  The "- dim" normalization
    divides by one root- and weight-free factor per listed line.
    """
    lam = _EXPANSIONS[kind][0]
    over_v = lam is not None and lam[2] == "V"
    if normalized and lam is not None and not over_v:
        raise ValueError("%s has no dim-normalized variant" % kind.value)
    for b in tx:
        if b.roots:
            gens, cap = b.roots[0].gens, b.roots[0].cap
    if gens is None:
        raise ValueError("need gens/cap for empty bundle data")
    tx_lines = _iter_lines(tx)
    one = _one(gens, cap)
    acc = QSeries({0: one}, n8)
    scalar_den = QSeries({0: Fraction(1)}, n8)
    normalize_dims = normalized or lam is None

    if lam is not None:
        sign, grid, _ = lam
        lam_lines = _iter_lines(vbundles) if over_v else tx_lines
        for key in range(8 - grid, n8 + 1, 8):
            f = QSeries({0: Fraction(1), key: Fraction(sign)}, n8)
            for tw, x in lam_lines:
                acc = series_mul(acc, QSeries({0: one, key: _line(tw, x) * Fraction(sign)}, n8))
                if normalize_dims and over_v:
                    scalar_den = series_mul(scalar_den, f)

    # symmetric powers of the tangent element
    for key in range(8, n8 + 1, 8):
        drop = QSeries({0: Fraction(1), key: Fraction(-1)}, n8)
        for tw, x in tx_lines:
            E = _line(tw, x)
            geom = QSeries({key * j: E ** j for j in range(n8 // key + 1)}, n8)
            acc = series_mul(acc, geom)
            if normalize_dims:
                acc = series_mul(acc, drop.scale(one))

    if scalar_den.c != {0: Fraction(1)}:
        acc = series_mul(acc, series_invert(scalar_den).scale(one))
    return acc


def complexified(bundles) -> list[RootBundle]:
    """Each complex summand together with its conjugate (weight and roots
    negated): the lines of the underlying real bundle tensored with C."""
    out = []
    for b in bundles:
        out.append(b)
        out.append(RootBundle(-b.weight, b.rank, tuple(-r for r in b.roots)))
    return out


def _stray_unit(bundles, unit_of, gens, cap):
    """prod over the lines of E^{-1/2} unit_of(tw, x) in stray/unit form:
    (stray_w, stray_cls, unit), the stray being w^{stray_w} e^{stray_cls/2}."""
    stray_w = Fraction(0)
    stray_cls = GradedElement.zero(gens, cap)
    unit = _one(gens, cap)
    for tw, x in _iter_lines(bundles):
        stray_w -= Fraction(tw, 2)
        stray_cls = stray_cls - x
        unit = unit * unit_of(tw, x)
    return stray_w, stray_cls, unit


def _twisted_element(kind: OperatorKind, tx, vbundles, n8: int, normalized: bool, gens, cap):
    """The expansion element of ``kind`` on the complex bundles tx and V
    times its spinor twist's unit, as (series, stray_w, stray_cls): the
    twist's half-character is left for the caller to fold with its own."""
    element = witten_element_ch(kind, complexified(tx), complexified(vbundles), n8,
                                normalized, gens, cap)
    twist = _EXPANSIONS[kind][1]
    if twist is None:
        return element, Fraction(0), GradedElement.zero(gens, cap)
    sign, over = twist
    one = _one(gens, cap)
    stray_w, stray_cls, unit = _stray_unit(tx if over == "TX" else vbundles,
                                           lambda tw, x: one + _line(tw, x) * sign, gens, cap)
    return element.scale(unit), stray_w, stray_cls


class OracleReport(namedtuple("OracleReport",
                              "kind normalized equal first_mismatch engine oracle")):
    """One oracle's verdict: the engine's series against the oracle's."""

    __slots__ = ()


def oracle_expand_vs_closed(kind: OperatorKind, component, n8_small: int,
                            normalized: bool = False) -> OracleReport:
    """Exact equality check of the two integrand realizations on one
    component, compared on the index-character side."""
    if n8_small > 32:
        raise ValueError("oracle path is only run at small orders (n8 <= 32)")
    gens, cap = component.gens, component.cap
    tangent = component.tangent
    tx = ([tangent] if tangent is not None else []) + list(component.normals)
    k = sum(b.rank for b in tx)
    l = sum(b.rank for b in component.vbundles)

    closed = theta_quotient_integrand(kind, component, n8_small, normalized)
    closed = bridge_to_index_character(kind, normalized, k, l, closed)

    expanded, sw, scls = _twisted_element(kind, tx, component.vbundles, n8_small,
                                          normalized, gens, cap)
    # A-hat(TX) restricted: the tangent's A-hat, and prod over the normal
    # lines of 1/(E^{1/2} - E^{-1/2})
    one = _one(gens, cap)
    nsw, nscls, unit = _stray_unit(component.normals,
                                   lambda tw, x: graded_invert(one - _line(-tw, -x)), gens, cap)
    if tangent is not None:
        unit = a_hat(tangent, gens, cap) * unit
    expanded = _fold_strays(expanded.scale(unit), sw + nsw, scls + nscls)
    mismatch = closed.first_mismatch(expanded)
    return OracleReport(kind, normalized, mismatch is None, mismatch, closed, expanded)


# ---------------------------------------------------------------------------
# the localization sum taken apart


def component_contribution(data: ActionData, comp: FixedComponent,
                           kind: OperatorKind, n8: int, normalized: bool = False) -> QSeries:
    """Sign times the fiber-integrated integrand of one component, as a
    series of graded elements over the shared base generators."""
    integ = theta_quotient_integrand(kind, comp, n8, normalized)
    pushed = integ.map_coefficients(lambda g: fiber_integrate(g, comp.table))
    return -pushed if comp.sign < 0 else pushed


# per_q maps each q-key to (max denominator degree before the sum, after)
PoleReport = namedtuple("PoleReport", "per_q cancelled summed")


def _den_degree_of(coeff) -> int:
    if isinstance(coeff, GradedElement):
        return max((_den_degree_of(v) for v in coeff.terms.values()), default=0)
    if isinstance(coeff, WLaurentRational):
        return coeff.den_degree()
    return 0


def pole_cancellation_check(component_series: list[QSeries]) -> PoleReport:
    """Reduced denominators of individual contributions versus their sum.

    Individual fixed components have poles at roots of unity; for rigid
    kinds the summed coefficients must reduce to denominator 1."""
    if not component_series:
        raise ValueError("no component series given")
    total = sum(component_series[1:], component_series[0])
    per_q: dict[int, tuple[int, int]] = {}
    for key in sorted(set(total.c).union(*(s.c for s in component_series))):
        if key <= total.n8:
            per_q[key] = (max(_den_degree_of(s.c.get(key, 0)) for s in component_series),
                          _den_degree_of(total.c.get(key, 0)))
    return PoleReport(per_q, all(after == 0 for _, after in per_q.values()), total)


def degree_component(result: GenusResult, p2: int) -> dict[str, QSeries]:
    """The degree-2p part, one scalar q-series per base monomial."""
    if p2 < 0 or p2 % 2 or p2 > result.base_cap:
        raise DegreeOutOfRange("degree %d outside [0, %d] or odd" % (p2, result.base_cap))
    degrees = tuple(d for _, d in result.base_gens)
    out: dict[str, QSeries] = {}
    for key, g in result.series.c.items():
        for exps, v in g.terms.items():
            if sum(e * d for e, d in zip(exps, degrees)) != p2:
                continue
            ser = out.setdefault(result.monomial_name(exps), QSeries({}, result.series.n8))
            ser.c[key] = v
    return out
