"""Characteristic-class integrands for the elliptic operator families.

Each family is a quotient of Jacobi theta functions (``_FAMILIES``): a
numerator over the lines of TX (theta1, theta2, theta3 or theta'(0)) or
over the lines of V (theta, theta1, theta2 or theta3), divided by theta
over every line of TX.  The dim-normalized variants put theta'(0) on TX
and divide each V factor by its value at 0 (theta'(0) for theta).  One
table (``_NUMERATORS``) gives each numerator's one list of per-line
factors and its powers of E^{1/2}, c(q) and q^{1/8}.  The list serves
every line of TX: on a weight-0 tangent line the factors and the E^{1/2}
power give theta's tangent factor, and the stray is the numerator's
alone, since theta's tangent denominator is the sigma unit.  Everything
else is derived from the two tables: the q^{1/8} and c(q) prefactors of
the index-character bridge and its ledger of powers of 2 and i too.

Two independent realizations of each integrand are provided:

* ``theta_quotient_integrand`` -- the closed product form built from the
  factorizations of the four theta functions.  With the Chern roots
  normalized so 2 pi i is absorbed into the degree-2 generators, every
  constant of 2 pi and i cancels identically and the coefficients are
  honest rational functions of w.  One interpreter builds it over one
  carrier, ``GradedElement``, through two backends that differ in their
  coefficient ring and in how they form a line's theta pair product:
  the exact q-series backend serves this function and the numeric
  backend serves ``numeric_integrand``, the same product at a point
  (t, tau), on complex jets.  The backends supply the w-power (a
  Laurent monomial or the complex number w^{2m}), the scalar field of
  the constants 1/k! (Fraction or float), the lift into the product
  ring (q-series or the jet itself), the scalar q-products (the c(q)
  powers and the null values) and the pair products.  The exact backend
  multiplies a pair product's factors up to the series order.  The
  numeric one builds prod (1 + c_k e^x)(1 + c'_k e^{-x}) from complex
  scalars, as prod (1 + c_k) times the exp of a short log-Taylor series
  in the root x, and multiplies a factor with |1 + c| < 1/2 in as a jet;
  its keys come from ``theta.product_keys``, which certifies a relative
  error, for the lead (|w^{tw}| + |w^{-tw}|) sum_{j <= J} ||x||_1^j / j!.

  The theta denominator is a property of the fixed component, not of
  the family: ``_denominator`` builds it, ``_numerator`` each family's
  numerator and scalar series (the power of c(q) and the null values).
  It factors as L * U.  L is the q-free product of the factors
  (1 - w^{-2m} e^{-x}) over the normal lines; U (the sigma units and
  the pair products) is a unit series: its q^0 coefficient has scalar
  part 1.  So 1/U, the numerator and every product run over Laurent
  polynomials in w, with no gcd.  So does L^{-1} = adj(L) / s^{J+1}, s
  the scalar part of L (``_normal_scalar``) and J = cap // 2.  On the
  exact path ``component_integrands`` is one fixed component's whole
  share of a command: it reads the component's lines, builds U, 1/U (to
  the deepest order any requested family needs), L and adj(L) once, and
  yields each family's series times adj(L) over den = s^{J+1},
  unreduced.  Every factor is a function of the lines' E and of w-powers
  that change sign with the weights, so negating every normal and V
  weight maps the series and den, unreduced, by w -> w^{-1};
  ``localization`` builds one member of each class of equal and
  conjugate components.  It
  reduces once per coefficient of the component sum and
  ``theta_quotient_integrand``, the one-family case, once per
  coefficient of one component.  Canonical forms of reduced
  quotients are unique, so every path gives the term-by-term reduced
  result exactly.  The numeric path divides by U times the scalar series
  for each family.

* the exterior/symmetric-power expansion, assembled term by term in q.
  One table (``_EXPANSIONS``) gives each family's Lambda factor and spinor
  twist; it reads no table of the theta quotients.  ``witten_element_ch``
  builds the element, and ``_twisted_element`` multiplies in the twist's
  unit and leaves its half-character to the caller, which folds all of
  its strays at once.

``oracle_expand_vs_closed`` checks the two paths against each other
exactly (times A-hat, on the index-character side of
``bridge_to_index_character``); ``catalog.oracle_check_s2`` maps the same
twisted element through Borel-Weil on the rotation sphere and checks the
localization engine against it.  The rational constants between the two
sides (``constants_ledger``) are derived from ``_NUMERATORS``.

Conventions: a complex line of rotation weight m with root x contributes
the equivariant element E = w^{2m} e^x, w = e^{pi i t}.  Tangent bundles
enter through their complexification (pairs E, E^{-1}); "dim" in the
normalized elements means the real rank.  Half-unit factors E^{1/2} are
tracked separately ("strays") and must recombine into integer w-powers,
which is exactly the spin consistency of the data.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import (
    GradedElement,
    OffGridExponent,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
    graded_exp,
    graded_invert,
    graded_series,
    series_invert,
    series_mul,
)
from .theta import (PAIR_GRID, ConstantsLedger, NonconvergentDomain, ThetaKind,
                    product_keys, series_product, unit_product)


class ZeroWeightNormalBundle(Exception):
    """A normal summand with rotation weight zero contradicts fixedness."""


class OperatorKind(Enum):
    DsThetaPrime = "ds-theta-prime"
    DThetaQ = "d-theta-q"
    DThetaMinusQ = "d-theta-minus-q"
    DeltaVThetaPrime = "delta-v-theta-prime"
    DVThetaQ = "dv-theta-q"
    DVThetaMinusQ = "dv-theta-minus-q"
    DVStarDifference = "dv-star-difference"
    WittenH = "witten-h"

    @property
    def needs_v(self) -> bool:
        return _FAMILIES[self][1] is not None

    @property
    def supports_normalized(self) -> bool:
        """Whether normalizing (theta'(0) on TX) keeps the family: TX
        carries no theta of its lines."""
        return _FAMILIES[self][0] in (None, _THETA_PRIME_0)


class RootBundle(namedtuple("RootBundle", "weight rank roots")):
    """An equivariant complex summand: rotation weight, rank, Chern roots."""

    __slots__ = ()

    def __new__(cls, weight, rank: int, roots: tuple[GradedElement, ...]):
        weight = Fraction(weight)
        if len(roots) != rank:
            raise ValueError("rank %d but %d roots" % (rank, len(roots)))
        if 2 * weight != int(2 * weight):
            raise ValueError("weights must be integers or half-integers")
        return super().__new__(cls, weight, rank, roots)

    @property
    def tw(self) -> int:
        """Twice the weight; the w-exponent of the character z^weight."""
        return int(2 * self.weight)


# ---------------------------------------------------------------------------
# small exact builders


def _one(gens, cap) -> GradedElement:
    return GradedElement.scalar(gens, cap, 1)


def _line(tw: int, x: GradedElement, carrier=WLaurentRational, field=Fraction) -> GradedElement:
    """E = w^{tw} e^x as a graded element, the w-power built by
    ``carrier.w`` and the constants of exp in ``field``."""
    e = graded_exp(x, field)
    return e * carrier.w(tw) if tw else e


def _sigma(y: GradedElement, field=Fraction) -> GradedElement:
    """sinh(y/2)/(y/2) truncated: the unit dividing theta's order-1 zero."""
    return graded_series(y * y, (field(1) / (4 ** j * factorial(2 * j + 1))
                                 for j in range(1, y.cap // 4 + 1)))


# ---------------------------------------------------------------------------
# the families as theta quotients


# theta'(0) = c(q)^3 q^{1/8}, in the units of ``theta`` (D_v = (2 pi i)^{-1} d/dv)
_THETA_PRIME_0 = "theta'(0)"

# Each numerator: (tokens on every line, power of E^{1/2}, powers of c(q)
# and q^{1/8}).  A ThetaKind token is that theta's pair product
# (``theta.PAIR_GRID``) and "lin+-" the factor 1 +- E^{-1}.  The same
# tokens serve a weight-0 tangent line: with the E^{1/2} power they give
# theta1's e^{y/2} + e^{-y/2}.  Theta sits on TX only in the denominator,
# where y / theta(y) = 1 / (sigma pairs) carries no E^{1/2}.
_NUMERATORS = {
    ThetaKind.Theta: (("lin-", ThetaKind.Theta), 1, 1, 1),
    ThetaKind.Theta1: (("lin+", ThetaKind.Theta1), 1, 1, 1),
    ThetaKind.Theta2: ((ThetaKind.Theta2,), 0, 1, 0),
    ThetaKind.Theta3: ((ThetaKind.Theta3,), 0, 1, 0),
    _THETA_PRIME_0: ((), 0, 3, 1),
    None: ((), 0, 0, 0),
}

# Each family: (numerator over every line of TX, numerator over every line
# of V), both divided by theta over every line of TX.  The dim-normalized
# variant puts theta'(0) on TX and divides each V factor by its value at 0.
_FAMILIES = {
    OperatorKind.DsThetaPrime: (ThetaKind.Theta1, None),
    OperatorKind.DThetaQ: (ThetaKind.Theta2, None),
    OperatorKind.DThetaMinusQ: (ThetaKind.Theta3, None),
    OperatorKind.DeltaVThetaPrime: (None, ThetaKind.Theta1),
    OperatorKind.DVThetaQ: (None, ThetaKind.Theta2),
    OperatorKind.DVThetaMinusQ: (None, ThetaKind.Theta3),
    OperatorKind.DVStarDifference: (None, ThetaKind.Theta),
    OperatorKind.WittenH: (_THETA_PRIME_0, None),
}

NON_V_KINDS = tuple(k for k in OperatorKind if isinstance(_FAMILIES[k][0], ThetaKind))
V_KINDS = tuple(k for k in OperatorKind if k.needs_v)


def _iter_lines(bundles) -> list[tuple[int, GradedElement]]:
    out = []
    for b in bundles:
        tw = b.tw
        out.extend((tw, r) for r in b.roots)
    return out


def _half_character(stray_w: Fraction, stray_cls: GradedElement, w, field) -> GradedElement:
    """w^{stray_w} e^{stray_cls/2}, the w-power built by ``w`` and the
    constants of exp in ``field``.  The strays must recombine into an
    integer w-power, which is the spin consistency of the data."""
    if stray_w.denominator != 1:
        raise OffGridExponent(
            "total half-character w^%s is off the integer grid; "
            "the weight data is not spin-consistent" % stray_w)
    mult = graded_exp(stray_cls * (field(1) / 2), field)
    return mult * w(int(stray_w)) if stray_w else mult


def _fold_strays(series: QSeries, stray_w: Fraction, stray_cls: GradedElement) -> QSeries:
    """series times w^{stray_w} e^{stray_cls/2} over rational functions."""
    if stray_w == 0 and not stray_cls:
        return series
    return series.scale(_half_character(stray_w, stray_cls, WLaurentRational.w, Fraction))


def _token(be, tok, tw: int, x: GradedElement):
    """One per-line numerator factor in the backend's product ring; x is
    the line's root in the backend's coefficient ring."""
    if isinstance(tok, ThetaKind):
        return be.pair_product(*PAIR_GRID[tok], tw, x)
    if tok == "lin+":
        return be.lift(be.one + _line(-tw, -x, be, be.field))
    if tok == "lin-":
        return be.lift(_lin_minus(be, tw, x))
    raise ValueError(tok)


def _lin_minus(be, tw: int, x: GradedElement):
    """The q-free factor 1 - E^{-1} of a line, unlifted."""
    return be.one - _line(-tw, -x, be, be.field)


def _numerators(kind: OperatorKind, normalized: bool):
    """(TX numerator, V numerator, V's value at 0) of (kind, normalized);
    theta vanishes at 0, and its value there is theta'(0)."""
    tx_num, v_num = _FAMILIES[kind]
    if not normalized:
        return tx_num, v_num, None
    if not kind.supports_normalized:
        raise ValueError("%s has no dim-normalized variant" % kind.value)
    return _THETA_PRIME_0, v_num, _THETA_PRIME_0 if v_num is ThetaKind.Theta else v_num


def _prefactors(kind: OperatorKind, normalized: bool, n_tx: int,
                n_v: int) -> tuple[int, int, int, int]:
    """(q8_shift, c_power, two, i) of (kind, normalized) over n_tx TX and n_v
    V lines: the quotient carries q^{q8_shift/8} c(q)^{c_power}
    (``_NUMERATORS``), and it differs from the index character by
    2^two i^i.  Each theta1(0) in the V nulls is 2 c(q) q^{1/8}, whose 2 is
    its "lin+" token at E = 1; theta's sine E^{1/2} - E^{-1/2} on a V line
    is minus the unit of the spinor twist Delta+ - Delta-, i^2 per line."""
    tx_num, v_num, null_num = _numerators(kind, normalized)
    (tx_c, tx_q8), (v_c, v_q8), (null_c, null_q8), (den_c, den_q8) = (
        _NUMERATORS[num][2:] for num in (tx_num, v_num, null_num, ThetaKind.Theta))
    return ((tx_q8 - den_q8) * n_tx + (v_q8 - null_q8) * n_v,
            (tx_c - den_c) * n_tx + (v_c - null_c) * n_v,
            n_v * _NUMERATORS[null_num][0].count("lin+"),
            2 * n_v if v_num is ThetaKind.Theta else 0)


def _lines(component) -> tuple[list, list, list]:
    """The (tw, root) lines of the component's tangent, normal and V parts,
    after the checks of fixedness.  A family with no V numerator reads none
    of the V lines: its V tokens, stray and null values are empty."""
    tangent = component.tangent
    if tangent is not None and tangent.rank and tangent.weight != 0:
        raise ValueError("tangent part must have weight 0")
    for nb in component.normals:
        if nb.weight == 0:
            raise ZeroWeightNormalBundle(
                "normal summand with weight 0 in component %r" % getattr(component, "name", "?"))
    return (_iter_lines([tangent] if tangent is not None else []),
            _iter_lines(component.normals), _iter_lines(component.vbundles))


def _q8_shift(kind: OperatorKind, normalized: bool, lines) -> int:
    """The q^{1/8} power the quotient of (kind, normalized) carries over lines."""
    t_lines, n_lines, v_lines = lines
    return _prefactors(kind, normalized, len(t_lines) + len(n_lines), len(v_lines))[0]


def _denominator(be, t_lines, n_lines):
    """(U, L) over the TX lines of one fixed component, in the backend's
    rings: theta over every TX line is L * U times powers of c(q) q^{1/8}.

    On a weighted line theta = c(q) q^{1/8} E^{1/2} (1 - E^{-1}) pairs, and
    on the tangent y / theta(y) = 1 / (c(q) q^{1/8} sigma(y) pairs).  L, the
    product of 1 - E^{-1} over the normal lines, is an unlifted coefficient;
    U, the sigma units and the pair products, is a unit series.  Neither
    depends on the family."""
    den = be.lift(be.one)
    lin = be.one
    for tw, x in t_lines:
        den = den * be.lift(_sigma(x, be.field)) * _token(be, ThetaKind.Theta, tw, x)
    for tw, x in n_lines:
        lin = lin * _lin_minus(be, tw, x)
        den = den * _token(be, ThetaKind.Theta, tw, x)
    return den, lin


def _numerator(kind: OperatorKind, normalized: bool, component, be, lines):
    """The family's part of the theta quotient of (kind, normalized) over one
    fixed component, as (num, scalar_den), with ``lines`` (from ``_lines``)
    in the backend's coefficient ring: the integrand is
    num / (scalar_den * U * L) times q^{q8_shift/8}.

    A tangent line's stray is the numerator's alone, since theta's tangent
    denominator is the sigma unit.  num takes the strays' half-character
    and 1/2 per theta1(0); scalar_den (None when trivial) is the product of
    c(q)^{-c_power} and the null values, in the scalar ring.
    """
    if kind.needs_v and not component.vbundles:
        raise ValueError("%s requires V-bundle data" % kind.value)
    tx_num, v_num, null_num = _numerators(kind, normalized)
    t_lines, n_lines, v_lines = lines
    _, c_power, halves, _ = _prefactors(kind, normalized, len(t_lines) + len(n_lines),
                                        len(v_lines))
    tx_toks, tx_stray = _NUMERATORS[tx_num][:2]
    v_toks, v_stray = _NUMERATORS[v_num][:2]
    den_stray = _NUMERATORS[ThetaKind.Theta][1]
    null_toks = _NUMERATORS[null_num][0]

    num = be.lift(be.one)
    stray_w = Fraction(0)
    stray_cls = GradedElement.zero(component.gens, component.cap)
    for part, toks, stray in ((t_lines, tx_toks, tx_stray),
                              (n_lines, tx_toks, tx_stray - den_stray),
                              (v_lines, v_toks, v_stray)):
        for tw, x in part:
            for tok in toks:
                num = num * _token(be, tok, tw, x)
            if stray:
                stray_w += Fraction(stray * tw, 2)
                stray_cls = stray_cls + x * stray
    if stray_w or stray_cls or halves:
        mult = _half_character(stray_w, stray_cls, be.w, be.field)
        if halves:
            mult = mult * (be.field(1) / 2 ** halves)
        num = num * be.lift(mult)

    # c(q)^|c_power| and the null values' pair products stay in the scalar
    # ring
    scalar_den = None
    if c_power:
        cq = be.product(be.scalar_one, 8, (-1,) * abs(c_power))
        if c_power > 0:
            num = num * be.lift_scalar(cq)
        else:
            scalar_den = cq
    for tok in null_toks:
        if isinstance(tok, ThetaKind):
            first, sign = PAIR_GRID[tok]
            null = be.product(be.scalar_one, first, (sign, sign) * len(v_lines))
            scalar_den = null if scalar_den is None else scalar_den * null
    return num, scalar_den


class _SeriesBackend:
    """Exact coefficients: q-series truncated at n8 over graded elements
    with Laurent-polynomial coefficients; the constants are Fractions and
    scalar products are Fraction series."""

    field = Fraction
    scalar_one = Fraction(1)
    w = staticmethod(WLaurentPoly.w)

    def __init__(self, component, n8: int):
        self.n8 = n8
        self.one = _one(component.gens, component.cap)

    def lift(self, g: GradedElement) -> QSeries:
        return QSeries({0: g}, self.n8)

    def lift_scalar(self, s: QSeries) -> QSeries:
        return s.scale(self.one)

    def product(self, one, first: int, coeffs) -> QSeries:
        return series_product(QSeries({0: one}, self.n8), one, first, coeffs)

    def pair_product(self, first: int, sign: int, tw: int, x: GradedElement) -> QSeries:
        """prod (1 + sign E q^{k/8})(1 + sign E^{-1} q^{k/8}) over the keys
        k = first, first + 8, ..., E = w^{tw} e^x."""
        return self.product(self.one, first, (_line(tw, x, self, self.field) * sign,
                                              _line(-tw, -x, self, self.field) * sign))


def _normal_scalar(component) -> WLaurentPoly:
    """s, the scalar part of L: the product of 1 - w^{-2m} over the normal
    lines."""
    s = WLaurentPoly.one()
    for tw, _ in _iter_lines(component.normals):
        s = s * (1 - WLaurentPoly.w(-tw))
    return s


def component_integrands(component, kinds, n8: int, normalized: bool = False
                         ) -> tuple[WLaurentPoly, Iterator[tuple[OperatorKind, QSeries]]]:
    """The bracketed localization integrand of each of ``kinds`` on one fixed
    component, as (den, iterator of (kind, series)): Laurent-polynomial
    coefficients over den = s^{J+1}, exact on the requested grid and not
    reduced.  The removable singularity of the tangent factor is resolved
    by dividing out theta's explicit order-1 unit; all powers of 2 pi and i
    cancel by construction.

    The component's lines, U and L are built once and U is inverted once,
    at the deepest working order max(n8 - q8_shift, 0) that any of
    ``kinds`` needs for a result to n8.  With n = L - s (nilpotent,
    n^{J+1} = 0 for J = cap // 2), L^{-1} = adj(L) / s^{J+1} where
    adj(L) = sum_j (-n)^j s^{J-j}.  Each family then builds its numerator
    and scalar series at its own working order, one family at a time, and
    multiplies them by 1/U and each output coefficient by adj(L).
    """
    lines = _lines(component)
    # work high enough that each shifted result reaches n8, and never below
    # q^0, where the unit series U would be empty
    shifts = {kind: _q8_shift(kind, normalized, lines) for kind in kinds}
    u, lin = _denominator(_SeriesBackend(component, max(n8 - min(shifts.values()), 0)),
                          *lines[:2])
    s, J = _normal_scalar(component), component.cap // 2
    neg_n = -(lin - s)
    adj = term = lin.one_like()
    for _ in range(J):
        term = term * neg_n
        adj = adj * s + term
    inv_u = series_invert(u)

    def integrands():
        for kind, shift in shifts.items():
            num, scalar_den = _numerator(kind, normalized, component,
                                         _SeriesBackend(component, max(n8 - shift, 0)), lines)
            if scalar_den is not None:
                num = series_mul(num, series_invert(scalar_den))
            out = series_mul(num, inv_u).shift_q8(shift).truncate(n8)
            yield kind, out.map_coefficients(lambda g: g * adj)

    return s ** (J + 1), integrands()


def component_denominator(component) -> WLaurentPoly:
    """The den of ``component_integrands`` from the weights alone."""
    return _normal_scalar(component) ** (component.cap // 2 + 1)


def theta_quotient_integrand(kind: OperatorKind, component, n8: int,
                             normalized: bool = False) -> QSeries:
    """``component_integrands`` of ``kind`` alone, with each coefficient
    reduced over den: a q-series whose nonzero coefficients are all
    ``WLaurentRational``."""
    den, integrands = component_integrands(component, (kind,), n8, normalized)
    [(_, series)] = integrands
    return series.map_coefficients(lambda g: g.map_coefficients(
        lambda v: WLaurentRational(_poly(v), den)))


def _poly(v) -> WLaurentPoly:
    """An exact coefficient as a Laurent polynomial."""
    return v if isinstance(v, WLaurentPoly) else WLaurentPoly.const(v)


# ---------------------------------------------------------------------------
# the exterior/symmetric expansion path


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


def chern_character(bundle: RootBundle, gens=None, cap=None) -> GradedElement:
    """Equivariant Chern character: sum over roots of w^{2m} e^{x_j}."""
    if bundle.roots:
        gens, cap = bundle.roots[0].gens, bundle.roots[0].cap
    if gens is None:
        raise ValueError("empty bundle needs explicit gens/cap")
    out = GradedElement.zero(gens, cap)
    for x in bundle.roots:
        out = out + _line(bundle.tw, x)
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


def constants_ledger(kind: OperatorKind, normalized: bool, l: int) -> ConstantsLedger:
    """The rational constants between the localization function and the
    index character over l V lines, derived from ``_NUMERATORS`` by
    ``_prefactors``: 2^l where theta1(0) normalizes V and i^{2l} where
    theta is the V numerator."""
    _, _, two, i = _prefactors(kind, normalized, 0, l)
    return ConstantsLedger(i=i, two=two)


def bridge_to_index_character(kind: OperatorKind, normalized: bool,
                              k: int, l: int, series: QSeries) -> QSeries:
    """Map the localization function to the Chern character of the index
    bundle.  ``_prefactors`` derives both steps from ``_NUMERATORS`` for k
    TX and l V lines: undo q^{q8_shift/8} c(q)^{c_power} (nothing when
    theta'(0) sits on TX) and multiply by 2^two i^i, the constants of
    ``constants_ledger``."""
    out = series
    q8_shift, c_power, two, i = _prefactors(kind, normalized, k, l)
    if _numerators(kind, normalized)[0] is not _THETA_PRIME_0:
        out = out.shift_q8(-q8_shift)
        if c_power:
            cpow = series_product(QSeries({0: Fraction(1)}, max(out.n8, 0)), Fraction(1), 8,
                                  (-1,) * abs(c_power))
            out = series_mul(out, cpow if c_power < 0 else series_invert(cpow))
    scale = Fraction(2) ** two * (-1) ** (i // 2)
    return out if scale == 1 else out.scale(scale)


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
# the numeric backend of the interpreter


@lru_cache(maxsize=None)
def _log_derivatives(J: int) -> tuple[tuple[int, ...], ...]:
    """P_1, ..., P_J as coefficient lists over u^0, u^1, ...: P_j(u) is the
    j-th derivative of log(1 + c e^y) at y = 0, in u = c / (1 + c).  Since
    d/dy log(1 + c e^y) = u(y) and du/dy = u (1 - u), P_1 = u and
    P_{j+1} = u (1 - u) P_j'."""
    polys = [(0, 1)]
    while len(polys) < J:
        p = polys[-1]
        nxt = [0] * (len(p) + 1)
        for m in range(1, len(p)):
            nxt[m] += m * p[m]
            nxt[m + 1] -= m * p[m]
        polys.append(tuple(nxt))
    return tuple(polys[:J])


class _JetBackend:
    """Numeric coefficients: jets at (t, tau), graded elements with complex
    coefficients (with no generators a jet product is one complex
    multiply); the constants are floats and scalar products are complex
    numbers.

    A theta pair product over a line is built from complex scalars
    (``pair_product``): one loop over its keys and a short log-Taylor
    series in the line's root, not a jet multiply per key.  ``product``
    serves the scalar products alone (the c(q) powers and the null
    values).  Each q-product keeps the keys of ``theta.product_keys`` for
    a bound on the l1 jet norms of its factors' deviations from 1 at the
    first key (l1 is submultiplicative on jets), within a relative budget
    of eps / (8 (lines + 1)).  The interpreter makes at most 2 (lines + 1)
    products, so their left-out factors move the integrand by an
    l1-relative amount below eps.
    """

    field = float
    scalar_one = 1 + 0j

    def __init__(self, component, t: complex, tau: complex, eps: float, lines: int):
        self.w1 = cmath.exp(1j * math.pi * t)
        self.qh = cmath.exp(1j * math.pi * tau)
        self.budget = eps / (8.0 * (lines + 1))
        self.one = _one(component.gens, component.cap)

    def w(self, tw: int) -> complex:
        """w^{tw} at w = e^{pi i t}."""
        return self.w1 ** tw

    def root(self, x: GradedElement) -> GradedElement:
        return x.map_coefficients(complex)

    def lift(self, g):
        return g

    lift_scalar = lift

    def qpow(self, k: int) -> complex:
        """q^{k/8} for a key on the half-integer grid (k divisible by 4)."""
        return self.qh ** (k // 4)

    def product(self, one, first: int, coeffs):
        """prod (1 + c q^{k/8}) over the keys k and the complex scalars c."""
        dev = sum(map(abs, coeffs)) * abs(self.qpow(first))
        return unit_product(one, product_keys(first, dev, abs(self.qh) ** 2, self.budget), coeffs,
                            lambda k, c: one + c * self.qpow(k))

    def pair_product(self, first: int, sign: int, tw: int, x: GradedElement) -> GradedElement:
        """prod (1 + c_k e^x)(1 + c'_k e^{-x}) over the keys k, with
        c_k = sign w^{tw} q^{k/8} and c'_k = sign w^{-tw} q^{k/8}: the pair
        product over the line E = w^{tw} e^x.

        A factor 1 + c e^{+-x} is (1 + c) exp(sum_j P_j(u) (+-x)^j / j!),
        u = c / (1 + c) and P_j from ``_log_derivatives``; the sum is exact
        at J = cap // 2, since x^{J+1} = 0.  So the product is a complex
        scalar times the exp of one series in x, whose coefficients come
        from the power sums of the u; the exp's own coefficients are
        scalars too, so one ``graded_series`` builds it.  A factor with
        |1 + c| < 1/2 is a jet multiply instead: near a zero of 1 + c the
        polynomials in u lose the precision that the direct product keeps,
        and everywhere else |u| <= 3.  The keys are certified for the lead
        (|w^{tw}| + |w^{-tw}|) sum_{j <= J} ||x||_1^j / j!, which bounds
        the l1 norms of both coefficient jets w^{+-tw} e^{+-x}.
        """
        J = x.cap // 2 if x else 0
        cp, cm = sign * self.w(tw), sign * self.w(-tw)
        norm = sum(map(abs, x.c))
        lead = (abs(cp) + abs(cm)) * sum(norm ** j / factorial(j) for j in range(J + 1))
        q, qk = self.qh * self.qh, self.qpow(first)
        scalar, direct = 1 + 0j, []
        # sums[side][m]: the sum of u^m over the factors in e^x (side 0), e^{-x} (side 1)
        sums = ([0j] * (J + 1), [0j] * (J + 1))
        for _ in product_keys(first, lead * abs(qk), abs(q), self.budget):
            for c, side in ((cp * qk, 0), (cm * qk, 1)):
                d = 1 + c
                if J and abs(d) < 0.5:
                    direct.append(self.one + graded_exp(-x if side else x, float) * c)
                    continue
                scalar *= d
                u = p = c / d
                s = sums[side]
                for m in range(1, J + 1):
                    s[m] += p
                    p *= u
            qk *= q
        # the log series sum_j a_j x^j and its exp sum_n b_n x^n, by
        # n b_n = sum_{j <= n} j a_j b_{n-j}
        plus, minus = sums
        a = [0j] + [sum(v * (plus[m] + (-1) ** j * minus[m]) for m, v in enumerate(poly) if v)
                    / factorial(j) for j, poly in enumerate(_log_derivatives(J), 1)]
        b = [1 + 0j]
        for n in range(1, J + 1):
            b.append(sum(j * a[j] * b[n - j] for j in range(1, n + 1)) / n)
        out = graded_series(x, b[1:]) * scalar
        for f in direct:
            out = out * f
        return out


def numeric_integrand(kind: OperatorKind, component, t: complex, tau: complex,
                      eps: float, normalized: bool = False) -> GradedElement:
    """Evaluate the theta-quotient integrand at numeric (t, tau) as a jet:
    a graded element with complex coefficients over the component's
    generators, within l1-relative error eps.  Same interpreter as the
    formal path.  Raises NonconvergentDomain where the value or its
    bound is not finite."""
    try:
        t_lines, n_lines, v_lines = _lines(component)
        # the budget counts only the lines the family reads
        lines = (t_lines, n_lines, v_lines if kind.needs_v else [])
        be = _JetBackend(component, t, tau, eps, sum(map(len, lines)))
        lines = tuple([(tw, be.root(x)) for tw, x in part] for part in lines)
        den, lin = _denominator(be, *lines[:2])
        num, scalar_den = _numerator(kind, normalized, component, be, lines)
        if scalar_den is not None:
            den = den * be.lift_scalar(scalar_den)
        out = num * graded_invert(den * lin)
        q8_shift = _q8_shift(kind, normalized, lines)
        if q8_shift:
            out = out * cmath.exp(2j * math.pi * tau * q8_shift / 8)
    except ArithmeticError as e:
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau)) from e
    if not all(map(cmath.isfinite, out.c)):
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau))
    return out
