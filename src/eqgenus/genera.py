"""Characteristic-class integrands for the elliptic operator families.

Each family is a quotient of Jacobi theta functions (``_FAMILIES``): a
numerator over the lines of TX (theta1, theta2, theta3 or theta'(0)) or
over the lines of V (theta, theta1, theta2 or theta3), divided by theta
over every line of TX.  The dim-normalized variants put theta'(0) on TX
and divide each V factor by its value at 0 (theta'(0) for theta).  One
table (``_NUMERATORS``) gives each numerator's one list of per-line
factors, which serves every line of TX, and its powers of E^{1/2}, c(q)
and q^{1/8}.  Everything else is derived from the two tables: the
q^{1/8} and c(q) prefactors of the index-character bridge and its ledger
of powers of 2 and i too.

Two independent realizations of each integrand exist:

* ``theta_quotient_integrand`` -- the closed product form built from the
  factorizations of the four theta functions.  With the Chern roots
  normalized so 2 pi i is absorbed into the degree-2 generators, every
  constant of 2 pi and i cancels identically and the coefficients are
  honest rational functions of w.  One interpreter builds it over one
  carrier, ``GradedElement``, through two backends that differ in their
  coefficient ring and in how they form a q-product.  Every q-product is
  one family (first, a, square, m): the product over the keys
  k = first, first + 8, ... of 1 + a q^{k/8}, plus q^{k/4} for a line's
  theta pair (1 +- (E + E^{-1}) q^{k/8} + q^{k/4}, since E E^{-1} = 1),
  to a signed power m; c(q)^c_power and the null values are binomial
  families.  An operator family's part that does not depend on the point
  is its ``_recipe``, and ``_token`` builds each distinct (token, weight, root)
  factor once per integrand.  The exact backend (``_SeriesBackend``) runs
  over the ints, on roots scaled by ``root_scale``, and keeps each
  product factored (``_Factored``) into families, which ``_expand``, the
  one exact q-product (the bridge's c(q) too), multiplies or divides into
  a dense coefficient list.  The numeric one (``numeric._JetBackend``)
  serves ``numeric.numeric_integrand``, the same product at a point
  (t, tau), on complex jets.  The theta denominator is a property of the
  fixed component, not of the family (``_denominator``): L, the q-free
  product of 1 - w^{-2m} e^{-x} over the normal lines, times the unit
  series U of the sigma units and the pair products.  On the exact path
  ``component_integrands`` is one fixed component's whole share of a
  command, unreduced over den (``component_denominator``); ``reduced``
  puts a series over its denominator, once per coefficient of one
  component (``theta_quotient_integrand``) or of ``localization``'s
  component sum, as an integer num over an integer den, its rational
  constant included: no ``Fraction`` enters either step.  Canonical
  forms of reduced quotients are unique, so every path gives the
  term-by-term reduced result exactly.

* the exterior/symmetric-power expansion, assembled term by term in q
  from its own table in ``reference``, which the exact commands never
  load.

``reference.oracle_expand_vs_closed`` checks the two paths against each
other exactly (times A-hat, on the index-character side of
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

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import partial
from math import factorial, lcm, prod

from .algebra import (
    AlgebraError,
    GradedElement,
    OffGridExponent,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
    divided_series,
    graded_exp,
    graded_invert,
    graded_series,
    wpoly_divexact,
)
from .kinds import PAIR_GRID, ConstantsLedger, ThetaKind


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
    """sinh(y/2)/(y/2) = sum_j y^{2j} / (4^j (2j + 1)!) truncated, the unit
    dividing theta's order-1 zero; ``field`` as in ``graded_exp``."""
    js = range(1, y.cap // 4 + 1)
    return (divided_series(y * y, (8 * j * (2 * j + 1) for j in js)) if field is int
            else graded_series(y * y, (field(1) / (4 ** j * factorial(2 * j + 1)) for j in js)))


# ---------------------------------------------------------------------------
# the families as theta quotients


# theta'(0) = c(q)^3 q^{1/8}, in the units of ``theta`` (D_v = (2 pi i)^{-1} d/dv)
_THETA_PRIME_0 = "theta'(0)"

# Each numerator: (tokens on every line, power of E^{1/2}, powers of c(q)
# and q^{1/8}).  A ThetaKind token is that theta's pair product
# (``kinds.PAIR_GRID``) and "lin+-" the factor 1 +- E^{-1}.  The same
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
    return [(tw, r) for b in bundles for tw in (b.tw,) for r in b.roots]


def _half_character(stray_w: Fraction, stray_cls: GradedElement, w, field) -> GradedElement:
    """w^{stray_w} e^{stray_cls/2}, the w-power built by ``w`` and the
    constants of exp in ``field``; with ``field`` None, stray_cls is that
    exp already.  The strays must recombine into an integer w-power, which
    is the spin consistency of the data."""
    if stray_w.denominator != 1:
        raise OffGridExponent(
            "total half-character w^%s is off the integer grid; "
            "the weight data is not spin-consistent" % stray_w)
    # over the ints exp(s / 2) = sum_k s^k / (2^k k!)
    mult = (stray_cls if field is None
            else divided_series(stray_cls, range(2, stray_cls.cap + 1, 2)) if field is int
            else graded_exp(stray_cls * (field(1) / 2), field))
    return mult * w(int(stray_w)) if stray_w else mult


def _token(be, tok, tw: int, x: GradedElement):
    """One per-line numerator factor in the backend's product ring, built
    once per backend for each (tok, tw, root value); x is the line's root
    in the backend's coefficient ring.  "lin+-" is 1 +- E^{-1}."""
    key = tok, tw, tuple(x.c)
    f = be.tokens.get(key)
    if f is None:
        f = be.tokens[key] = (be.pair_product(*PAIR_GRID[tok], tw, x) if isinstance(tok, ThetaKind)
                              else be.lift(be.lin(1 if tok == "lin+" else -1, tw, x)))
    return f


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
        den = den * be.lift(be.sigma(x)) * _token(be, ThetaKind.Theta, tw, x)
    for tw, x in n_lines:
        lin = lin * be.lin(-1, tw, x)
        den = den * _token(be, ThetaKind.Theta, tw, x)
    return den, lin


def _recipe(kind: OperatorKind, normalized: bool, component, lines):
    """The family's part of the theta quotient of (kind, normalized) over one
    fixed component that does not depend on the point, with ``lines`` (from
    ``_lines``) in a backend's coefficient ring: (tokens, stray_w,
    stray_cls, products).  tokens are the (token, tw, root) factors of num
    in product order; stray_w and stray_cls the strays' total w-power and
    class.  A tangent line's stray is the numerator's alone, since theta's
    tangent denominator is the sigma unit.  Each (first, sign, m) of
    products is a scalar product (prod (1 + sign q^{k/8}))^m over the keys
    k = first, first + 8, ...: c(q)^c_power, and each null value (a pair
    product at E = 1) to the power -2 per V line."""
    if kind.needs_v and not component.vbundles:
        raise ValueError("%s requires V-bundle data" % kind.value)
    tx_num, v_num, null_num = _numerators(kind, normalized)
    t_lines, n_lines, v_lines = lines
    c_power = _prefactors(kind, normalized, len(t_lines) + len(n_lines), len(v_lines))[1]
    tx_toks, tx_stray = _NUMERATORS[tx_num][:2]
    v_toks, v_stray = _NUMERATORS[v_num][:2]
    den_stray = _NUMERATORS[ThetaKind.Theta][1]
    tokens, stray_w = [], Fraction(0)
    stray_cls = GradedElement.zero(component.gens, component.cap)
    for part, toks, stray in ((t_lines, tx_toks, tx_stray),
                              (n_lines, tx_toks, tx_stray - den_stray),
                              (v_lines, v_toks, v_stray)):
        for tw, x in part:
            tokens += ((tok, tw, x) for tok in toks)
            if stray:
                stray_w += Fraction(stray * tw, 2)
                stray_cls = stray_cls + x * stray
    products = [(8, -1, c_power)] if c_power else []
    products += [(*PAIR_GRID[tok], -2 * len(v_lines))
                 for tok in _NUMERATORS[null_num][0] if isinstance(tok, ThetaKind)]
    return tokens, stray_w, stray_cls, products


def _numerator(be, recipe):
    """num of a ``_recipe`` in the backend's product ring: the integrand is
    num / (U * L) times q^{q8_shift/8}.  num takes the strays'
    half-character and the recipe's products, and leaves the 1/2 per
    theta1(0) (the ledger's 2^two) to the caller."""
    tokens, stray_w, stray_cls, products = recipe
    num = be.lift(be.one)
    for tok, tw, x in tokens:
        num = num * _token(be, tok, tw, x)
    if stray_w or stray_cls:
        num = num * be.lift(be.half_character(stray_w, stray_cls))
    for first, sign, m in products:
        num = num * be.product(first, sign, m)
    return num


class _Factored(namedtuple("_Factored", "head factors")):
    """head times families (first, a, square, m): each the product over the
    keys k = first, first + 8, ... of 1 + a q^{k/8}, plus q^{k/4} where
    square, to the signed power m.  ``*`` concatenates the families; the
    inverse negates every m and inverts head."""

    __slots__ = ()

    def __mul__(self, other):
        return _Factored(self.head * other.head, self.factors + other.factors)

    def inverse(self):
        return _Factored(graded_invert(self.head),
                         tuple((first, a, square, -m) for first, a, square, m in self.factors))


def _expand(c: list, f: _Factored) -> list:
    """c, the coefficients of q^0, q^{1/2}, q^1, ... (every key is a multiple
    of 4), times f in place, to its last entry.  Each family runs over its
    keys up to the end of the list, |m| steps per key.  A multiply step
    (m > 0) runs over descending indices and reads the old coefficients, a
    divide step (m < 0) over ascending ones and reads the new; each factor
    is monic, so Z suffices."""
    c[:] = [v * f.head if v else 0 for v in c]
    for first, a, square, m in f.factors:
        for j in range(first // 4, len(c), 2):
            for _ in range(abs(m)):
                for i in range(len(c) - 1, j - 1, -1) if m > 0 else range(j, len(c)):
                    t, u = c[i - j], c[i - 2 * j] if square and i >= 2 * j else 0
                    t = (t * a + u if u else t * a) if t else u
                    if t:
                        c[i] = (c[i] + t if c[i] else t) if m > 0 else (c[i] - t if c[i] else -t)
    return c


class _SeriesBackend:
    """Exact coefficients: factored q-series (``_Factored``) over graded
    elements with Laurent-polynomial coefficients, all over the ints on
    scaled roots (``component_integrands``).  A product is one family over
    all its keys, which ``_expand`` cuts at the end of its list."""

    field = int
    w = staticmethod(WLaurentPoly.w)
    sigma = staticmethod(partial(_sigma, field=int))
    half_character = staticmethod(partial(_half_character, w=WLaurentPoly.w, field=int))

    def __init__(self, component):
        self.one = _one(component.gens, component.cap)
        self.tokens = {}

    def lift(self, g: GradedElement) -> _Factored:
        return _Factored(g, ())

    def lin(self, sign: int, tw: int, x: GradedElement) -> GradedElement:
        """1 + sign E^{-1}, E = w^{tw} e^x, unlifted."""
        e = _line(-tw, -x, self, self.field)
        return self.one + e if sign > 0 else self.one - e

    def product(self, first: int, c: int, m: int) -> _Factored:
        """(prod (1 + c q^{k/8}))^m over the keys k = first, first + 8, ..."""
        return _Factored(self.one, ((first, c, False, m),))

    def pair_product(self, first: int, sign: int, tw: int, x: GradedElement) -> _Factored:
        """prod (1 + sign E q^{k/8})(1 + sign E^{-1} q^{k/8}) over the keys
        k = first, first + 8, ..., E = w^{tw} e^x: per key the factor
        1 + sign (E + E^{-1}) q^{k/8} + q^{k/4}, since E E^{-1} = 1."""
        a = (_line(tw, x, self, self.field) + _line(-tw, -x, self, self.field)) * sign
        return _Factored(self.one, ((first, a, True, 1),))


def root_scale(components) -> int:
    """N = 2 J! (J the largest cap // 2) times the lcm of the roots'
    denominators clears exp's 1/k!, k <= J, and the strays' 1/2 on scaled
    roots; a tangent line needs (J + 1)! for sigma's 1/(4^j (2j + 1)!)."""
    roots = [x for c in components for b in (c.tangent, *c.normals, *c.vbundles) if b
             for x in b.roots]
    tangent = any(c.tangent and c.tangent.rank for c in components)
    return (2 * factorial(max(c.cap for c in components) // 2 + tangent)
            * lcm(*(v.denominator for x in roots for v in x.c if v)))


def component_integrands(component, kinds, n8: int, normalized: bool,
                         N: int) -> Iterator[tuple[OperatorKind, QSeries]]:
    """The bracketed localization integrand of each of ``kinds`` on one fixed
    component, as (kind, series), exact on the requested grid and not
    reduced: series / (2^two den), den from ``component_denominator`` and
    2^two the ledger's (``constants_ledger``), once the degree-2d part of
    series is divided by N^d (``reduced``).  The build runs over the ints,
    on the roots mapped by g -> N^d g for each generator g of degree 2d (N
    from ``root_scale``), which multiplies the degree-2d part of any power
    series in the roots by N^d; an N too small to divide out a constant
    exactly raises AlgebraError.  The removable singularity of the tangent
    factor is resolved by dividing out theta's explicit order-1 unit; all
    powers of 2 pi and i cancel by construction.

    The component's lines, one backend, U and L are built once, when the
    first series is asked for, and 1/U is expanded once by ``_expand``, at
    the deepest working order max(n8 - q8_shift, 0) that any of ``kinds``
    needs for a result to n8; the backend's tokens serve every family.
    With s the scalar part of L and n = L - s (nilpotent, n^{J+1} = 0 for
    J = cap // 2), L^{-1} = adj(L) / s^{J+1} where
    adj(L) = sum_j (-n)^j s^{J-j}.  Each family then applies its
    numerator on a copy of that expansion cut to its own working order,
    one family at a time, and multiplies each output coefficient by adj(L).
    """
    # roots times N^d: divided_series, which takes every root, makes them ints or raises
    lines = tuple([(tw, x.map_by_degree(lambda v, d: v * N ** d))
                   for tw, x in part] for part in _lines(component))
    # work high enough that each shifted result reaches n8, and never below
    # q^0, where the unit series U would be empty
    n_tx, n_v = len(lines[0]) + len(lines[1]), len(lines[2])
    shifts = {kind: _prefactors(kind, normalized, n_tx, n_v)[0] for kind in kinds}
    top = max(n8 - min(shifts.values()), 0)
    be = _SeriesBackend(component)
    u, lin = _denominator(be, *lines[:2])
    s, J = lin.scalar_part(), component.cap // 2
    neg_n = -(lin - s)
    adj = term = lin.one_like()
    for _ in range(J):
        term = term * neg_n
        adj = adj * s + term
    inv_u = _expand([1] + [0] * (top // 4), u.inverse())
    for kind, shift in shifts.items():
        order = max(n8 - shift, 0)
        num = _numerator(be, _recipe(kind, normalized, component, lines))
        c = enumerate(_expand(inv_u[:order // 4 + 1], num))
        yield kind, QSeries._raw({4 * i + shift: v * adj for i, v in c
                                  if v and 4 * i + shift <= n8}, n8)


def component_denominator(component) -> WLaurentPoly:
    """den = s^{J+1} of ``component_integrands``, from the weights alone: s,
    the scalar part of L, is the product of 1 - w^{-2m} over the normal
    lines."""
    s = prod((1 - WLaurentPoly.w(-tw) for tw, _ in _iter_lines(component.normals)),
             start=WLaurentPoly.one())
    return s ** (component.cap // 2 + 1)


def reduced(series: QSeries, den: WLaurentPoly, scale: int, N: int, lift: int) -> QSeries:
    """series with each coefficient v of base degree 2d over
    scale N^(lift + d) den in canonical form: with no gcd where den divides
    v.  An int v (a component with no normal lines) is a constant."""
    def over(v, d):
        v, c = WLaurentPoly.const(v) if isinstance(v, int) else v, scale * N ** (lift + d)
        try:
            return WLaurentRational(wpoly_divexact(v, den), WLaurentPoly.const(c))
        except AlgebraError:
            return WLaurentRational(v, den * c)

    return series.map_coefficients(lambda g: g.map_by_degree(over))


def theta_quotient_integrand(kind: OperatorKind, component, n8: int,
                             normalized: bool = False) -> QSeries:
    """``component_integrands`` of ``kind`` alone, ``reduced`` over
    2^two N^d den: a q-series whose nonzero coefficients are all
    ``WLaurentRational``."""
    N = root_scale((component,))
    [(_, series)] = component_integrands(component, (kind,), n8, normalized, N)
    l = sum(b.rank for b in component.vbundles)
    return reduced(series, component_denominator(component),
                   2 ** constants_ledger(kind, normalized, l).two, N, 0)


# ---------------------------------------------------------------------------
# the index-character bridge


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
    ``constants_ledger``.  The shifted series lies on the integrand's keys
    4i, i >= 0; ``_expand`` applies c(q)^{-c_power} to it."""
    out = series
    q8_shift, c_power, two, i = _prefactors(kind, normalized, k, l)
    if _numerators(kind, normalized)[0] is not _THETA_PRIME_0:
        out = out.shift_q8(-q8_shift)
        if c_power:
            c = _expand([out.c.get(e, 0) for e in range(0, out.n8 + 1, 4)],
                        _Factored(1, ((8, -1, False, -c_power),)))
            out = QSeries._raw({4 * j: v for j, v in enumerate(c) if v}, out.n8)
    scale = Fraction(2) ** two * (-1) ** (i // 2)
    return out if scale == 1 else out.scale(scale)


def __getattr__(name):
    """``numeric_integrand``, which moved to ``numeric``: the benchmark's
    tracer (``perfbench/tracer.py``) wraps it under this module's name.
    It loads ``numeric`` on first access, so the exact commands never
    compile the numeric stack."""
    if name == "numeric_integrand":
        from .numeric import numeric_integrand
        return numeric_integrand
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
