"""The numeric stack: the theta-quotient integrands and the localized
characters at a point (t, tau).

``numeric_integrand`` runs the one interpreter of ``genera`` through its
second backend, ``_JetBackend``: jets at (t, tau), graded elements with
complex coefficients, within an l1-relative error eps; a scalar
q-product's power is one complex product raised to its multiplicity.
``evaluate_numeric`` pushes each component's jet forward and sums them,
and ``degree_component_function`` turns one base monomial of the sum
into the function F(t, tau) that the Jacobi-form and zero-count checks
of ``jacobi`` sample.  It builds each component's ``NumericPlan`` once:
everything of the integrand that does not depend on (t, tau), the lines
with their roots' powers and exp jets, the unit, the family's recipe and
the prefactors; a sample computes only w, q and the products.  Only the
``jacobi`` and ``zeros`` commands import this module.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import (DegreeOutOfRange, GradedElement, fiber_integrate, format_monomial,
                      graded_exp, graded_invert)
from .genera import (OperatorKind, _denominator, _half_character, _lines, _numerator, _one,
                     _prefactors, _recipe, _sigma)
from .localization import ActionData, NearPole, _top_monomials, validated
from .theta import NonconvergentDomain, product_keys


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


class _Root(GradedElement):
    """A line's root with complex coefficients, with what ``_JetBackend``
    reads of it at every point, built once: J = cap // 2 (0 for a zero
    root), ``lead`` = sum_{j <= J} ||x||_1^j / j!, ``powers`` x, ..., x^J
    up to the first that vanishes, ``exp`` and ``exp_neg`` e^{+-x}, and
    ``sigma`` the tangent unit sigma(x)."""

    __slots__ = ("J", "lead", "powers", "exp", "exp_neg", "sigma")

    def __init__(self, x: GradedElement):
        self.lay, self.c = x.lay, x.map_coefficients(complex).c
        self.J = J = self.cap // 2 if self else 0
        norm = sum(map(abs, self.c))
        self.lead = sum(norm ** j / factorial(j) for j in range(J + 1))
        self.powers, p = [], self.one_like()
        for _ in range(J):
            p = p * self
            if not p:
                break
            self.powers.append(p)
        self.exp, self.exp_neg = graded_exp(self, float), graded_exp(-self, float)
        self.sigma = _sigma(self, float)


class _JetBackend:
    """Numeric coefficients: jets at (t, tau), graded elements with complex
    coefficients (with no generators a jet product is one complex
    multiply); the constants are floats and scalar products are complex
    numbers.  What does not depend on (t, tau) comes from a ``NumericPlan``:
    the unit, the roots' jets (``_Root``) and the half-character's exp.

    ``pair_product`` builds a theta pair product over a line from complex
    scalars and ``product`` the scalar powers (c(q)^m and the null
    values).  Each q-product keeps the keys of ``theta.product_keys`` for
    a bound on the l1 jet norms of its factors' deviations from 1 at the
    first key (l1 is submultiplicative on jets) and log |q| = -2 pi Im tau,
    within a relative budget of eps / (8 (lines + 1)).  The interpreter
    makes at most 2 (lines + 1) products, so their left-out factors move
    the integrand by an l1-relative amount below eps.
    """

    field = float

    def __init__(self, plan: "NumericPlan", t: complex, tau: complex, eps: float):
        self.w1 = cmath.exp(1j * math.pi * t)
        self.qh = cmath.exp(1j * math.pi * tau)
        self.log_q = -2 * math.pi * tau.imag  # log |q|, for product_keys
        self.budget = eps / (8.0 * (plan.n_lines + 1))
        self.one, self.half, self.tokens = plan.one, plan.half, {}

    def w(self, tw: int) -> complex:
        """w^{tw} at w = e^{pi i t}."""
        return self.w1 ** tw

    def lift(self, g):
        return g

    def lin(self, sign: int, tw: int, x: _Root) -> GradedElement:
        """1 + sign E^{-1}, E = w^{tw} e^x."""
        e = x.exp_neg * self.w(-tw) if tw else x.exp_neg
        return self.one + e if sign > 0 else self.one - e

    @staticmethod
    def sigma(x: _Root) -> GradedElement:
        return x.sigma

    def half_character(self, stray_w: Fraction, stray_cls) -> GradedElement:
        """w^{stray_w} times the plan's e^{stray_cls/2}."""
        return _half_character(stray_w, self.half, self.w, None)

    def qpow(self, k: int) -> complex:
        """q^{k/8} for a key on the half-integer grid (k divisible by 4)."""
        return self.qh ** (k // 4)

    def product(self, first: int, c: complex, m: int) -> complex:
        """(prod (1 + c q^{k/8}))^m: one product over the keys of m copies
        of each factor, whose deviations sum to m |c| |q^{first/8}|."""
        keys = product_keys(first, m * abs(c) * abs(self.qpow(first)), self.log_q, self.budget)
        return prod((1 + c * self.qpow(k) for k in keys), start=1 + 0j) ** m

    def pair_product(self, first: int, sign: int, tw: int, x: _Root) -> GradedElement:
        """prod (1 + c_k e^x)(1 + c'_k e^{-x}) over the keys k, with
        c_k = sign w^{tw} q^{k/8} and c'_k = sign w^{-tw} q^{k/8}: the pair
        product over the line E = w^{tw} e^x.

        A factor 1 + c e^{+-x} is (1 + c) exp(sum_j P_j(u) (+-x)^j / j!),
        u = c / (1 + c) and P_j from ``_log_derivatives``; the sum is exact
        at J = cap // 2, since x^{J+1} = 0.  So the product is a complex
        scalar times the exp of one series in x, whose coefficients come
        from the power sums of the u; the exp's own coefficients are
        scalars too, so it is one sum over the root's powers.  A factor
        with |1 + c| < 1/2 is a jet multiply instead: near a zero of 1 + c
        the polynomials in u lose the precision that the direct product
        keeps, and everywhere else |u| <= 3.  The keys are certified for
        the lead (|w^{tw}| + |w^{-tw}|) sum_{j <= J} ||x||_1^j / j!, which
        bounds the l1 norms of both coefficient jets w^{+-tw} e^{+-x}.
        """
        J = x.J
        cp, cm = sign * self.w(tw), sign * self.w(-tw)
        lead = (abs(cp) + abs(cm)) * x.lead
        q, qk = self.qh * self.qh, self.qpow(first)
        scalar, direct = 1 + 0j, []
        # sums[side][m]: the sum of u^m over the factors in e^x (side 0), e^{-x} (side 1)
        sums = ([0j] * (J + 1), [0j] * (J + 1))
        for _ in product_keys(first, lead * abs(qk), self.log_q, self.budget):
            for c, side in ((cp * qk, 0), (cm * qk, 1)):
                d = 1 + c
                if J and abs(d) < 0.5:
                    direct.append(self.one + (x.exp_neg if side else x.exp) * c)
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
        out = self.one
        for v, p in zip(b[1:], x.powers):
            out = out + (p if v == 1 else p * v)
        out = out * scalar
        for f in direct:
            out = out * f
        return out


def numeric_lines(kind: OperatorKind, component) -> tuple[list, list, list]:
    """The (tw, root) lines of ``genera._lines`` that ``numeric_integrand``
    reads, after its checks of fixedness, with each root a ``_Root``: no V
    lines where the family reads none."""
    t_lines, n_lines, v_lines = _lines(component)
    return tuple([(tw, _Root(x)) for tw, x in part]
                 for part in (t_lines, n_lines, v_lines if kind.needs_v else []))


class NumericPlan:
    """What ``numeric_integrand`` reads of one fixed component under (kind,
    normalized) that does not depend on (t, tau): the ``numeric_lines``,
    the unit, the family's ``genera._recipe`` and its half-character's exp
    e^{stray_cls/2}, the line count of the eps budget, and the prefactors
    q^{q8_shift/8} and 2^-halves.  A caller that samples many points builds
    it once."""

    def __init__(self, kind: OperatorKind, normalized: bool, component):
        self.lines = lines = numeric_lines(kind, component)
        self.one = _one(component.gens, component.cap)
        self.recipe = _recipe(kind, normalized, component, lines)
        stray_cls = self.recipe[2]
        self.half = _half_character(0, stray_cls, None, float)  # e^{stray_cls/2}, at w^0
        n_tx, n_v = len(lines[0]) + len(lines[1]), len(lines[2])
        self.n_lines = n_tx + n_v  # the budget counts only the lines the family reads
        self.q8_shift, _, self.halves, _ = _prefactors(kind, normalized, n_tx, n_v)


def numeric_integrand(kind: OperatorKind, component, t: complex, tau: complex,
                      eps: float, normalized: bool = False, plan=None) -> GradedElement:
    """Evaluate the theta-quotient integrand at numeric (t, tau) as a jet:
    a graded element with complex coefficients over the component's
    generators, within l1-relative error eps.  Same interpreter as the
    formal path, on the component's ``NumericPlan`` (built here unless
    given).  Raises NonconvergentDomain where the value or its bound is
    not finite."""
    if plan is None:
        plan = NumericPlan(kind, normalized, component)
    try:
        be = _JetBackend(plan, t, tau, eps)
        den, lin = _denominator(be, *plan.lines[:2])
        num, scalar_den = _numerator(be, plan.recipe)
        if scalar_den is not None:
            den = den * scalar_den
        out = num * graded_invert(den * lin)
        if plan.halves:
            out = out * (1.0 / 2 ** plan.halves)
        if plan.q8_shift:
            out = out * cmath.exp(2j * math.pi * tau * plan.q8_shift / 8)
    except ArithmeticError as e:
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau)) from e
    if not all(map(cmath.isfinite, out.c)):
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau))
    return out


def evaluate_numeric(data: ActionData, kind: OperatorKind, t, tau,
                     eps: float = 1e-10, normalized: bool = False,
                     plans=None) -> dict[str, complex]:
    """Direct numeric evaluation per base monomial, certified to eps: each
    component's integrand jet is within l1-relative eps, so its pushed jet
    is within eps times that jet's l1 norm times the largest integration
    table entry.  ``plans``, one ``NumericPlan`` per component, is built
    here unless given.

    Raises NearPole when t sits within 1e-6 of a character pole of some
    component denominator, and NonconvergentDomain off the upper half
    plane or where a value or its bound is not finite."""
    t = complex(t)
    tau = complex(tau)
    if tau.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive")
    if plans is None:
        plans = [NumericPlan(kind, normalized, comp) for comp in data.components]
    w = cmath.exp(1j * math.pi * t)
    for plan in plans:
        for tw, _ in plan.lines[1]:
            # theta denominators vanish where a normal line's character w^{2m}
            # returns to 1; |w^{2m} - 1| ~ pi |2m| |t - pole| near a pole,
            # tolerance 1e-6 in t
            if abs(w ** tw - 1) < math.pi * abs(tw) * 1e-6:
                raise NearPole("t=%s is within tolerance of a pole of weight %s"
                               % (t, Fraction(tw, 2)))
    totals: dict[tuple[int, ...], complex] = {}
    for comp, plan in zip(data.components, plans):
        jet = numeric_integrand(kind, comp, t, tau, eps, normalized, plan)
        pushed = fiber_integrate(jet, comp.table)
        for exps, v in pushed.terms.items():
            val = complex(v) * comp.sign
            totals[exps] = totals.get(exps, 0j) + val
    zero = (0,) * len(data.base_gens)
    totals.setdefault(zero, 0j)
    names = [n for n, _ in data.base_gens]
    return {format_monomial(exps, names): v for exps, v in totals.items()}


def degree_component_function(data: ActionData, kind: OperatorKind, p2: int,
                              normalized: bool = False, eps: float = 1e-10):
    """Numeric callable F(t, tau) for the first degree-2p base monomial of
    the localized character; the input for the Jacobi-form checkers.
    The dataset is validated once here, not per evaluation."""
    validated(data)
    if p2 < 0 or p2 > data.base_cap:
        raise DegreeOutOfRange("degree %d outside the base cap %d" % (p2, data.base_cap))
    if p2 == 0:
        monomial = "1"
    else:
        cands = _top_monomials(data.base_gens, p2)
        if not cands:
            raise DegreeOutOfRange("no base monomial of degree %d" % p2)
        monomial = format_monomial(cands[0], [n for n, _ in data.base_gens])

    plans = [NumericPlan(kind, normalized, comp) for comp in data.components]

    def f(t: complex, tau: complex) -> complex:
        vals = evaluate_numeric(data, kind, t, tau, eps, normalized, plans)
        return vals.get(monomial, 0j)

    f.monomial = monomial
    return f
