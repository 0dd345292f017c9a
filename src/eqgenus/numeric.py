"""The numeric stack: the theta-quotient integrands and the localized
characters at a point (t, tau).

``numeric_integrand`` runs the one interpreter of ``genera`` through its
second backend, ``_JetBackend``: jets at (t, tau), graded elements with
complex coefficients, within an l1-relative error eps.
``evaluate_numeric`` pushes each component's jet forward and sums them,
and ``degree_component_function`` turns one base monomial of the sum
into the function F(t, tau) that the Jacobi-form and zero-count checks
of ``jacobi`` sample.  Only the ``jacobi`` and ``zeros`` commands import
this module.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial

from .algebra import (DegreeOutOfRange, GradedElement, fiber_integrate, format_monomial,
                      graded_exp, graded_invert, graded_series)
from .genera import OperatorKind, _denominator, _lines, _numerator, _one, _prefactors
from .localization import ActionData, NearPole, _top_monomials, validated
from .theta import NonconvergentDomain, product_keys, unit_product


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

    ``pair_product`` builds a theta pair product over a line from complex
    scalars and ``product`` the scalar products (the c(q) powers and the
    null values).  Each q-product keeps the keys of ``theta.product_keys``
    for a bound on the l1 jet norms of its factors' deviations from 1 at
    the first key (l1 is submultiplicative on jets), within a relative
    budget of eps / (8 (lines + 1)).  The interpreter makes at most
    2 (lines + 1) products, so their left-out factors move the integrand
    by an l1-relative amount below eps.
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
            den = den * scalar_den
        out = num * graded_invert(den * lin)
        q8_shift, _, halves, _ = _prefactors(kind, normalized, len(t_lines) + len(n_lines),
                                             len(lines[2]))
        if halves:
            out = out * (1.0 / 2 ** halves)
        if q8_shift:
            out = out * cmath.exp(2j * math.pi * tau * q8_shift / 8)
    except ArithmeticError as e:
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau)) from e
    if not all(map(cmath.isfinite, out.c)):
        raise NonconvergentDomain("integrand is not finite at t=%s tau=%s" % (t, tau))
    return out


def evaluate_numeric(data: ActionData, kind: OperatorKind, t, tau,
                     eps: float = 1e-10, normalized: bool = False) -> dict[str, complex]:
    """Direct numeric evaluation per base monomial, certified to eps: each
    component's integrand jet is within l1-relative eps, so its pushed jet
    is within eps times that jet's l1 norm times the largest integration
    table entry.

    Raises NearPole when t sits within 1e-6 of a character pole of some
    component denominator, and NonconvergentDomain off the upper half
    plane or where a value or its bound is not finite."""
    t = complex(t)
    tau = complex(tau)
    if tau.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive")
    w = cmath.exp(1j * math.pi * t)
    for comp in data.components:
        for b in comp.normals:
            # theta denominators vanish where the character w^{2m} returns to 1;
            # |w^{2m} - 1| ~ pi |2m| |t - pole| near a pole, tolerance 1e-6 in t
            if abs(w ** b.tw - 1) < math.pi * abs(b.tw) * 1e-6:
                raise NearPole("t=%s is within tolerance of a pole of weight %s"
                               % (t, b.weight))
    totals: dict[tuple[int, ...], complex] = {}
    for comp in data.components:
        jet = numeric_integrand(kind, comp, t, tau, eps, normalized)
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

    def f(t: complex, tau: complex) -> complex:
        vals = evaluate_numeric(data, kind, t, tau, eps, normalized)
        return vals.get(monomial, 0j)

    f.monomial = monomial
    return f
