"""The four classical Jacobi theta functions in two realizations.

Formal: exact q-expansions on the (1/8)Z grid with coefficients that are
Laurent polynomials in w = e^{pi i t}, produced from the infinite-product
definitions

    theta (v) = c(q) q^{1/8} 2 sin(pi v) prod (1 - q^n e^{2pi i v})(1 - q^n e^{-2pi i v})
    theta1(v) = c(q) q^{1/8} 2 cos(pi v) prod (1 + q^n e^{2pi i v})(1 + q^n e^{-2pi i v})
    theta2(v) = c(q) prod (1 - q^{n-1/2} e^{2pi i v})(1 - q^{n-1/2} e^{-2pi i v})
    theta3(v) = c(q) prod (1 + q^{n-1/2} e^{2pi i v})(1 + q^{n-1/2} e^{-2pi i v})

with c(q) = prod (1 - q^n).  The single non-rational constant (a power of
i from the sine) is kept out of the coefficients in a ledger.

Numeric: certified evaluation anywhere on C x H by truncating the product
once a geometric tail bound drops below the requested accuracy, after
moving tau into the |q|-small regime with the S and T transformations.

Derivatives are normalized as D_v = (2 pi i)^{-1} d/dv so that every
derivative series stays rational.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    OffGridExponent,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
)


class NonconvergentDomain(Exception):
    """tau outside the upper half plane (or reduction failed)."""


class ThetaKind(Enum):
    Theta = "theta"
    Theta1 = "theta1"
    Theta2 = "theta2"
    Theta3 = "theta3"


@dataclass(frozen=True)
class ConstantsLedger:
    """Extracted constants: powers of 2*pi, i and 2 kept out of rational data."""

    two_pi: int = 0
    i: int = 0
    two: int = 0


# ---------------------------------------------------------------------------
# Formal expansions


def unit_product(acc, keys, coeffs, factor):
    """acc times the product of factor(k, c) = (1 + c q^{k/8}) over every
    key k and every c in coeffs.

    Every theta and integrand product of this form is built here.  The
    caller's ``keys`` set the truncation: a finite range for exact series,
    or a generator that stops once the remaining factors are negligible.
    """
    for k in keys:
        for c in coeffs:
            acc = acc * factor(k, c)
    return acc


def series_product(acc: QSeries, one, first: int, coeffs) -> QSeries:
    """acc times prod (1 + c q^{k/8}) over k = first, first + 8, ... <= acc.n8;
    ``one`` is the unit of the coefficient ring."""
    n8 = acc.n8
    return unit_product(acc, range(first, n8 + 1, 8), coeffs,
                        lambda k, c: QSeries({0: one, k: c}, n8))


# (first key, sign) of each kind's pairs prod (1 + sign q^{k/8} e^{+-2 pi i v}), k += 8
PAIR_GRID = {ThetaKind.Theta: (8, -1), ThetaKind.Theta1: (8, 1),
             ThetaKind.Theta2: (4, -1), ThetaKind.Theta3: (4, 1)}


@lru_cache(maxsize=None)
def _char_series(kind: ThetaKind, n8: int) -> tuple[int, QSeries]:
    """Expansion of theta_kind(v, tau) over the half-character s = e^{pi i v}.

    Returns (i_power, series) where series has WLaurentPoly coefficients in
    the symbol s and theta = i^{i_power} * series.  All four kinds carry the
    c(q) factor; the sin/cos kinds carry q^{1/8} and the (s -+ s^{-1}) unit.
    """
    one = WLaurentPoly.one()
    acc = series_product(QSeries({0: one}, n8), one, 8, (WLaurentPoly.const(-1),))
    first, sgn = PAIR_GRID[kind]
    acc = series_product(acc, one, first, (WLaurentPoly.w(2, sgn), WLaurentPoly.w(-2, sgn)))
    if first == 4:
        return 0, acc
    unit = WLaurentPoly({1: Fraction(1), -1: Fraction(sgn)})
    return (-1 if kind is ThetaKind.Theta else 0), acc.scale(unit).shift_q8(1).truncate(n8)


def _subst_char(poly: WLaurentPoly, m: Fraction, k: int) -> WLaurentRational:
    """Map s^j -> (j/2)^k * w^{j m}; exponents must land on the integer grid."""
    out = WLaurentPoly.zero()
    for j, v in poly.c.items():
        e = j * m
        if e.denominator != 1:
            raise OffGridExponent(
                "weight %s sends the character s^%d off the w-grid" % (m, j))
        coeff = v * Fraction(j, 2) ** k if k else v
        if coeff:
            out = out + WLaurentPoly.w(int(e), coeff)
    return WLaurentRational(out)


@dataclass(frozen=True)
class ThetaSeries:
    """A formal theta expansion: i^{i_power} times a rational q-w series."""

    kind: ThetaKind
    m: Fraction
    series: QSeries
    i_power: int
    vanishing_order: int  # order of the zero at v = 0 carried by the series


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


@dataclass(frozen=True)
class ThetaTaylorStack:
    """Normalized derivative stack D_v^k theta_kind(v, tau) at v = m t.

    Entry k has rational coefficients; the true k-th derivative in v is
    (2 pi i)^k times entry k times the ledger constant.  The q^{1/8} and
    c(q) prefactors are exactly representable and live inside the series.
    """

    kind: ThetaKind
    m: Fraction
    entries: tuple[QSeries, ...]
    ledger: ConstantsLedger
    vanishes_at_zero: bool

    def entry(self, k: int) -> QSeries:
        return self.entries[k]


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
# Numeric evaluation


def _t_step(kind: ThetaKind, direction: int) -> tuple[ThetaKind, complex]:
    """theta_kind(t, tau) = factor * theta_kind'(t, tau - direction)."""
    eighth = cmath.exp(1j * math.pi / 4)
    if kind in (ThetaKind.Theta, ThetaKind.Theta1):
        return kind, eighth if direction > 0 else 1 / eighth
    swap = ThetaKind.Theta3 if kind is ThetaKind.Theta2 else ThetaKind.Theta2
    return swap, 1 + 0j


def _s_step(kind: ThetaKind, t1: complex, tau1: complex) -> tuple[ThetaKind, complex]:
    """theta_kind(t0, tau0) = factor * theta_kind'(t1, tau1) for
    (t0, tau0) = (t1/tau1, -1/tau1); principal branch of sqrt(tau/i)."""
    root = cmath.sqrt(tau1 / 1j) * cmath.exp(1j * math.pi * t1 * t1 / tau1)
    table = {
        ThetaKind.Theta: (ThetaKind.Theta, root / 1j),
        ThetaKind.Theta1: (ThetaKind.Theta2, root),
        ThetaKind.Theta2: (ThetaKind.Theta1, root),
        ThetaKind.Theta3: (ThetaKind.Theta3, root),
    }
    return table[kind]


def _theta_direct(kind: ThetaKind, t: complex, tau: complex, eps: float) -> complex:
    """Product evaluation, valid for Im tau bounded away from 0."""
    qh = cmath.exp(1j * math.pi * tau)  # q^{1/2} pinned by tau, not by a branch cut
    q = qh * qh
    aq = abs(q)
    z = cmath.exp(2j * math.pi * t)
    s = cmath.exp(1j * math.pi * t)
    mz = max(abs(z), 1 / abs(z))
    first, sgn = PAIR_GRID[kind]
    delta = (8 - first) / 8
    if kind is ThetaKind.Theta:
        prod = cmath.exp(2j * math.pi * tau / 8) * (-1j) * (s - 1 / s)
    elif kind is ThetaKind.Theta1:
        prod = cmath.exp(2j * math.pi * tau / 8) * (s + 1 / s)
    else:
        prod = 1 + 0j
    zi = 1 / z
    # at step n: qn = q^n, qz = q^{n - delta}, head = |q|^{n+1-delta} (1 + 2 mz)
    qn, qz = q, (qh if delta else q)
    head = aq ** (2 - delta) * (1 + 2 * mz)
    n = 1
    while True:
        prod *= (1 - qn) * (1 + sgn * qz * z) * (1 + sgn * qz * zi)
        # remaining factors differ from 1 by at most 2 head each, summable
        # geometrically once head is below 1/2
        if head < 0.5:
            tail = 2 * head / (1 - aq)
            if abs(prod) * math.expm1(tail) < eps:
                return prod
        n += 1
        if n > 100000:
            raise NonconvergentDomain("theta product did not certify at Im tau=%g" % tau.imag)
        qn, qz, head = qn * q, qz * q, head * aq


def theta_numeric(kind: ThetaKind, t, tau, eps: float = 1e-12) -> complex:
    """theta_kind(t, tau) within eps, for tau in the upper half plane.

    Below Im tau = 0.3 the argument is moved by T-translations and the
    S-inversion (picking up their exact prefactors) until the product
    truncation is short.
    """
    t = complex(t)
    tau = complex(tau)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if tau.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive, got %g" % tau.imag)
    factor = 1 + 0j
    guard = 0
    while tau.imag < 0.3:
        guard += 1
        if guard > 200:
            raise NonconvergentDomain("modular reduction did not terminate")
        shift = round(tau.real)
        if shift:
            step = 1 if shift > 0 else -1
            for _ in range(abs(shift)):
                kind, f = _t_step(kind, step)
                factor *= f
            tau -= shift
            continue
        tau1 = -1 / tau
        t1 = t * tau1
        kind, f = _s_step(kind, t1, tau1)
        factor *= f
        t, tau = t1, tau1
    sub_eps = eps / max(abs(factor), 1e-300)
    return factor * _theta_direct(kind, t, tau, sub_eps)


# ---------------------------------------------------------------------------
# Transformation-law checkers


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled identity check.

    ``max_discrepancy`` is scale-normalized: |lhs - rhs| / (1 + max(|lhs|, |rhs|)),
    so identities between exponentially large values remain checkable in
    double precision.
    """

    identity: str
    samples: int
    max_discrepancy: float
    eps: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy < self.eps


def _norm_diff(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def _default_samples(samples, seed=1729):
    if isinstance(samples, int):
        rng = random.Random(seed)
        out = []
        for _ in range(samples):
            x = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1))
            t = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05))
            tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.4))
            out.append((x, t, tau))
        return out
    return list(samples)


def check_quasi_periodicity(kind: ThetaKind, l: int, a: int, b: int,
                            samples=10, eps: float = 1e-9) -> CheckReport:
    """Check theta_v(x + l(t + a tau + b), tau) =
    e^{-pi i (2 l a x + 2 l^2 a t + l^2 a^2 tau)} theta_v(x + l t, tau)."""
    if a % 2 or b % 2:
        raise ValueError("a and b must be even")
    pts = _default_samples(samples)
    worst = 0.0
    for x, t, tau in pts:
        lhs = theta_numeric(kind, x + l * (t + a * tau + b), tau)
        phase = cmath.exp(-1j * math.pi * (2 * l * a * x + 2 * l * l * a * t + l * l * a * a * tau))
        rhs = phase * theta_numeric(kind, x + l * t, tau)
        worst = max(worst, _norm_diff(lhs, rhs))
    name = "%s(x + %d(t + %d tau + %d))" % (kind.value, l, a, b)
    return CheckReport(name, len(pts), worst, eps)


_S_IMAGE = {
    ThetaKind.Theta: (ThetaKind.Theta, -1),   # extra 1/i
    ThetaKind.Theta1: (ThetaKind.Theta2, 0),
    ThetaKind.Theta2: (ThetaKind.Theta1, 0),
    ThetaKind.Theta3: (ThetaKind.Theta3, 0),
}

_T_IMAGE = {
    ThetaKind.Theta: (ThetaKind.Theta, True),
    ThetaKind.Theta1: (ThetaKind.Theta1, True),
    ThetaKind.Theta2: (ThetaKind.Theta3, False),
    ThetaKind.Theta3: (ThetaKind.Theta2, False),
}


def check_modular_ST(kind: ThetaKind, generator: str, samples=10, eps: float = 1e-9) -> CheckReport:
    """Check the S or T transformation law of one theta kind."""
    pts = _default_samples(samples)
    worst = 0.0
    if generator.upper() == "T":
        image, eighth = _T_IMAGE[kind]
        for _, t, tau in pts:
            lhs = theta_numeric(kind, t, tau + 1)
            rhs = theta_numeric(image, t, tau)
            if eighth:
                rhs *= cmath.exp(1j * math.pi / 4)
            worst = max(worst, _norm_diff(lhs, rhs))
        name = "%s(t, tau+1)" % kind.value
    elif generator.upper() == "S":
        image, ipow = _S_IMAGE[kind]
        for _, t, tau in pts:
            lhs = theta_numeric(kind, t / tau, -1 / tau)
            rhs = cmath.sqrt(tau / 1j) * cmath.exp(1j * math.pi * t * t / tau) \
                * theta_numeric(image, t, tau)
            if ipow:
                rhs /= 1j
            worst = max(worst, _norm_diff(lhs, rhs))
        name = "%s(t/tau, -1/tau)" % kind.value
    else:
        raise ValueError("generator must be 'S' or 'T'")
    return CheckReport(name, len(pts), worst, eps)
