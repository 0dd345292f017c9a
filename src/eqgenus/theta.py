"""The four classical Jacobi theta functions, evaluated numerically.

    theta (v) = c(q) q^{1/8} 2 sin(pi v) prod (1 - q^n e^{2pi i v})(1 - q^n e^{-2pi i v})
    theta1(v) = c(q) q^{1/8} 2 cos(pi v) prod (1 + q^n e^{2pi i v})(1 + q^n e^{-2pi i v})
    theta2(v) = c(q) prod (1 - q^{n-1/2} e^{2pi i v})(1 - q^{n-1/2} e^{-2pi i v})
    theta3(v) = c(q) prod (1 + q^{n-1/2} e^{2pi i v})(1 + q^{n-1/2} e^{-2pi i v})

with c(q) = prod (1 - q^n).  Each kind's pair grid (``PAIR_GRID``), the
one product loop (``unit_product``) and the ledger of constants kept out
of rational data (``ConstantsLedger``) also serve the integrands of
``genera`` and ``numeric``; the exact q-expansions of the four kinds are
independent checks and live in ``reference``.

Numeric: evaluation on C x H within a relative error eps, after moving tau
into the |q|-small regime with the S and T transformations; the product
is cut where a geometric tail bound, solved in closed form
(``product_keys``), certifies that the rest is negligible.  Sampled
checkers test the S, T and quasi-periodicity laws.

The module imports no other module of the package, so the law suite
compiles nothing else.
"""
from __future__ import annotations

import cmath
import math
import random
import sys
from collections import namedtuple
from enum import Enum


class NonconvergentDomain(Exception):
    """tau outside the upper half plane (or reduction failed)."""


class ThetaKind(Enum):
    Theta = "theta"
    Theta1 = "theta1"
    Theta2 = "theta2"
    Theta3 = "theta3"

    # members are singletons; hashing by identity keeps theta_numeric's table
    # lookups in C (Enum.__hash__ is a Python-level call)
    __hash__ = object.__hash__


class ConstantsLedger(namedtuple("ConstantsLedger", "two_pi i two", defaults=(0, 0, 0))):
    """Extracted constants: powers of 2*pi, i and 2 kept out of rational data."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# q-products


def unit_product(acc, keys, coeffs, factor):
    """acc times the product of factor(k, c) = (1 + c q^{k/8}) over every
    key k and every c in coeffs.

    It serves the exact q-series products (``genera.series_product``) and the
    numeric integrand's scalar products (the c(q) powers and the null
    values); the numeric theta pair products over a line's root and
    ``_theta_direct`` run their own loops.  The caller's ``keys`` set the
    truncation: the range of the series order for exact series,
    ``product_keys`` for numeric values.
    """
    for k in keys:
        for c in coeffs:
            acc = acc * factor(k, c)
    return acc


# (first key, sign) of each kind's pairs prod (1 + sign q^{k/8} e^{+-2 pi i v}), k += 8
PAIR_GRID = {ThetaKind.Theta: (8, -1), ThetaKind.Theta1: (8, 1),
             ThetaKind.Theta2: (4, -1), ThetaKind.Theta3: (4, 1)}



# ---------------------------------------------------------------------------
# Numeric evaluation


def product_keys(first: int, dev: float, aq: float, eps: float) -> range:
    """The keys first, first + 8, ... to keep of a product prod (1 + d)
    whose factors at key first + 8 i deviate from 1 by at most dev |q|^i
    in total, aq = |q| < 1.

    From the first left-out step I the deviations sum to at most
    S = dev |q|^I / (1 - |q|), and |prod (1 + d_j) - 1| <= exp(S) - 1
    in any submultiplicative norm (|.| on numbers, l1 on jets); so the
    keys below the least I with S <= log1p(eps) are kept.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    tail = math.log1p(eps) * (1 - aq)  # the largest dev |q|^I allowed
    if not (0 <= aq < 1 and math.isfinite(dev)):
        raise NonconvergentDomain("no certified truncation at |q|=%g, deviation %g" % (aq, dev))
    if dev <= tail:  # also where dev is 0
        return range(first, first, 8)
    # where q underflows to 0 only the first key deviates
    count = math.ceil(math.log(tail / dev) / math.log(aq)) if aq else 1
    if count > 100000:
        raise NonconvergentDomain("product needs %d factors at |q|=%g" % (count, aq))
    return range(first, first + 8 * count, 8)


# Each kind's S and T images (Chandrasekharan, Elliptic Functions, ch. V):
# (S image, power s of i), with theta_kind(t/tau, -1/tau) =
# i^s sqrt(tau/i) e^{pi i t^2/tau} theta_image(t, tau), and (T image,
# eighths e), with theta_kind(t, tau + 1) = e^{pi i e/4} theta_image(t, tau).
# T's image map is an involution.
_MODULAR_IMAGES = {
    ThetaKind.Theta: ((ThetaKind.Theta, -1), (ThetaKind.Theta, 1)),
    ThetaKind.Theta1: ((ThetaKind.Theta2, 0), (ThetaKind.Theta1, 1)),
    ThetaKind.Theta2: ((ThetaKind.Theta1, 0), (ThetaKind.Theta3, 0)),
    ThetaKind.Theta3: ((ThetaKind.Theta3, 0), (ThetaKind.Theta2, 0)),
}
# theta_kind(t + 1, tau) = sign theta_kind(t, tau): theta, theta1 antiperiodic
_PERIOD_SIGN = {ThetaKind.Theta: -1, ThetaKind.Theta1: -1, ThetaKind.Theta2: 1, ThetaKind.Theta3: 1}
# the smallest positive normal double
_MIN_NORMAL = sys.float_info.min


def _t_shift(kind: ThetaKind, n: int) -> tuple[ThetaKind, complex]:
    """theta_kind(t, tau) = factor * theta_kind'(t, tau - n)."""
    image, eighths = _MODULAR_IMAGES[kind][1]
    return (image if n % 2 else kind), cmath.exp(1j * math.pi * (eighths * n % 8) / 4)


def _s_step(kind: ThetaKind, t1: complex, tau1: complex) -> tuple[ThetaKind, complex]:
    """theta_kind(t0, tau0) = factor * theta_kind'(t1, tau1) for
    (t0, tau0) = (t1/tau1, -1/tau1); principal branch of sqrt(tau/i)."""
    image, ipow = _MODULAR_IMAGES[kind][0]
    root = cmath.sqrt(tau1 / 1j) * cmath.exp(1j * math.pi * t1 * t1 / tau1)
    return image, root * 1j ** ipow


def _theta_direct(kind: ThetaKind, t: complex, tau: complex, eps: float) -> complex:
    """Product evaluation within relative eps, valid for Im tau bounded
    away from 0.

    Each coefficient is formed as one exponential of its whole argument,
    so no power of q, z = e^{2 pi i t} or s = e^{pi i t} overflows on its
    own where the factors are finite (at t = 300i, tau = 1000i, z^{-1}
    alone is e^{600 pi})."""
    first, sgn = PAIR_GRID[kind]
    qh = cmath.exp(1j * math.pi * tau)  # q^{1/2} pinned by tau, not by a branch cut
    q = qh * qh
    # q^{first/8} z^{+-1}, the pair's coefficients at the first key
    a, b = 0.25j * math.pi * first * tau, 2j * math.pi * t
    qz, qzi = cmath.exp(a + b), cmath.exp(a - b)
    prod = 1 + 0j
    if first == 8:
        # theta and theta1 carry q^{1/8} (s + sgn s^{-1}), theta with a factor
        # -i; q^{1/8} = e^{a/8} and s = e^{pi i t} = e^{b/2}
        prod = (cmath.exp(a / 8 + b / 2) + sgn * cmath.exp(a / 8 - b / 2)) * (1 if sgn > 0 else -1j)
    # the factors at key k: 1 - q^{(k + 8 - first)/8} and 1 + sgn q^{k/8} z^{+-1}
    qn = q
    for _ in product_keys(first, abs(q) + abs(qz) + abs(qzi), abs(q), eps):
        prod *= (1 - qn) * (1 + sgn * qz) * (1 + sgn * qzi)
        qn, qz, qzi = qn * q, qz * q, qzi * q
    return prod


def theta_numeric(kind: ThetaKind, t, tau, eps: float = 1e-12) -> complex:
    """theta_kind(t, tau) within relative error eps, for tau in the upper
    half plane; NonconvergentDomain where the value or its bound is not
    finite, or where the value is not a normal double (bar the exact
    zeros at real t: theta's at t in Z, theta1's at t in 1/2 + Z).

    Below Im tau = 0.3, T-translations and the S-inversion, whose
    prefactors are exact, move the argument until the product truncation
    is short; first and after each S-step, t moves by the integer nearest
    Re t.  The truncation takes eps / 2 and leaves the rest to rounding,
    which near a zero grows as |t| / dist(t, zero) ulps.  theta1's real
    zeros are recognized on t itself, before the reduction, whose
    rounding would leave a residue of about 1e-16 there.  The zeros of
    theta2 and theta3, at t in tau/2 + Z and (1 + tau)/2 + Z, depend on
    tau and are not recognized.
    """
    t0 = complex(t)
    tau = tau0 = complex(tau)
    if tau.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive, got %g" % tau.imag)
    if kind is ThetaKind.Theta1 and t0.imag == 0 and 2 * t0.real % 2 == 1 and cmath.isfinite(tau):
        return 0j
    try:
        n = round(t0.real)  # t - n is exact in floating point
        t, factor = t0 - n, _PERIOD_SIGN[kind] ** (n % 2) + 0j
        for _ in range(200):
            if tau.imag >= 0.3:
                break
            shift = round(tau.real)
            if shift:
                kind, f = _t_shift(kind, shift)
                factor *= f
                tau -= shift
                continue
            tau1 = -1 / tau
            t1 = t * tau1
            kind, f = _s_step(kind, t1, tau1)
            n = round(t1.real)
            factor *= f * _PERIOD_SIGN[kind] ** (n % 2)
            t, tau = t1 - n, tau1
        else:
            raise NonconvergentDomain("modular reduction did not terminate")
        value = factor * _theta_direct(kind, t, tau, eps / 2)
    except (ArithmeticError, ValueError) as e:  # round() of an infinite or NaN Re t
        raise NonconvergentDomain("theta is not finite at t=%s tau=%s" % (t0, tau0)) from e
    if not cmath.isfinite(value):
        raise NonconvergentDomain("theta is not finite at t=%s tau=%s" % (t0, tau0))
    # below the normal doubles a value keeps no relative precision, and an
    # underflow reads as 0; theta's one exact zero on the reduced grid is t = 0
    if abs(value) < _MIN_NORMAL and not (kind is ThetaKind.Theta and t == 0):
        raise NonconvergentDomain("theta underflows the normal doubles at t=%s tau=%s"
                                  % (t0, tau0))
    return value


# ---------------------------------------------------------------------------
# Transformation-law checkers


class CheckReport(namedtuple("CheckReport", "identity samples max_discrepancy eps")):
    """Outcome of a sampled identity check.

    ``max_discrepancy`` is scale-normalized: |lhs - rhs| / (1 + max(|lhs|, |rhs|)),
    so identities between exponentially large values remain checkable in
    double precision.
    """

    __slots__ = ()

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


def check_modular_ST(kind: ThetaKind, generator: str, samples=10, eps: float = 1e-9) -> CheckReport:
    """Check the S or T transformation law of one theta kind."""
    pts = _default_samples(samples)
    worst = 0.0
    if generator.upper() == "T":
        image, factor = _t_shift(kind, 1)
        for _, t, tau in pts:
            worst = max(worst, _norm_diff(theta_numeric(kind, t, tau + 1),
                                          factor * theta_numeric(image, t, tau)))
        name = "%s(t, tau+1)" % kind.value
    elif generator.upper() == "S":
        for _, t, tau in pts:
            image, factor = _s_step(kind, t, tau)
            worst = max(worst, _norm_diff(theta_numeric(kind, t / tau, -1 / tau),
                                          factor * theta_numeric(image, t, tau)))
        name = "%s(t/tau, -1/tau)" % kind.value
    else:
        raise ValueError("generator must be 'S' or 'T'")
    return CheckReport(name, len(pts), worst, eps)
