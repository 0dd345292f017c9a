"""The four classical Jacobi theta functions, evaluated numerically.

    theta (v) = c(q) q^{1/8} 2 sin(pi v) prod (1 - q^n e^{2pi i v})(1 - q^n e^{-2pi i v})
    theta1(v) = c(q) q^{1/8} 2 cos(pi v) prod (1 + q^n e^{2pi i v})(1 + q^n e^{-2pi i v})
    theta2(v) = c(q) prod (1 - q^{n-1/2} e^{2pi i v})(1 - q^{n-1/2} e^{-2pi i v})
    theta3(v) = c(q) prod (1 + q^{n-1/2} e^{2pi i v})(1 + q^{n-1/2} e^{-2pi i v})

with c(q) = prod (1 - q^n).  Each kind's pair grid (``PAIR_GRID``), the
truncation of a numeric product (``product_keys``) and the ledger of
constants kept out of rational data (``ConstantsLedger``) also serve the
integrands of ``genera`` and ``numeric``, whose backends form their own
q-products; the exact q-expansions of the four kinds are independent
checks and live in ``reference``.

Numeric: evaluation on C x H within a relative error eps, after moving tau
into the strip Im tau >= 0.8, where |q| < 0.0066, with the S and T
transformations; the product is cut where a geometric tail bound, solved
in closed form (``product_keys``), certifies that the rest is
negligible.  Sampled checkers test the S, T and quasi-periodicity laws;
the S and T images each permute the four kinds, so the S and T checkers
share each kind's right-hand values theta_image(t, tau) at the same
samples, computed once (``_image_values``).

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
from cmath import exp
from math import ceil, expm1, inf, log, log1p


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


# (first key, sign) of each kind's pairs prod (1 + sign q^{k/8} e^{+-2 pi i v}), k += 8
PAIR_GRID = {ThetaKind.Theta: (8, -1), ThetaKind.Theta1: (8, 1),
             ThetaKind.Theta2: (4, -1), ThetaKind.Theta3: (4, 1)}


# ---------------------------------------------------------------------------
# Numeric evaluation


def product_keys(first: int, dev: float, log_q: float, eps: float) -> range:
    """The keys first, first + 8, ... to keep of a product prod (1 + d)
    whose factors at key first + 8 i deviate from 1 by at most dev |q|^i
    in total, log_q = log |q| = -2 pi Im tau < 0.

    From the first left-out step I the deviations sum to at most
    S = dev |q|^I / (1 - |q|), and |prod (1 + d_j) - 1| <= exp(S) - 1
    in any submultiplicative norm (|.| on numbers, l1 on jets); so the
    keys below the least I with S <= log1p(eps) are kept.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not (log_q < 0 and dev < inf):  # dev is a sum of absolute values
        raise NonconvergentDomain("no certified truncation at log|q|=%g, deviation %g"
                                  % (log_q, dev))
    tail = log1p(eps) * -expm1(log_q)  # the largest dev |q|^I allowed
    if dev <= tail:  # also where dev is 0
        return range(first, first, 8)
    # at least the first key, also where log_q is -inf
    count = ceil(log(tail / dev) / log_q) or 1
    if count > 100000:
        raise NonconvergentDomain("product needs %d factors at log|q|=%g" % (count, log_q))
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
# pi i and -2 pi: q^{1/2} = e^{pi i tau} and log |q| = -2 pi Im tau
_PI_I, _MINUS_TWO_PI = 1j * math.pi, -2 * math.pi
# theta_kind(t + 1, tau) = -theta_kind(t, tau) for these kinds; the others are periodic
_ANTIPERIODIC = frozenset((ThetaKind.Theta, ThetaKind.Theta1))
# e^{pi i k/4}, the T-shift phases
_EIGHTHS = tuple(exp(_PI_I * k / 4) for k in range(8))
# the smallest positive normal double
_MIN_NORMAL = sys.float_info.min
# (n, parity) of the zeros recognized on t itself: t - s tau / 2 in
# Z + parity / 2 for s = +-n
_INPUT_ZEROS = {ThetaKind.Theta1: (0, 1), ThetaKind.Theta2: (1, 0), ThetaKind.Theta3: (1, 1)}


def _t_shift(kind: ThetaKind, n: int) -> tuple[ThetaKind, complex]:
    """theta_kind(t, tau) = factor * theta_kind'(t, tau - n)."""
    image, eighths = _MODULAR_IMAGES[kind][1]
    return (image if n % 2 else kind), _EIGHTHS[eighths * n % 8]


def _s_step(kind: ThetaKind, t1: complex, tau1: complex) -> tuple[ThetaKind, complex]:
    """theta_kind(t0, tau0) = factor * theta_kind'(t1, tau1) for
    (t0, tau0) = (t1/tau1, -1/tau1); principal branch of sqrt(tau/i)."""
    image, ipow = _MODULAR_IMAGES[kind][0]
    root = cmath.sqrt(tau1 / 1j) * exp(_PI_I * t1 * t1 / tau1)
    return image, root * 1j ** ipow


def _theta_direct(kind: ThetaKind, t: complex, tau: complex, eps: float) -> complex:
    """Product evaluation within relative eps, valid for Im tau bounded
    away from 0.

    Each coefficient is formed as one exponential of its whole argument,
    so no power of q, z = e^{2 pi i t} or s = e^{pi i t} overflows on its
    own where the factors are finite (at t = 300i, tau = 1000i, z^{-1}
    alone is e^{600 pi})."""
    first, sgn = PAIR_GRID[kind]
    qh = exp(_PI_I * tau)  # q^{1/2} pinned by tau, not by a branch cut
    q = qh * qh
    # sign q^{first/8} z^{+-1}, the pair's coefficients at the first key (the
    # sign multiplies exactly)
    a, b = _PI_I / 4 * first * tau, 2 * _PI_I * t
    qz, qzi = sgn * exp(a + b), sgn * exp(a - b)
    prod = 1 + 0j
    if first == 8:
        # theta and theta1 carry q^{1/8} (s + sgn s^{-1}), theta with a factor
        # -i; q^{1/8} = e^{a/8} and s = e^{pi i t} = e^{b/2}
        prod = (exp(a / 8 + b / 2) + sgn * exp(a / 8 - b / 2)) * (1 if sgn > 0 else -1j)
    # the factors at key k: 1 - q^{(k + 8 - first)/8} and 1 + sign q^{k/8} z^{+-1}
    qn = q
    for _ in product_keys(first, abs(q) + abs(qz) + abs(qzi), _MINUS_TWO_PI * tau.imag, eps):
        prod *= (1 - qn) * (1 + qz) * (1 + qzi)
        qn *= q
        qz *= q
        qzi *= q
    return prod


def theta_numeric(kind: ThetaKind, t, tau, eps: float = 1e-12) -> complex:
    """theta_kind(t, tau) within relative error eps, for tau in the upper
    half plane; NonconvergentDomain where the value or its bound is not
    finite, or where the value is not a normal double (bar the exact
    zeros below).

    Below Im tau = 0.8, T-translations and the S-inversion, whose
    prefactors are exact, move the argument into the strip Im tau >= 0.8,
    where |q| <= e^{-1.6 pi} < 0.0066 and the product truncation is short;
    since 0.8 < sqrt(3)/2, a tau below the strip with |Re tau| <= 1/2 has
    |tau| < 1, so each S-step raises Im tau, and from Im tau >= 0.05 three
    S-steps reach the strip.  First and after each S-step, t moves by the
    integer nearest Re t.  The truncation takes eps / 2 and leaves the
    rest to rounding, which near a zero grows as |t| / dist(t, zero)
    ulps.  So the zeros nearest the real axis, theta1's at 1/2 + Z,
    theta2's at +-tau/2 + Z and theta3's at 1/2 +- tau/2 + Z, are
    recognized on t itself, before the reduction, whose rounding would
    leave a residue there; theta's at Z land on the reduced t = 0.  Their
    other lattice translates wait for t to be reduced modulo tau.
    """
    if not eps >= sys.float_info.epsilon:
        raise ValueError("eps must be positive and at least %r, the double-precision "
                         "epsilon, got %r" % (sys.float_info.epsilon, eps))
    t0 = complex(t)
    tau = tau0 = complex(tau)
    if tau.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive, got %g" % tau.imag)
    zero = _INPUT_ZEROS.get(kind)
    # Im t = s Im tau / 2 first: it fails at once off the zeros' lines
    if zero and abs(t0.imag) == zero[0] * tau.imag / 2 and cmath.isfinite(tau):
        s = zero[0] if t0.imag > 0 else -zero[0]
        if 2 * (t0.real - s * tau.real / 2) % 2 == zero[1]:
            return 0j
    try:
        n = round(t0.real)  # t - n is exact in floating point
        t, factor = t0 - n, (-1 + 0j if n & 1 and kind in _ANTIPERIODIC else 1 + 0j)
        for _ in range(200):
            if tau.imag >= 0.8:
                break
            shift = round(tau.real)
            if shift:
                kind, f = _t_shift(kind, shift)
                factor *= f
                tau -= shift
            # |Re tau| <= 1/2 and Im tau < 0.8 < sqrt(3)/2: |tau| < 1
            tau1 = -1 / tau
            t1 = t * tau1
            kind, f = _s_step(kind, t1, tau1)
            n = round(t1.real)
            factor *= f
            if n & 1 and kind in _ANTIPERIODIC:
                factor = -factor
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


def _worst(pairs) -> float:
    """The largest ``_norm_diff`` over (lhs, rhs) pairs, 0 for none, in one
    loop with no call per pair."""
    worst = 0.0
    for lhs, rhs in pairs:
        d = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
        if d > worst:
            worst = d
    return worst


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
    pairs = ((theta_numeric(kind, x + l * (t + a * tau + b), tau),
              exp(-1j * math.pi * (2 * l * a * x + 2 * l * l * a * t + l * l * a * a * tau))
              * theta_numeric(kind, x + l * t, tau)) for x, t, tau in pts)
    name = "%s(x + %d(t + %d tau + %d))" % (kind.value, l, a, b)
    return CheckReport(name, len(pts), _worst(pairs), eps)


# kind -> (samples key, theta_numeric(kind, t, tau) at each sample): a
# suite that checks the S and T laws of every kind at the same samples asks
# for each kind's values twice.  The key holds the bits of every t and tau,
# so a slot serves only the exact samples it was computed at; other samples
# replace it.  At most one slot per kind is kept for the process.
_IMAGE_VALUES: dict = {}


def _image_values(kind: ThetaKind, pts) -> tuple:
    """theta_numeric(kind, t, tau) at each sample (x, t, tau), taken from
    kind's slot when the slot holds these samples, else computed into it."""
    from array import array  # a shared library load that no command needs

    key = array("d", [c for _, t, tau in pts
                      for c in (t.real, t.imag, tau.real, tau.imag)]).tobytes()
    slot = _IMAGE_VALUES.get(kind)
    if slot is None or slot[0] != key:
        slot = _IMAGE_VALUES[kind] = key, tuple(theta_numeric(kind, t, tau)
                                                 for _, t, tau in pts)
    return slot[1]


def check_modular_ST(kind: ThetaKind, generator: str, samples=10, eps: float = 1e-9) -> CheckReport:
    """Check the S or T transformation law of one theta kind; the values
    theta_image(t, tau) of the right-hand side are shared with the other
    law checks at the same samples (``_image_values``)."""
    pts = _default_samples(samples)
    if generator.upper() == "T":
        image, factor = _t_shift(kind, 1)
        pairs = ((theta_numeric(kind, t, tau + 1), factor * value)
                 for (_, t, tau), value in zip(pts, _image_values(image, pts)))
        name = "%s(t, tau+1)" % kind.value
    elif generator.upper() == "S":
        # the image is the same at every sample; the factor of each
        # sample's S-step is bound in the generator
        image = _MODULAR_IMAGES[kind][0][0]
        pairs = ((theta_numeric(kind, t / tau, -1 / tau), _s_step(kind, t, tau)[1] * value)
                 for (_, t, tau), value in zip(pts, _image_values(image, pts)))
        name = "%s(t/tau, -1/tau)" % kind.value
    else:
        raise ValueError("generator must be 'S' or 'T'")
    return CheckReport(name, len(pts), _worst(pairs), eps)
