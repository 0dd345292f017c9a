"""The four classical Jacobi theta functions, evaluated numerically.

    theta (v) = c(q) q^{1/8} 2 sin(pi v) prod (1 - q^n e^{2pi i v})(1 - q^n e^{-2pi i v})
    theta1(v) = c(q) q^{1/8} 2 cos(pi v) prod (1 + q^n e^{2pi i v})(1 + q^n e^{-2pi i v})
    theta2(v) = c(q) prod (1 - q^{n-1/2} e^{2pi i v})(1 - q^{n-1/2} e^{-2pi i v})
    theta3(v) = c(q) prod (1 + q^{n-1/2} e^{2pi i v})(1 + q^{n-1/2} e^{-2pi i v})

with c(q) = prod (1 - q^n).  The kinds, their pair grids (``PAIR_GRID``)
and the ledger of constants kept out of rational data
(``ConstantsLedger``) live in ``kinds``, which the exact stack reads
without this module.  The truncation of a numeric product
(``product_keys``) lives in ``truncation``, which also serves the
integrands of ``numeric``; the exact q-expansions of the four kinds are
independent checks and live in ``reference``.

Numeric: evaluation on C x H within a relative error eps, after moving tau
into the strip Im tau >= 0.8, where |q| < 0.0066, with the S and T
transformations; the product is cut where a geometric tail bound, solved
in closed form (``product_keys``), certifies that the rest is
negligible.  A call asks for one kind or a tuple of kinds at one
argument, on one path: the argument checks and the reduction run once,
each T-shift and S-step moves the image and factor of every asked kind
through a small table over the four kind indices (``_T_STEP``,
``_S_STEP``) as it is made, and each pair grid forms both its kinds'
products, which share its exponentials, truncation and powers of q.

Sampled checkers test the S, T and quasi-periodicity laws.  The S and T
images each permute the four kinds, and every law's argument lists are
the same for all kinds, so each law keeps a one-entry memo of all four
kinds' values at its argument lists, filled by one tuple call per sample
and keyed on the samples as a tuple: ``_modular_values`` for S and T,
``_quasi_values`` for quasi-periodicity.

The module imports only ``kinds`` and ``truncation`` of the package, so
the law suite compiles nothing else.
"""
from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from cmath import exp, isfinite, sqrt
from functools import lru_cache
from operator import mul

from .kinds import PAIR_GRID, NonconvergentDomain, ThetaKind
from .truncation import product_keys


# ---------------------------------------------------------------------------
# Numeric evaluation


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
# pi i / 4 and 2 pi i: q^{1/8} = e^{pi i tau / 4} and z = e^{2 pi i t}
_PI_I_4, _TWO_PI_I = _PI_I / 4, 2 * _PI_I
# the tables below index the kinds by their place here
_KINDS = tuple(ThetaKind)
_INDEX = {kind: i for i, kind in enumerate(_KINDS)}
# (first key, slot of the sign in _theta_direct's pair) of each kind's pair grid
_GRID = tuple((first, sign > 0) for first, sign in map(PAIR_GRID.get, _KINDS))
# theta_kind(t + 1, tau) = -theta_kind(t, tau) for theta and theta1; the others are periodic
_ANTIPERIODIC = tuple(kind in (ThetaKind.Theta, ThetaKind.Theta1) for kind in _KINDS)
# kind -> (S image, i^s, whether the S image is antiperiodic)
_S_STEP = tuple((_INDEX[image], 1j ** ipow, _ANTIPERIODIC[_INDEX[image]])
                for (image, ipow), _ in map(_MODULAR_IMAGES.get, _KINDS))
# e^{pi i k/4}, the T-shift phases
_EIGHTHS = tuple(exp(_PI_I * k / 4) for k in range(8))
# kind -> shift mod 8 -> (image, phase), with
# theta_kind(t, tau) = phase theta_image(t, tau - shift)
_T_STEP = tuple(tuple((_INDEX[image] if n % 2 else kind, _EIGHTHS[eighths * n % 8])
                      for n in range(8))
                for kind, (_, (image, eighths)) in enumerate(map(_MODULAR_IMAGES.get, _KINDS)))
# the smallest positive normal double, and the double-precision epsilon
_MIN_NORMAL, _EPSILON = sys.float_info.min, sys.float_info.epsilon
# (n, parity) of the zeros recognized on t itself: t - s tau / 2 in
# Z + parity / 2 for s = +-n
_INPUT_ZEROS = {ThetaKind.Theta1: (0, 1), ThetaKind.Theta2: (1, 0), ThetaKind.Theta3: (1, 1)}


def _s_root(t1: complex, tau1: complex) -> complex:
    """sqrt(tau1/i) e^{pi i t1^2/tau1}, the part of every kind's S-step
    factor that does not depend on the kind; principal branch of the root."""
    return sqrt(tau1 / 1j) * exp(_PI_I * t1 * t1 / tau1)


def _theta_direct(first: int, t: complex, tau: complex, q: complex, log_q: float, eps: float):
    """(minus, plus): the kinds of the pair grid at first key first with
    sign -1 and +1 (``PAIR_GRID``), by the product within relative eps,
    valid for Im tau bounded away from 0, with q = e^{2 pi i tau} and
    log_q = log |q| given.  Both are formed in one loop, also where only
    one is asked for, sharing the grid's exponentials, its truncation and
    the running powers of q.

    Each coefficient is formed as one exponential of its whole argument,
    so no power of q, z = e^{2 pi i t} or s = e^{pi i t} overflows on its
    own where the factors are finite (at t = 300i, tau = 1000i, z^{-1}
    alone is e^{600 pi})."""
    # q^{first/8} z^{+-1}, the pair's coefficients at the first key up to the
    # kind's sign (the sign multiplies exactly)
    a, b = _PI_I_4 * first * tau, _TWO_PI_I * t
    qz, qzi = exp(a + b), exp(a - b)
    keys = product_keys(first, abs(q) + abs(qz) + abs(qzi), log_q, eps)
    minus = plus = 1 + 0j
    if first == 8:
        # theta and theta1 carry q^{1/8} (s + sign s^{-1}), theta with a factor
        # -i; q^{1/8} = e^{a/8} and s = e^{pi i t} = e^{b/2}
        s, si = exp(a / 8 + b / 2), exp(a / 8 - b / 2)
        minus, plus = (s - si) * -1j, s + si
    # the factors at key k: 1 - q^{(k + 8 - first)/8} and 1 + sign q^{k/8} z^{+-1}
    qn = q
    for _ in keys:
        c = 1 - qn
        minus *= c * (1 - qz) * (1 - qzi)
        plus *= c * (1 + qz) * (1 + qzi)
        qn *= q
        qz *= q
        qzi *= q
    return minus, plus


def theta_numeric(kind: ThetaKind | tuple[ThetaKind, ...], t, tau, eps: float = 1e-12):
    """theta_kind(t, tau) within relative error eps, for tau in the upper
    half plane; NonconvergentDomain where the value or its bound is not
    finite, or where the value is not a normal double (bar the exact
    zeros below).

    kind may also be a tuple of kinds: the call returns their values as a
    tuple in the same order.  A single kind is the one-kind case of the
    same path, so each value equals its single-kind call float for float.
    The argument checks and the reduction run once, and each pair grid an
    image lies on is evaluated once for both its kinds.  A tuple call
    raises NonconvergentDomain where any of its kinds would raise,
    though the others may be fine: at t = 0.3, tau = 1 + 950i theta
    underflows, while theta2 and theta3 are about 1.

    Below Im tau = 0.8, T-translations and the S-inversion, whose
    prefactors are exact, move the argument into the strip Im tau >= 0.8,
    where |q| <= e^{-1.6 pi} < 0.0066 and the product truncation is short;
    since 0.8 < sqrt(3)/2, a tau below the strip with |Re tau| <= 1/2 has
    |tau| < 1, so each S-step raises Im tau, and from Im tau >= 0.05 three
    S-steps reach the strip.  First and after each S-step, t moves by the
    integer nearest Re t.  Each step moves every asked kind's image and
    factor through ``_T_STEP`` or ``_S_STEP`` as it is made, multiplying
    each factor in the order of the steps.  The truncation takes eps / 2
    and leaves the rest to rounding, which near a zero grows as
    |t| / dist(t, zero) ulps.  So the zeros nearest the real axis,
    theta1's at 1/2 + Z, theta2's at +-tau/2 + Z and theta3's at
    1/2 +- tau/2 + Z, are recognized on t itself, before the reduction,
    whose rounding would leave a residue there (tested only where |Im t|
    is 0 or Im tau / 2); theta's at Z land on the reduced t = 0.  Their
    other lattice translates wait for t to be reduced modulo tau.
    """
    if not eps >= _EPSILON:
        raise ValueError("eps must be positive and at least %r, the double-precision "
                         "epsilon, got %r" % (_EPSILON, eps))
    t0 = complex(t)
    tau0 = complex(tau)
    if tau0.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive, got %g" % tau0.imag)
    single = kind.__class__ is not tuple
    kinds = (kind,) if single else kind
    zeros = ()  # the places of the kinds at an input zero
    values = []
    try:
        im = abs(t0.imag)
        if (im == 0 or im == tau0.imag / 2) and isfinite(tau0):
            zeros = []
            for i, k in enumerate(kinds):
                zero = _INPUT_ZEROS.get(k)
                if zero and im == zero[0] * tau0.imag / 2:
                    s = zero[0] if t0.imag > 0 else -zero[0]
                    if 2 * (t0.real - s * tau0.real / 2) % 2 == zero[1]:
                        zeros.append(i)
            kinds = [k for i, k in enumerate(kinds) if i not in zeros]
        if kinds:
            # each kind's [image, factor], moved by every step as it is made, so
            # that theta_kind(t0, tau0) = factor theta_image(t, tau) at the end
            states = [[_INDEX[k], 1 + 0j] for k in kinds]
            n = round(t0.real)
            t, tau = t0 - n, tau0  # t0 - n is exact in floating point
            if n & 1:
                for state in states:
                    if _ANTIPERIODIC[state[0]]:
                        state[1] = -1 + 0j
            for _ in range(200):
                if tau.imag >= 0.8:
                    break
                shift = round(tau.real)
                if shift:
                    tau -= shift
                    row = shift % 8
                    for state in states:
                        state[0], phase = _T_STEP[state[0]][row]
                        state[1] *= phase
                # |Re tau| <= 1/2 and Im tau < 0.8 < sqrt(3)/2: |tau| < 1
                tau1 = -1 / tau
                t1 = t * tau1
                m = round(t1.real)
                root = _s_root(t1, tau1)
                for state in states:
                    state[0], ipow, antiperiodic = _S_STEP[state[0]]
                    factor = state[1] * (root * ipow)
                    state[1] = -factor if m & 1 and antiperiodic else factor
                t, tau = t1 - m, tau1
            else:
                raise NonconvergentDomain("modular reduction did not terminate")
            qh = exp(_PI_I * tau)  # q^{1/2} pinned by tau, not by a branch cut
            q, log_q = qh * qh, _MINUS_TWO_PI * tau.imag
            grids = {}  # first key -> (minus, plus) at the reduced point
            for image, factor in states:
                first, slot = _GRID[image]
                pair = grids.get(first)
                if pair is None:
                    pair = grids[first] = _theta_direct(first, t, tau, q, log_q, eps / 2)
                value = factor * pair[slot]
                if not isfinite(value):
                    raise NonconvergentDomain("theta is not finite at t=%s tau=%s" % (t0, tau0))
                # below the normal doubles a value keeps no relative precision, and an
                # underflow reads as 0; theta's one exact zero on the reduced grid is t = 0
                if abs(value) < _MIN_NORMAL and not (_KINDS[image] is ThetaKind.Theta and t == 0):
                    raise NonconvergentDomain("theta underflows the normal doubles at t=%s tau=%s"
                                              % (t0, tau0))
                values.append(value)
        for i in zeros:
            values.insert(i, 0j)
    except (ArithmeticError, ValueError) as e:  # round() of an infinite or NaN Re t
        raise NonconvergentDomain("theta is not finite at t=%s tau=%s" % (t0, tau0)) from e
    return values[0] if single else tuple(values)


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


def _worst(pairs) -> float:
    """The largest scale-normalized discrepancy (``CheckReport``) over
    (lhs, rhs) pairs, 0 for none, in one loop with no call per pair."""
    worst = 0.0
    for lhs, rhs in pairs:
        d = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
        if d > worst:
            worst = d
    return worst


def _default_samples(samples, seed=1729) -> tuple:
    """The samples as a tuple of (x, t, tau) tuples, the key of the law
    memos; an int draws that many seeded samples."""
    if isinstance(samples, int):
        rng = random.Random(seed)
        samples = [(complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1)),
                    complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05)),
                    complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.4)))
                   for _ in range(samples)]
    pts = tuple(map(tuple, samples))
    if not pts:
        raise ValueError("no samples: a check of nothing cannot pass")
    return pts


def _per_kind(arguments) -> tuple:
    """Per kind index, theta_numeric(kind, t, tau) at each (t, tau) of
    arguments, by one tuple call per (t, tau)."""
    return tuple(zip(*[theta_numeric(_KINDS, t, tau) for t, tau in arguments]))


# One entry each, keyed on the samples as tuples, which compare by value:
# a sample moved in place gives a new key.  Both look theta_numeric up as
# a module global at every call, and hold tuples, which no caller can change.
@lru_cache(maxsize=1)
def _modular_values(pts: tuple) -> tuple:
    """(images, S, T, roots): per kind index, the values at every sample's
    (t, tau), (t/tau, -1/tau) and (t, tau + 1), and each sample's S root
    (``_s_root``)."""
    return (_per_kind((t, tau) for _, t, tau in pts),
            _per_kind((t / tau, -1 / tau) for _, t, tau in pts),
            _per_kind((t, tau + 1) for _, t, tau in pts),
            tuple([_s_root(t, tau) for _, t, tau in pts]))


@lru_cache(maxsize=1)
def _quasi_values(pts: tuple, l: int, a: int, b: int) -> tuple:
    """(shifted, base, phases) of ``check_quasi_periodicity``: per kind
    index, the values at every sample's x + l(t + a tau + b) and x + l t,
    and each sample's phase."""
    return (_per_kind((x + l * (t + a * tau + b), tau) for x, t, tau in pts),
            _per_kind((x + l * t, tau) for x, t, tau in pts),
            tuple([exp(-1j * math.pi * (2 * l * a * x + 2 * l * l * a * t + l * l * a * a * tau))
                   for x, t, tau in pts]))


def check_quasi_periodicity(kind: ThetaKind, l: int, a: int, b: int,
                            samples=10, eps: float = 1e-9) -> CheckReport:
    """Check theta_v(x + l(t + a tau + b), tau) =
    e^{-pi i (2 l a x + 2 l^2 a t + l^2 a^2 tau)} theta_v(x + l t, tau).

    Both sides' values are evaluated for all four kinds at once and kept
    for the other kinds' checks at the same samples and (l, a, b)
    (``_quasi_values``): a sample where any kind is not finite or not a
    normal double raises NonconvergentDomain for every kind, not only for
    the kind that fails there."""
    if a % 2 or b % 2:
        raise ValueError("a and b must be even")
    pts = _default_samples(samples)
    shifted, base, phases = _quasi_values(pts, l, a, b)
    k = _INDEX[kind]
    name = "%s(x + %d(t + %d tau + %d))" % (kind.value, l, a, b)
    return CheckReport(name, len(pts), _worst(zip(shifted[k], map(mul, phases, base[k]))), eps)


def check_modular_ST(kind: ThetaKind, generator: str, samples=10, eps: float = 1e-9) -> CheckReport:
    """Check the S or T transformation law of one theta kind.

    The values of both laws are evaluated for all four kinds at once and
    kept for the other S and T checks at the same samples
    (``_modular_values``): a sample where any kind is not finite or not a
    normal double at any of the S and T arguments raises
    NonconvergentDomain for every kind's check of either law."""
    generator = generator.upper()
    if generator not in ("S", "T"):
        raise ValueError("generator must be 'S' or 'T'")
    pts = _default_samples(samples)
    images, s_values, t_values, roots = _modular_values(pts)
    k = _INDEX[kind]
    if generator == "T":
        image, factor = _T_STEP[k][1]
        lhs = t_values[k]
        rhs = [factor * value for value in images[image]]
        name = "%s(t, tau+1)" % kind.value
    else:
        # each sample's S-step factor, its root times i^s, times the image's value
        image, ipow, _ = _S_STEP[k]
        lhs = s_values[k]
        rhs = [root * ipow * value for root, value in zip(roots, images[image])]
        name = "%s(t/tau, -1/tau)" % kind.value
    return CheckReport(name, len(pts), _worst(zip(lhs, rhs)), eps)
