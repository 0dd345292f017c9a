"""The four classical Jacobi theta functions, evaluated numerically.

    theta (v) = c(q) q^{1/8} 2 sin(pi v) prod (1 - q^n e^{2pi i v})(1 - q^n e^{-2pi i v})
    theta1(v) = c(q) q^{1/8} 2 cos(pi v) prod (1 + q^n e^{2pi i v})(1 + q^n e^{-2pi i v})
    theta2(v) = c(q) prod (1 - q^{n-1/2} e^{2pi i v})(1 - q^{n-1/2} e^{-2pi i v})
    theta3(v) = c(q) prod (1 + q^{n-1/2} e^{2pi i v})(1 + q^{n-1/2} e^{-2pi i v})

with c(q) = prod (1 - q^n).  The kinds, their pair grids (``PAIR_GRID``)
and the ledger of constants kept out of rational data
(``ConstantsLedger``) live in ``kinds``, which the exact stack reads
without this module.  The truncation of a numeric product
(``product_keys``) also serves the integrands of ``numeric``, whose
backend forms its own q-products; the exact q-expansions of the four
kinds are independent checks and live in ``reference``.

Numeric: evaluation on C x H within a relative error eps, after moving tau
into the strip Im tau >= 0.8, where |q| < 0.0066, with the S and T
transformations; the product is cut where a geometric tail bound, solved
in closed form (``product_keys``), certifies that the rest is
negligible.  A call may ask for a tuple of kinds at one argument: the
argument checks and the reduction run once, and the two kinds of a pair
grid share its exponentials, truncation and powers of q.

Sampled checkers test the S, T and quasi-periodicity laws.  The S and T
images each permute the four kinds, and every law's argument lists are
the same for all kinds, so the checkers keep one table entry per argument
list with all four kinds' values, filled by one tuple call per sample
(``_law_values``).

The module imports only ``kinds`` of the package, so the law suite
compiles nothing else.
"""
from __future__ import annotations

import cmath
import math
import random
import sys
from collections import namedtuple
from cmath import exp
from math import ceil, expm1, inf, log, log1p
from operator import mul

# ConstantsLedger is unused here but keeps its old name theta.ConstantsLedger
from .kinds import PAIR_GRID, ConstantsLedger, NonconvergentDomain, ThetaKind


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
# kind -> (S image, i^s, whether the S image is antiperiodic)
_S_IMAGES = {kind: (image, 1j ** ipow, image in _ANTIPERIODIC)
             for kind, ((image, ipow), _) in _MODULAR_IMAGES.items()}
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


def _s_root(t1: complex, tau1: complex) -> complex:
    """sqrt(tau1/i) e^{pi i t1^2/tau1}, the part of every kind's S-step
    factor that does not depend on the kind; principal branch of the root."""
    return cmath.sqrt(tau1 / 1j) * exp(_PI_I * t1 * t1 / tau1)


def _reduce(t: complex, tau: complex):
    """(n, steps, t', tau'): t - n, with n the integer nearest Re t, moved
    by steps into (t', tau') in the strip Im tau' >= 0.8.  Each step is
    (T-shift, the S-step's ``_s_root``, integer shift of the S-image's t);
    none depends on the kind."""
    n = round(t.real)  # t - n is exact in floating point
    t -= n
    steps = ()
    for _ in range(200):
        if tau.imag >= 0.8:
            return n, steps, t, tau
        shift = round(tau.real)
        if shift:
            tau -= shift
        # |Re tau| <= 1/2 and Im tau < 0.8 < sqrt(3)/2: |tau| < 1
        tau1 = -1 / tau
        t1 = t * tau1
        m = round(t1.real)
        steps += ((shift, _s_root(t1, tau1), m),)
        t, tau = t1 - m, tau1
    raise NonconvergentDomain("modular reduction did not terminate")


def _theta_direct(first: int, t: complex, tau: complex, eps: float, sign: int = 0):
    """(minus, plus): the kinds of the pair grid at first key first with
    sign -1 and +1 (``PAIR_GRID``), by the product within relative eps,
    valid for Im tau bounded away from 0.  The two share the grid's
    exponentials, its truncation and the running powers of q.  With sign
    +-1 only that kind's product is formed and the other slot is None, for
    single-kind calls, which forming both makes about 8% slower.

    Each coefficient is formed as one exponential of its whole argument,
    so no power of q, z = e^{2 pi i t} or s = e^{pi i t} overflows on its
    own where the factors are finite (at t = 300i, tau = 1000i, z^{-1}
    alone is e^{600 pi})."""
    qh = exp(_PI_I * tau)  # q^{1/2} pinned by tau, not by a branch cut
    q = qh * qh
    # q^{first/8} z^{+-1}, the pair's coefficients at the first key up to the
    # kind's sign (the sign multiplies exactly)
    a, b = _PI_I / 4 * first * tau, 2 * _PI_I * t
    qz, qzi = exp(a + b), exp(a - b)
    keys = product_keys(first, abs(q) + abs(qz) + abs(qzi), _MINUS_TWO_PI * tau.imag, eps)
    minus = plus = 1 + 0j
    if first == 8:
        # theta and theta1 carry q^{1/8} (s + sign s^{-1}), theta with a factor
        # -i; q^{1/8} = e^{a/8} and s = e^{pi i t} = e^{b/2}
        s, si = exp(a / 8 + b / 2), exp(a / 8 - b / 2)
        minus, plus = (s - si) * -1j, s + si
    # the factors at key k: 1 - q^{(k + 8 - first)/8} and 1 + sign q^{k/8} z^{+-1}
    qn = q
    if sign:
        prod = plus if sign > 0 else minus
        qz, qzi = sign * qz, sign * qzi
        for _ in keys:
            prod *= (1 - qn) * (1 + qz) * (1 + qzi)
            qn *= q
            qz *= q
            qzi *= q
        return (None, prod) if sign > 0 else (prod, None)
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
    tuple in the same order, each equal float for float to its single-kind
    call.  The argument checks and the reduction run once, and each pair
    grid an image lies on is evaluated once for both its kinds.  A tuple
    call raises NonconvergentDomain where any of its kinds would raise,
    though the others may be fine: at t = 0.3, tau = 1 + 950i theta
    underflows, while theta2 and theta3 are about 1.

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
    tau0 = complex(tau)
    if tau0.imag <= 0:
        raise NonconvergentDomain("Im tau must be positive, got %g" % tau0.imag)
    single = kind.__class__ is not tuple
    values = []
    steps = None  # the reduction, made at the first kind not at an input zero
    grids = {}  # first key -> (minus, plus) at the reduced point
    try:
        for k in ((kind,) if single else kind):
            zero = _INPUT_ZEROS.get(k)
            if zero and abs(t0.imag) == zero[0] * tau0.imag / 2 and cmath.isfinite(tau0):
                s = zero[0] if t0.imag > 0 else -zero[0]
                if 2 * (t0.real - s * tau0.real / 2) % 2 == zero[1]:
                    values.append(0j)
                    continue
            if steps is None:
                n, steps, t, tau = _reduce(t0, tau0)
            # theta_k = factor * theta_image, the factor multiplied in the
            # order of the steps
            image = k
            factor = -1 + 0j if n & 1 and k in _ANTIPERIODIC else 1 + 0j
            for shift, root, m in steps:
                if shift:
                    image, f = _t_shift(image, shift)
                    factor *= f
                image, ipow, antiperiodic = _S_IMAGES[image]
                factor *= root * ipow
                if m & 1 and antiperiodic:
                    factor = -factor
            first, sgn = PAIR_GRID[image]
            pair = grids.get(first)
            if pair is None:
                # a single kind forms its own product alone
                pair = grids[first] = _theta_direct(first, t, tau, eps / 2, single and sgn)
            value = factor * pair[sgn > 0]
            if not cmath.isfinite(value):
                raise NonconvergentDomain("theta is not finite at t=%s tau=%s" % (t0, tau0))
            # below the normal doubles a value keeps no relative precision, and an
            # underflow reads as 0; theta's one exact zero on the reduced grid is t = 0
            if abs(value) < _MIN_NORMAL and not (image is ThetaKind.Theta and t == 0):
                raise NonconvergentDomain("theta underflows the normal doubles at t=%s tau=%s"
                                          % (t0, tau0))
            values.append(value)
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
    else:
        out = list(samples)
    if not out:
        raise ValueError("no samples: a check of nothing cannot pass")
    return out


# (argument list, bits of the samples) -> {kind: its values at the list's
# argument of each sample}.  The argument lists are the same for every
# kind: S's (t/tau, -1/tau), T's (t, tau + 1), the S and T images' (t, tau),
# and quasi-periodicity's two, so one tuple call of theta_numeric per
# sample fills a list for all four kinds, and every other check at the
# same samples reads it.  The key holds the bits of every x, t and tau, so
# an entry serves only the exact samples it was computed at; beyond
# _LAW_VALUES_KEPT entries, two suites' worth, the oldest goes.
_LAW_VALUES: dict = {}
_LAW_VALUES_KEPT = 14


def _sample_bits(pts) -> bytes:
    from struct import Struct  # a shared library load that no command needs

    pack = Struct("6d").pack
    return b"".join([pack(x.real, x.imag, t.real, t.imag, tau.real, tau.imag)
                     for x, t, tau in pts])


def _law_values(key, arguments) -> dict:
    """{kind: theta_numeric(kind, t, tau) at each (t, tau) of arguments},
    from one tuple call per (t, tau), kept in the table under key."""
    entry = _LAW_VALUES.get(key)
    if entry is None:
        kinds = tuple(ThetaKind)
        entry = dict(zip(kinds, zip(*[theta_numeric(kinds, t, tau) for t, tau in arguments])))
        if len(_LAW_VALUES) >= _LAW_VALUES_KEPT:
            del _LAW_VALUES[next(iter(_LAW_VALUES))]
        _LAW_VALUES[key] = entry
    return entry


def check_quasi_periodicity(kind: ThetaKind, l: int, a: int, b: int,
                            samples=10, eps: float = 1e-9) -> CheckReport:
    """Check theta_v(x + l(t + a tau + b), tau) =
    e^{-pi i (2 l a x + 2 l^2 a t + l^2 a^2 tau)} theta_v(x + l t, tau).

    Both sides' values are evaluated for all four kinds at once and shared
    with their checks (``_law_values``): a sample where any kind is not
    finite or not a normal double raises NonconvergentDomain for every
    kind, not only for the kind that fails there."""
    if a % 2 or b % 2:
        raise ValueError("a and b must be even")
    pts = _default_samples(samples)
    bits = _sample_bits(pts)
    lhs = _law_values(("shifted", l, a, b, bits),
                      ((x + l * (t + a * tau + b), tau) for x, t, tau in pts))[kind]
    rhs = _law_values(("base", l, bits), ((x + l * t, tau) for x, t, tau in pts))[kind]
    phases = [exp(-1j * math.pi * (2 * l * a * x + 2 * l * l * a * t + l * l * a * a * tau))
              for x, t, tau in pts]
    name = "%s(x + %d(t + %d tau + %d))" % (kind.value, l, a, b)
    return CheckReport(name, len(pts), _worst(zip(lhs, map(mul, phases, rhs))), eps)


def check_modular_ST(kind: ThetaKind, generator: str, samples=10, eps: float = 1e-9) -> CheckReport:
    """Check the S or T transformation law of one theta kind.

    Both sides' values are evaluated for all four kinds at once and shared
    with the other law checks (``_law_values``): a sample where any kind is
    not finite or not a normal double raises NonconvergentDomain for every
    kind's check, not only for the kind that fails there."""
    generator = generator.upper()
    if generator not in ("S", "T"):
        raise ValueError("generator must be 'S' or 'T'")
    pts = _default_samples(samples)
    bits = _sample_bits(pts)
    images = _law_values(("image", bits), ((t, tau) for _, t, tau in pts))
    if generator == "T":
        image, factor = _t_shift(kind, 1)
        lhs = _law_values(("T", bits), ((t, tau + 1) for _, t, tau in pts))[kind]
        rhs = [factor * value for value in images[image]]
        name = "%s(t, tau+1)" % kind.value
    else:
        # each sample's S-step factor, its root times i^s, times the image's value
        image, ipow, _ = _S_IMAGES[kind]
        lhs = _law_values(("S", bits), ((t / tau, -1 / tau) for _, t, tau in pts))[kind]
        rhs = [_s_root(t, tau) * ipow * value
               for (_, t, tau), value in zip(pts, images[image])]
        name = "%s(t/tau, -1/tau)" % kind.value
    return CheckReport(name, len(pts), _worst(zip(lhs, rhs)), eps)
