"""Modular-group machinery and Jacobi-form verification.

Implements membership tests for the three congruence subgroups attached to
the theta kinds, the weight/index slash action, sampled checks of the two
defining Jacobi-form transformation laws, and argument-principle zero
counting by the winding number of F around the cell, from summed phase
increments.
"""
from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .genera import _FAMILIES, _THETA_PRIME_0, OperatorKind
from .theta import NonconvergentDomain, ThetaKind, _norm_diff


class BoundaryZero(NonconvergentDomain):
    """A zero sits on (or too near) the integration contour."""


class NonFiniteSample(NonconvergentDomain):
    """A sampled value of the checked function is not finite."""


class ModularMatrix(namedtuple("ModularMatrix", "a b c d")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1")
        return super().__new__(cls, a, b, c, d)

    def __mul__(self, o: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                             self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def act(self, t: complex, tau: complex) -> tuple[complex, complex]:
        den = self.c * tau + self.d
        return t / den, (self.a * tau + self.b) / den

    def __str__(self):
        return "[[%d,%d],[%d,%d]]" % (self.a, self.b, self.c, self.d)


IDENTITY = ModularMatrix(1, 0, 0, 1)
S = ModularMatrix(0, -1, 1, 0)
T = ModularMatrix(1, 1, 0, 1)


class ModularGroup(Enum):
    GAMMA0_2 = "Gamma0(2)"
    GAMMA_UPPER0_2 = "Gamma^0(2)"
    GAMMA_THETA = "Gamma_theta"
    SL2Z = "SL2(Z)"


def subgroup_member(g: ModularMatrix, group: ModularGroup) -> bool:
    """Congruence conditions mod 2: c even, b even, or congruent to the
    identity or the antidiagonal."""
    if group is ModularGroup.SL2Z:
        return True
    if group is ModularGroup.GAMMA0_2:
        return g.c % 2 == 0
    if group is ModularGroup.GAMMA_UPPER0_2:
        return g.b % 2 == 0
    pattern = (g.a % 2, g.b % 2, g.c % 2, g.d % 2)
    return pattern in ((1, 0, 0, 1), (0, 1, 1, 0))


GROUP_GENERATORS: dict[ModularGroup, tuple[ModularMatrix, ...]] = {
    ModularGroup.SL2Z: (S, T),
    ModularGroup.GAMMA0_2: (T, S * T * T * S * T),
    ModularGroup.GAMMA_UPPER0_2: (T * T, ModularMatrix(1, 0, 1, 1)),
    ModularGroup.GAMMA_THETA: (S, T * T),
}


LATTICE_SCALE = 2  # the elliptic law's lattice is (2Z)^2 for all forms arising here

# a function whose samples all stay below this is taken to be identically
# zero: its values are rounding noise, which the laws' factors amplify
ZERO_FLOOR = 1e-10


class JacobiFormSpec(namedtuple("JacobiFormSpec", "index weight group")):
    """Index, weight and modular subgroup of a Jacobi form."""

    __slots__ = ()

    def __new__(cls, index, weight: int, group: ModularGroup = ModularGroup.SL2Z):
        return super().__new__(cls, Fraction(index), weight, group)


# the modular group of each theta numerator of a family
DESIGNATED_GROUP = {
    ThetaKind.Theta1: ModularGroup.GAMMA0_2,
    ThetaKind.Theta2: ModularGroup.GAMMA_UPPER0_2,
    ThetaKind.Theta3: ModularGroup.GAMMA_THETA,
    ThetaKind.Theta: ModularGroup.SL2Z,
    _THETA_PRIME_0: ModularGroup.SL2Z,
}


def designated_spec(kind: OperatorKind, anomaly: int, k: int, l: int, p: int) -> JacobiFormSpec:
    """Expected Jacobi-form data of the degree-2p component: index n/2,
    weight k+p (k-l+p when theta is the V numerator), and the subgroup of
    the family's theta kind: its V numerator, or theta'(0) on TX."""
    tx_num, v_num = _FAMILIES[kind]
    theta = tx_num if v_num is None and tx_num is _THETA_PRIME_0 else v_num
    if theta not in DESIGNATED_GROUP:
        raise ValueError("%s has no designated Jacobi-form group" % kind.value)
    weight = k + p - (l if v_num is ThetaKind.Theta else 0)
    return JacobiFormSpec(Fraction(anomaly, 2), weight, DESIGNATED_GROUP[theta])


def slash_action(F, g: ModularMatrix, spec: JacobiFormSpec):
    """The weight/index action: (F |_{m,l} g)(t, tau) =
    (c tau + d)^{-l} e^{-2 pi i m c t^2/(c tau + d)} F(g(t, tau))."""
    m = float(spec.index)
    l = spec.weight

    def slashed(t: complex, tau: complex) -> complex:
        den = g.c * tau + g.d
        t1, tau1 = g.act(t, tau)
        return den ** (-l) * cmath.exp(-2j * math.pi * m * g.c * t * t / den) * F(t1, tau1)

    return slashed


class JacobiReport(namedtuple("JacobiReport", "spec samples max_modular_discrepancy "
                                              "max_lattice_discrepancy eps identically_zero")):
    __slots__ = ()

    @property
    def max_discrepancy(self) -> float:
        return max(self.max_modular_discrepancy, self.max_lattice_discrepancy)

    @property
    def passed(self) -> bool:
        """Both laws hold to eps; the zero function satisfies every law."""
        return self.identically_zero or self.max_discrepancy < self.eps


def _jacobi_samples(samples, seed=271828):
    # Im tau is kept moderate: the lattice shifts t + 2 tau live where the
    # summands cancel to an exponentially small value, and double precision
    # loses the digits beyond e^{4 pi Im tau} or so.
    if isinstance(samples, int):
        rng = random.Random(seed)
        return [(complex(rng.uniform(0.07, 0.93), rng.uniform(-0.02, 0.02)),
                 complex(rng.uniform(-0.45, 0.45), rng.uniform(0.5, 0.95)))
                for _ in range(samples)]
    return list(samples)


def check_jacobi(F, spec: JacobiFormSpec, samples=16, eps: float = 1e-8) -> JacobiReport:
    """Sampled check of both defining transformation laws.

    The modular law is checked on the generators of spec.group
    (``GROUP_GENERATORS``); the lattice vectors are the basis of
    (LATTICE_SCALE Z)^2.  When |F| stays below ZERO_FLOOR at every sample,
    F is reported identically zero and passes; its discrepancies are still
    reported.
    """
    generators = GROUP_GENERATORS[spec.group]
    pts = _jacobi_samples(samples)
    if not pts:
        raise ValueError("no samples: a check of nothing cannot pass")
    m = float(spec.index)

    def diff(lhs, rhs, t, tau):
        if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
            raise NonFiniteSample("non-finite value at t=%s tau=%s" % (t, tau))
        return _norm_diff(lhs, rhs)

    # F(t, tau) is the right-hand side of every law at the sample: one
    # evaluation serves all generators and lattice vectors
    mods, lats, peak = [], [], 0.0
    for t, tau in pts:
        base = F(t, tau)
        peak = max(peak, abs(base))
        mods += [diff(slash_action(F, g, spec)(t, tau), base, t, tau) for g in generators]
        lats += [diff(F(t + lam * tau + mu, tau),
                      cmath.exp(-2j * math.pi * m * (lam * lam * tau + 2 * lam * t)) * base,
                      t, tau)
                 for lam, mu in ((LATTICE_SCALE, 0), (0, LATTICE_SCALE))]
    return JacobiReport(spec, len(pts), max(mods, default=0.0), max(lats), eps,
                        peak < ZERO_FLOOR)


# ---------------------------------------------------------------------------
# argument-principle zero counting

# each cell edge starts as this many panels before adaptive splitting
PANELS = 32


ZeroCountResult = namedtuple("ZeroCountResult", "count identically_zero perturbations")


def _edge_winding(F, tau, a: complex, b: complex, zero_floor: float) -> float:
    """Summed principal phase increments of F along the edge a -> b."""
    total = 0.0

    def rec(x0, x1, f0, f1, depth):
        nonlocal total
        if abs(f0) < zero_floor or abs(f1) < zero_floor:
            raise BoundaryZero("contour passes too close to a zero")
        dphase = cmath.phase(f1 / f0)
        if abs(dphase) > math.pi / 2 and depth < 14:
            xm = (x0 + x1) / 2
            fm = F(xm, tau)
            rec(x0, xm, f0, fm, depth + 1)
            rec(xm, x1, fm, f1, depth + 1)
            return
        if abs(dphase) > math.pi / 2:
            raise BoundaryZero("phase jump did not subdivide away")
        total += dphase

    pts = [a + (b - a) * i / PANELS for i in range(PANELS + 1)]
    vals = [F(p, tau) for p in pts]
    for i in range(PANELS):
        rec(pts[i], pts[i + 1], vals[i], vals[i + 1], 0)
    return total


def count_zeros(F, tau: complex, cell: tuple[complex, complex, complex]) -> ZeroCountResult:
    """Zeros minus poles of F in the cell (origin, v1, v2): the winding
    number of F around its boundary, from summed phase increments.  Panels
    split adaptively whenever the phase of F jumps by more than pi/2, so
    each increment is the true phase change along its panel.

    The zero function is detected on a 16 x 16 grid first; the deciding
    samples are restricted to the low-imaginary band of the cell, where a
    cancelling sum is computable to full precision (the lattice law
    transports vanishing on a band to the whole cell).  A boundary zero
    triggers up to three perturbations of the cell origin.
    """
    origin, v1, v2 = (complex(x) for x in cell)
    scale = 0.0
    band_max = 0.0
    for i in range(16):
        for j in range(16):
            z = origin + (i + 0.5) / 16 * v1 + (j + 0.5) / 16 * v2
            val = F(z, tau)
            if not cmath.isfinite(val):
                raise NonFiniteSample("non-finite sample at %s" % z)
            scale = max(scale, abs(val))
            if abs(z.imag - origin.imag) <= max(0.35, abs(v2) / 8):
                band_max = max(band_max, abs(val))
    if band_max < ZERO_FLOOR:
        return ZeroCountResult(None, True, 0)
    zero_floor = 1e-12 * scale
    shift = 0.0137 + 0.0089j
    base = origin
    for attempt in range(4):
        try:
            corners = [base, base + v1, base + v1 + v2, base + v2, base]
            total = sum(_edge_winding(F, tau, a, b, zero_floor)
                        for a, b in zip(corners, corners[1:]))
            return ZeroCountResult(total / (2 * math.pi), False, attempt)
        except BoundaryZero:
            base = base + shift * (attempt + 1)
    raise BoundaryZero("boundary zero persisted after 3 perturbations")


# ---------------------------------------------------------------------------
# index-based classification


class IndexClassification(Enum):
    RigidByZeroIndex = "RigidByZeroIndex"
    VanishesByNegativeIndex = "VanishesByNegativeIndex"
    PositiveIndexJacobiForm = "PositiveIndexJacobiForm"


IndexVerdict = namedtuple("IndexVerdict", "classification series_is_zero contradiction rigidity",
                          defaults=(None,))


def rigidity_verdict_from_index(n: int, result) -> IndexVerdict:
    """Classify by the anomaly: negative index forces vanishing, zero index
    forces rigidity, positive index gives an honest Jacobi form."""
    from .localization import rigidity_check

    zero = not result.series.c
    if n < 0:
        return IndexVerdict(IndexClassification.VanishesByNegativeIndex, zero, not zero)
    if n == 0:
        rv = rigidity_check(result)
        return IndexVerdict(IndexClassification.RigidByZeroIndex, zero, not rv.rigid, rv)
    return IndexVerdict(IndexClassification.PositiveIndexJacobiForm, zero, False)
