import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from eqgenus import theta
from eqgenus.algebra import OffGridExponent, QSeries, WLaurentRational
from eqgenus.reference import evaluate_formal, theta_formal, theta_taylor
from eqgenus.theta import (
    ConstantsLedger,
    NonconvergentDomain,
    ThetaKind,
    check_modular_ST,
    check_quasi_periodicity,
    theta_numeric,
)

KINDS = (ThetaKind.Theta, ThetaKind.Theta1, ThetaKind.Theta2, ThetaKind.Theta3)


# -- independent oracles (plain integer dict arithmetic, no library code) -----

def _dict_mul(a, b, n8):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            if e <= n8:
                out[e] = out.get(e, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def brute_force_nullwert(kind, n8):
    """Direct multiplication of the defining product at v = 0."""
    ser = {0: 1}
    n = 1
    while 8 * n <= n8:  # c(q)
        ser = _dict_mul(ser, {0: 1, 8 * n: -1}, n8)
        n += 1
    sgn = -1 if kind is ThetaKind.Theta2 else 1
    n = 1
    while 8 * n - 4 <= n8:
        factor = {0: 1, 8 * n - 4: sgn}
        ser = _dict_mul(ser, _dict_mul(factor, factor, n8), n8)
        n += 1
    return ser


def sum_form_nullwert(kind, n8):
    """Theta-series form: sum over n of (+-1)^n q^{n^2/2}."""
    out = {}
    n = 0
    while 4 * n * n <= n8:
        sgn = (-1) ** n if kind is ThetaKind.Theta2 else 1
        out[4 * n * n] = out.get(4 * n * n, 0) + (sgn if n == 0 else 2 * sgn)
        n += 1
    return out


# -- formal expansions ---------------------------------------------------------

def test_theta_m1_leading_term():
    ts = theta_formal(ThetaKind.Theta, 1, 9)
    assert ts.i_power == -1  # the extracted -i
    lead = ts.series.coefficient(1)
    assert lead == WLaurentRational.w(1) - WLaurentRational.w(-1)


def test_theta_m1_next_order_by_hand():
    # theta(t,tau) = -i q^{1/8} (w - w^-1) (1 - q(w^2 + 1 + w^-2) + O(q^2))
    ts = theta_formal(ThetaKind.Theta, 1, 9)
    c9 = ts.series.coefficient(9)
    w = WLaurentRational.w
    expect = (w(1) - w(-1)) * (-(w(2) + 1 + w(-2)))
    assert c9 == expect


def test_theta3_nullwert_against_brute_force():
    ts = theta_formal(ThetaKind.Theta3, 0, 40)
    oracle = brute_force_nullwert(ThetaKind.Theta3, 40)
    for k in range(41):
        got = ts.series.c.get(k, WLaurentRational.zero())
        assert got == WLaurentRational.const(oracle.get(k, 0))
    assert oracle == sum_form_nullwert(ThetaKind.Theta3, 40)


def test_theta_m0_is_zero_with_flag():
    ts = theta_formal(ThetaKind.Theta, 0, 24)
    assert not ts.series
    assert ts.vanishing_order == 1


def test_nullwert_integer_coefficients_to_64():
    for kind in (ThetaKind.Theta2, ThetaKind.Theta3):
        ts = theta_formal(kind, 0, 64)
        oracle = brute_force_nullwert(kind, 64)
        keys = set(ts.series.c) | set(oracle)
        for k in keys:
            got = ts.series.c.get(k, WLaurentRational.zero())
            assert got.is_constant() and got.constant().denominator == 1
            assert got.constant() == oracle.get(k, 0)


def test_half_integer_weight_on_grid_kinds():
    # theta2/theta3 at half-integer m stay on the integer w-grid
    ts = theta_formal(ThetaKind.Theta3, Fraction(1, 2), 24)
    assert ts.series.coefficient(4) == WLaurentRational.w(1) + WLaurentRational.w(-1)
    with pytest.raises(OffGridExponent):
        theta_formal(ThetaKind.Theta, Fraction(1, 2), 24)


# -- derivative stacks ----------------------------------------------------------

def test_taylor_entry0_matches_formal():
    rng = random.Random(5)
    for _ in range(20):
        kind = rng.choice(KINDS)
        m = rng.choice([-2, -1, 0, 1, 2])
        st = theta_taylor(kind, m, 2, 17)
        ts = theta_formal(kind, m, 17)
        assert st.entries[0] == ts.series
        assert st.ledger.i == ts.i_power


def test_theta_prime_at_zero_is_cq_cubed():
    # D_v theta(0, tau) = q^{1/8} c(q)^3 up to the ledger i-power
    st = theta_taylor(ThetaKind.Theta, 0, 1, 33)
    assert st.vanishes_at_zero
    assert st.ledger == ConstantsLedger(i=-1)
    cq3 = QSeries({0: WLaurentRational.one()}, 32)
    n = 1
    while 8 * n <= 32:
        f = QSeries({0: WLaurentRational.one(), 8 * n: WLaurentRational.const(-1)}, 32)
        cq3 = cq3 * f * f * f
        n += 1
    expect = cq3.shift_q8(1).truncate(33)
    assert st.entries[1] == expect


def test_parity_at_m0():
    # theta odd, theta1/2/3 even: wrong-parity derivative entries vanish
    for kind in KINDS:
        st = theta_taylor(kind, 0, 3, 25)
        odd = kind is ThetaKind.Theta
        for k in range(4):
            entry_should_vanish = (k % 2 == 0) if odd else (k % 2 == 1)
            if entry_should_vanish:
                assert not st.entries[k], (kind, k)


def test_quasi_periodic_transport_b2():
    # t -> t + 2 acts trivially on the w-grid: stacks are invariant
    for kind in KINDS:
        for m in (1, 2):
            st = theta_taylor(kind, m, 1, 17)
            for entry in st.entries:
                shifted = entry.map_coefficients(
                    lambda c: WLaurentRational(c.num, c.den))  # identity; grid absorbs e^{2 pi i j}
                assert shifted == entry


# -- numeric evaluation ----------------------------------------------------------

def test_theta_vanishes_at_origin():
    for tau in (1j, 0.3 + 0.8j, -0.2 + 2.1j):
        assert abs(theta_numeric(ThetaKind.Theta, 0, tau)) < 1e-12


def test_theta_numeric_underflow_raises():
    # below the normal doubles a value keeps no relative precision: theta1(0)
    # and theta(0.3) at 950i are about 1e-324; theta's exact zero stays 0
    for kind, t in ((ThetaKind.Theta, 0.3), (ThetaKind.Theta1, 0), (ThetaKind.Theta, 0.3 + 1j)):
        with pytest.raises(NonconvergentDomain):
            theta_numeric(kind, t, 950j)
    assert theta_numeric(ThetaKind.Theta, 0, 950j) == 0
    assert theta_numeric(ThetaKind.Theta, 4, 1000j) == 0
    assert theta_numeric(ThetaKind.Theta3, 0.3, 1000j) == 1


def test_theta_numeric_at_small_im_tau_where_the_value_is_normal():
    # after the S-step t = 300i at tau = 1000i (0.001i), where z^{-1} alone is
    # e^{600 pi}; the references are 200-digit mpmath, and theta3's are also
    # sqrt(1000) e^{-90 pi} and sqrt(500) e^{-45 pi} by the S-transform
    for kind, tau, ref in ((ThetaKind.Theta3, 0.001j, 5.083094154391578e-122),
                           (ThetaKind.Theta3, 0.002j, 8.964974927172124e-61),
                           (ThetaKind.Theta3, 0.004j, 3.165935355762819e-30),
                           (ThetaKind.Theta, 0.001j, 8.412902317300903e-54)):
        assert abs(theta_numeric(kind, 0.3, tau) - ref) <= 1e-12 * ref, (kind, tau)


def test_invalid_domain():
    with pytest.raises(NonconvergentDomain):
        theta_numeric(ThetaKind.Theta1, 0.1, 0.5 - 1j)


def test_formal_matches_numeric():
    rng = random.Random(31)
    for _ in range(20):
        kind = rng.choice(KINDS)
        m = rng.choice([-2, -1, 0, 1, 2])
        t = rng.uniform(0.05, 0.95)
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(1.0, 1.6))
        ts = theta_formal(kind, m, 80)
        val = evaluate_formal(ts.series, m * t if m else 0, tau) * (1j ** (ts.i_power % 4))
        # the series is in w with v = m t already substituted
        val = evaluate_formal(ts.series, t, tau) * (1j ** (ts.i_power % 4))
        ref = theta_numeric(kind, m * t, tau, 1e-13)
        assert abs(val - ref) < 1e-9, (kind, m)


def test_theta_numeric_low_im_tau_reduction():
    # value computed through the S/T reduction equals the direct product
    kind = ThetaKind.Theta2
    t = 0.23
    tau = 0.4 + 0.12j
    via_reduction = theta_numeric(kind, t, tau, 1e-12)
    # compare against the (slow but convergent) raw product
    from eqgenus.theta import PAIR_GRID, _theta_direct
    first, sign = PAIR_GRID[kind]
    raw = _theta_direct(first, t, tau, 1e-12)[sign > 0]
    assert abs(via_reduction - raw) / (1 + abs(raw)) < 1e-9


def _mpmath_theta(mpmath, kind, t, tau):
    """theta_kind(t, tau) at mpmath's working precision.  mpmath's
    jtheta(n, pi v, nome) is theta1 = eqgenus theta, theta2 = theta1,
    theta3 = theta3, theta4 = theta2 here; it takes nome^{1/4} on the
    principal branch, eqgenus e^{i pi tau / 4}."""
    number = {ThetaKind.Theta: 1, ThetaKind.Theta1: 2, ThetaKind.Theta2: 4, ThetaKind.Theta3: 3}
    mtau = mpmath.mpc(tau)
    nome = mpmath.exp(1j * mpmath.pi * mtau)
    ref = mpmath.jtheta(number[kind], mpmath.pi * mpmath.mpc(t), nome)
    if number[kind] in (1, 2):
        ref *= mpmath.exp(1j * mpmath.pi * mtau / 4) / mpmath.nthroot(nome, 4)
    return complex(ref)


def test_theta_numeric_matches_mpmath():
    # 0.05 <= Im tau <= 1.4: points below Im tau = 0.8 go through the S/T
    # reduction
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(53)
    worst = 0.0
    with mpmath.workdps(20):
        for _ in range(300):
            t = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05))
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
            for kind in KINDS:
                ref = _mpmath_theta(mpmath, kind, t, tau)
                got = theta_numeric(kind, t, tau, 1e-12)
                worst = max(worst, abs(got - ref) / (1 + max(abs(got), abs(ref))))
    assert worst < 1e-9


# (real, tau) part of a zero of each kind; the zeros are these plus Z + tau Z
_ZERO = {ThetaKind.Theta: (0, 0), ThetaKind.Theta1: (0.5, 0),
         ThetaKind.Theta2: (0, 0.5), ThetaKind.Theta3: (0.5, 0.5)}


def test_theta_numeric_within_relative_eps(monkeypatch):
    # seeded points with Re t in [-0.5, 1.5], |Im t| <= 0.3 and
    # 0.05 <= Im tau <= 1.4, where |theta| reaches well above 1, and for
    # each kind a point 5e-4 to 1e-3 from one of its zeros (Im tau <= 0.6
    # keeps the zeros at +-tau/2 near the real axis, and below the
    # reduction's threshold Im tau = 0.8); then points with Re tau within
    # 0.2 of +-1 or +-3 and Im tau < 0.3, whose reduction starts with an
    # odd T-shift, which swaps theta2 and theta3
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(59)
    points = []
    for _ in range(200):
        t = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
        points += [(kind, t, tau) for kind in KINDS]
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.6))
        for kind in KINDS:
            re, im = _ZERO[kind]
            t = re + rng.choice((0, 1)) + im * rng.choice((1, -1)) * tau \
                + cmath.rect(rng.uniform(5e-4, 1e-3), rng.uniform(0, 2 * math.pi))
            points.append((kind, t, tau))
    rng = random.Random(67)
    for _ in range(300):
        t = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.3, 0.3))
        tau = complex(rng.choice((-3, -1, 1, 3)) + rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.3))
        points += [(kind, t, tau) for kind in KINDS]
    swaps = []
    t_shift = theta._t_shift

    def spy(kind, n):
        swapped, factor = t_shift(kind, n)
        swaps.append(swapped is not kind)
        return swapped, factor

    monkeypatch.setattr(theta, "_t_shift", spy)
    large = 0
    with mpmath.workdps(30):
        for kind, t, tau in points:
            ref = _mpmath_theta(mpmath, kind, t, tau)
            large += abs(ref) > 1
            for eps in (1e-9, 1e-12):
                rel = abs(theta_numeric(kind, t, tau, eps) - ref) / abs(ref)
                assert rel <= eps, (kind, t, tau, eps, rel / eps)
    assert large > 100
    # each theta2 and theta3 point of the last set swaps at its first step
    assert sum(swaps) >= 2 * 2 * 300


def test_theta_numeric_rejects_a_nonpositive_eps():
    for eps in (0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            theta_numeric(ThetaKind.Theta3, 0.3, 1j, eps)


def test_theta_numeric_rejects_an_eps_below_double_precision():
    # 5e-324 halved to 0 in product_keys and read as a non-finite value, and
    # 1e-320 claimed a relative error that doubles cannot meet
    floor = sys.float_info.epsilon
    for eps in (5e-324, 1e-320, floor / 2):
        with pytest.raises(ValueError, match="at least %r" % floor):
            theta_numeric(ThetaKind.Theta3, 0.3, 1j, eps)
    ref = theta_numeric(ThetaKind.Theta3, 0.3, 1j)
    assert abs(theta_numeric(ThetaKind.Theta3, 0.3, 1j, floor) - ref) <= 1e-12 * abs(ref)


def test_theta_numeric_at_the_reduction_threshold(monkeypatch):
    # seeded points with Im tau in [0.78, 0.82] and |Re tau| near 1/2, on
    # either side of the threshold Im tau = 0.8, and points near |tau| = 1
    # and near the corners e^{i pi/3} and e^{2 i pi/3}, against 30-digit
    # mpmath; then the S-steps per call from Im tau >= 0.05, which reach
    # the strip Im tau >= 0.8 in at most three
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(79)
    taus = [complex(rng.choice((1, -1)) * rng.uniform(0.45, 0.5), rng.uniform(0.78, 0.82))
            for _ in range(60)]
    taus += [cmath.rect(rng.uniform(0.98, 1.02), rng.uniform(0.3, math.pi - 0.3))
             for _ in range(60)]
    taus += [corner + cmath.rect(rng.uniform(0, 0.02), rng.uniform(0, 2 * math.pi))
             for corner in (cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3))
             for _ in range(30)]
    with mpmath.workdps(30):
        for tau in taus:
            t = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.3, 0.3))
            for kind in KINDS:
                ref = _mpmath_theta(mpmath, kind, t, tau)
                rel = abs(theta_numeric(kind, t, tau, 1e-12) - ref) / abs(ref)
                assert rel <= 1e-12, (kind, t, tau, rel)
    steps = []
    s_root = theta._s_root
    monkeypatch.setattr(theta, "_s_root", lambda *a: steps.append(a) or s_root(*a))
    worst = 0
    for _ in range(400):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 1.4))
        for kind in KINDS:
            del steps[:]
            theta_numeric(kind, complex(rng.uniform(0, 1), rng.uniform(-0.3, 0.3)), tau)
            worst = max(worst, len(steps))
            assert steps or tau.imag >= 0.8
    assert worst <= 3


def test_theta_numeric_keeps_few_product_keys(monkeypatch):
    # a cost guard with no timing: over the law suite's domain (S, T and
    # quasi-periodicity checks at Im tau in [0.05, 1.4]) the reduction into
    # the strip Im tau >= 0.8 keeps about 3.7 product keys per evaluation,
    # and one that stops at Im tau >= 0.3 keeps 5.7; the checks share one
    # table of all four kinds' values per argument list, so each of the five
    # distinct arguments per sample is evaluated once, and its two pair
    # grids take one truncation each
    kept = []
    product_keys = theta.product_keys

    def spy(*args):
        keys = product_keys(*args)
        kept.append(len(keys))
        return keys

    monkeypatch.setattr(theta, "product_keys", spy)
    monkeypatch.setattr(theta, "_LAW_VALUES", {})
    rng = random.Random(83)
    pts = [(complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1)),
            complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05)),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))) for _ in range(300)]
    for kind in KINDS:
        assert check_modular_ST(kind, "S", pts).passed
        assert check_modular_ST(kind, "T", pts).passed
        assert check_quasi_periodicity(kind, 1, 2, 0, samples=pts).passed
    assert len(kept) == 2 * 5 * len(pts)
    assert sum(kept) / len(kept) <= 4.5


def test_theta_numeric_within_relative_eps_at_large_re_t():
    # Re t up to 1e12: the float t is exactly t_red + n with n = round(Re t),
    # and theta_kind(t) = (+-1)^n theta_kind(t_red), antiperiodic for theta
    # and theta1; 30-digit mpmath is evaluated at t_red
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(71)
    with mpmath.workdps(30):
        for _ in range(40):
            t = complex(10 ** rng.uniform(0, 12) * rng.choice((1, -1)), rng.uniform(-0.3, 0.3))
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
            n = round(t.real)
            for kind in KINDS:
                sign = -1 if n % 2 and kind in (ThetaKind.Theta, ThetaKind.Theta1) else 1
                ref = sign * _mpmath_theta(mpmath, kind, t - n, tau)
                rel = abs(theta_numeric(kind, t, tau, 1e-12) - ref) / abs(ref)
                assert rel <= 1e-12, (kind, t, tau, rel)
        # the two points measured before the reduction, at tau = 0.2 + i
        for t in (1e6 + 0.3, 1e12 + 0.3):
            ref = _mpmath_theta(mpmath, ThetaKind.Theta2, mpmath.mpf(t) - round(t), 0.2 + 1j)
            assert abs(theta_numeric(ThetaKind.Theta2, t, 0.2 + 1j) - ref) <= 1e-12 * abs(ref)
        # Re t near 4 at Im tau near 0.05 raised NonconvergentDomain before
        t, tau = 4.1249 + 0.0646j, 0.4899 + 0.0534j
        for kind in KINDS:
            ref = _mpmath_theta(mpmath, kind, t, tau)
            assert abs(theta_numeric(kind, t, tau) - ref) <= 1e-12 * abs(ref)
    # 1e300 is an even integer, a zero of theta
    assert theta_numeric(ThetaKind.Theta, 1e300, 0.2 + 1j) == 0


def test_periodicity_t_plus_one():
    rng = random.Random(37)
    for _ in range(10):
        t = rng.uniform(0, 1) + 0.1j * rng.random()
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.5))
        a = theta_numeric(ThetaKind.Theta3, t + 1, tau)
        b = theta_numeric(ThetaKind.Theta3, t, tau)
        assert abs(a - b) < 1e-9 * (1 + abs(b))


def test_s_transformation_of_theta():
    rng = random.Random(41)
    for _ in range(10):
        t = rng.uniform(0.1, 0.9)
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
        lhs = theta_numeric(ThetaKind.Theta, t / tau, -1 / tau)
        rhs = (1 / 1j) * cmath.sqrt(tau / 1j) * cmath.exp(1j * math.pi * t * t / tau) \
            * theta_numeric(ThetaKind.Theta, t, tau)
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-9


# -- law checkers -----------------------------------------------------------------

def test_check_quasi_periodicity_reports():
    r = check_quasi_periodicity(ThetaKind.Theta1, 1, 0, 2, samples=6, eps=1e-9)
    assert r.passed
    r = check_quasi_periodicity(ThetaKind.Theta, 2, 2, 0, samples=10, eps=1e-9)
    assert r.passed
    r = check_quasi_periodicity(ThetaKind.Theta2, 0, 2, 2, samples=4, eps=1e-12)
    assert r.passed and r.max_discrepancy == 0.0


def test_check_modular_all_eight():
    for kind in KINDS:
        for g in ("S", "T"):
            r = check_modular_ST(kind, g, samples=8, eps=1e-9)
            assert r.passed, (kind, g, r.max_discrepancy)


def _direct_law_reports(pts, eps):
    """The 12 law reports with both sides of every law evaluated straight
    from theta_numeric, in the suite's order (S, T, quasi-periodicity per
    kind)."""
    reports = []
    for kind in KINDS:
        s_pairs = []
        image, ipow, _ = theta._S_IMAGES[kind]
        for _, t, tau in pts:
            factor = theta._s_root(t, tau) * ipow
            s_pairs.append((theta_numeric(kind, t / tau, -1 / tau),
                            factor * theta_numeric(image, t, tau)))
        image, factor = theta._t_shift(kind, 1)
        t_pairs = [(theta_numeric(kind, t, tau + 1), factor * theta_numeric(image, t, tau))
                   for _, t, tau in pts]
        q_pairs = [(theta_numeric(kind, x + (t + 2 * tau), tau),
                    cmath.exp(-1j * math.pi * (2 * 2 * x + 2 * 2 * t + 4 * tau))
                    * theta_numeric(kind, x + t, tau)) for x, t, tau in pts]
        reports += [theta.CheckReport("%s(t/tau, -1/tau)" % kind.value, len(pts),
                                      theta._worst(s_pairs), eps),
                    theta.CheckReport("%s(t, tau+1)" % kind.value, len(pts),
                                      theta._worst(t_pairs), eps),
                    theta.CheckReport("%s(x + 1(t + 2 tau + 0))" % kind.value, len(pts),
                                      theta._worst(q_pairs), eps)]
    return reports


def _law_suite(pts, eps):
    return [rep for kind in KINDS
            for rep in (check_modular_ST(kind, "S", pts, eps),
                        check_modular_ST(kind, "T", pts, eps),
                        check_quasi_periodicity(kind, 1, 2, 0, samples=pts, eps=eps))]


def test_law_suite_shares_image_values_exactly(monkeypatch):
    # every law check reads its values from one table entry per argument
    # list, which holds all four kinds: a suite makes one tuple call per
    # sample and list, and every report equals, float for float, the one
    # from evaluating both sides directly.  Each later suite moves one
    # sample in place in one of Re x, Im x, Re t, Im t, Re tau, Im tau, and
    # must evaluate every list afresh: an entry whose key missed that part
    # would serve the old values, which still satisfy the laws
    monkeypatch.setattr(theta, "_LAW_VALUES", {})
    calls = []
    numeric = theta.theta_numeric

    def spy(kinds, t, tau, *args):
        calls.append(kinds)
        return numeric(kinds, t, tau, *args)

    monkeypatch.setattr(theta, "theta_numeric", spy)
    rng = random.Random(97)
    pts = [(complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1)),
            complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05)),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))) for _ in range(40)]
    first = _law_suite(pts, 1e-9)
    assert first == _direct_law_reports(pts, 1e-9)
    assert all(rep.passed for rep in first)
    assert calls == [KINDS] * 5 * len(pts)
    del calls[:]
    assert _law_suite(pts, 1e-9) == first and not calls
    moves = ((1e-3, 0, 0), (1e-3j, 0, 0), (0, 1e-3, 0), (0, 1e-3j, 0), (0, 0, 1e-3),
             (0, 0, 1e-3j))
    for i, (dx, dt, dtau) in enumerate(moves):
        x, t, tau = pts[17 + i]
        pts[17 + i] = (x + dx, t + dt, tau + dtau)  # in place: the same list object
        del calls[:]
        moved = _law_suite(pts, 1e-9)
        assert len(calls) == 5 * len(pts), (dx, dt, dtau)
        assert moved == _direct_law_reports(pts, 1e-9), (dx, dt, dtau)
        assert all(rep.passed for rep in moved)
    assert len(theta._LAW_VALUES) <= theta._LAW_VALUES_KEPT


def test_law_checkers_reject_an_empty_sample_set():
    for samples in (0, []):
        with pytest.raises(ValueError, match="no samples"):
            check_modular_ST(ThetaKind.Theta, "S", samples=samples)
        with pytest.raises(ValueError, match="no samples"):
            check_quasi_periodicity(ThetaKind.Theta, 1, 2, 0, samples=samples)


def _law_arguments(x, t, tau):
    """The five (t, tau) at which the law suite evaluates each kind."""
    return [(t / tau, -1 / tau), (t, tau + 1), (t, tau), (x + (t + 2 * tau), tau), (x + t, tau)]


def _assert_tuple_call_matches(kinds, t, tau, eps=1e-12):
    """The tuple call returns the single-kind values float for float, or
    raises where one of them raises; whether it returned."""
    try:
        singles = [theta_numeric(kind, t, tau, eps) for kind in kinds]
    except NonconvergentDomain:
        with pytest.raises(NonconvergentDomain):
            theta_numeric(kinds, t, tau, eps)
        return False
    got = theta_numeric(kinds, t, tau, eps)
    assert isinstance(got, tuple) and len(got) == len(kinds)
    for kind, value, single in zip(kinds, got, singles):
        assert (value.real, value.imag) == (single.real, single.imag), (kind, t, tau)
    return True


def test_tuple_call_equals_single_kind_calls():
    # a tuple of kinds returns each kind's single-kind value float for float:
    # over the law suite's arguments, at input zeros (one kind 0, the others
    # evaluated), at Re t = 1e12, at points that take 0 to 3 S-steps, and for
    # 1-tuples and permuted orders
    rng = random.Random(101)
    orders = [KINDS, KINDS[::-1], (ThetaKind.Theta2, ThetaKind.Theta, ThetaKind.Theta3)]
    orders += [(kind,) for kind in KINDS]
    for _ in range(300):
        x = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1))
        t = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.05, 0.05))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
        for arg in _law_arguments(x, t, tau):
            assert _assert_tuple_call_matches(KINDS, *arg)
        assert _assert_tuple_call_matches(rng.choice(orders), t, tau)
    tau = 0.3 + 0.7j
    zeros = [(ThetaKind.Theta, 3), (ThetaKind.Theta1, 1.5), (ThetaKind.Theta1, -0.5),
             (ThetaKind.Theta2, tau / 2), (ThetaKind.Theta2, 2 - tau / 2),
             (ThetaKind.Theta3, 0.5 + tau / 2), (ThetaKind.Theta3, -0.5 - tau / 2)]
    for kind, t in zeros:
        values = theta_numeric(KINDS, t, tau)
        assert values[KINDS.index(kind)] == 0, (kind, t)
        assert sum(value != 0 for value in values) == 3, (kind, t)
        _assert_tuple_call_matches(KINDS, t, tau)
        _assert_tuple_call_matches((kind,), t, tau)
    for _ in range(20):
        t = complex(1e12 + rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.4))
        assert _assert_tuple_call_matches(KINDS, t, tau)
    # Im tau down to 0.002 takes three S-steps and more
    returned = {}
    for _ in range(400):
        t = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-2.7, 0.2))
        steps = len(theta._reduce(t, tau)[1])
        for eps in (1e-12, 1e-9):
            returned[steps] = returned.get(steps, 0) + _assert_tuple_call_matches(KINDS, t, tau, eps)
    assert all(returned.get(steps, 0) >= 10 for steps in range(4)), returned


def test_tuple_call_raises_where_any_kind_raises():
    # at 950i theta(0.3) underflows while theta2 and theta3 are about 1: every
    # tuple holding theta raises, and so does the law check that reads it
    assert abs(theta_numeric(ThetaKind.Theta3, 0.3, 950j) - 1) < 1e-12
    for kinds in (KINDS, (ThetaKind.Theta3, ThetaKind.Theta), (ThetaKind.Theta,)):
        with pytest.raises(NonconvergentDomain):
            theta_numeric(kinds, 0.3, 950j)
    assert theta_numeric((ThetaKind.Theta2, ThetaKind.Theta3), 0.3, 950j) == (
        theta_numeric(ThetaKind.Theta2, 0.3, 950j), theta_numeric(ThetaKind.Theta3, 0.3, 950j))
    with pytest.raises(ValueError, match="at least"):
        theta_numeric(KINDS, 0.3, 1j, sys.float_info.epsilon / 2)
    for tau in (0.5, 0.5 - 1j):
        with pytest.raises(NonconvergentDomain):
            theta_numeric(KINDS, 0.3, tau)
    # theta3's check at t = 0.3, tau = 950i reads theta there, which underflows
    with pytest.raises(NonconvergentDomain):
        check_modular_ST(ThetaKind.Theta3, "T", [(0j, 0.3, 950j)])
