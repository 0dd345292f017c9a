import random
from fractions import Fraction
from math import factorial

import pytest

from eqgenus.algebra import (
    AlgebraError,
    GeneratorTableMismatch,
    GradedElement,
    IntegrationTable,
    MissingTableEntry,
    NonInvertibleLeadingCoefficient,
    NonNilpotentInput,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
    _layout,
    fiber_integrate,
    graded_exp,
    graded_invert,
    series_invert,
    series_mul,
    wpoly_divexact,
    wpoly_gcd,
)


def q_int(d, n8):
    """Series with integer q-exponents given as {exp: coeff}."""
    return QSeries({8 * k: Fraction(v) for k, v in d.items()}, n8)


# -- series_mul ---------------------------------------------------------------

def test_mul_difference_of_squares():
    a = q_int({0: 1, 1: 1}, 16)
    b = q_int({0: 1, 1: -1}, 16)
    assert series_mul(a, b) == q_int({0: 1, 2: -1}, 16)


def test_mul_identity():
    a = QSeries({0: Fraction(3), 5: Fraction(-1, 2), 9: Fraction(7)}, 24)
    assert series_mul(a, QSeries.one(24)) == a


def test_mul_euler_product_prefix():
    # (1-q)(1-q^2)(1-q^3) expanded by hand
    out = q_int({0: 1}, 48)
    for n in (1, 2, 3):
        out = series_mul(out, q_int({0: 1, n: -1}, 48))
    assert out == q_int({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}, 48)


# -- series_invert ------------------------------------------------------------

def test_invert_geometric():
    a = q_int({0: 1, 1: -1}, 40)
    inv = series_invert(a)
    assert inv == q_int({k: 1 for k in range(6)}, 40)


def test_invert_monomial():
    a = QSeries({1: Fraction(1)}, 16)
    inv = series_invert(a)
    assert inv.c == {-1: Fraction(1)}
    assert series_mul(a, inv).c == {0: Fraction(1)}


def test_invert_geometric_in_w():
    # invert(1 - q z) over WLaurentRational, z = w^2
    z = WLaurentRational.w(2)
    a = QSeries({0: WLaurentRational.one(), 8: -z}, 32)
    inv = series_invert(a)
    for n in range(5):
        assert inv.c.get(8 * n, WLaurentRational.zero()) == z ** n


def test_invert_zero_raises():
    with pytest.raises(NonInvertibleLeadingCoefficient):
        series_invert(QSeries.zero(8))


def test_invert_noninvertible_graded_leading():
    gens = (("x", 2),)
    x = GradedElement.generator(gens, 4, "x")
    with pytest.raises(NonInvertibleLeadingCoefficient):
        series_invert(QSeries({0: x}, 8))


def test_invert_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        n8 = rng.randrange(4, 20)
        coeffs = {0: Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))}
        for k in range(1, n8 + 1):
            if rng.random() < 0.4:
                coeffs[k] = Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3]))
        a = QSeries(coeffs, n8)
        prod = series_mul(a, series_invert(a))
        assert prod.c == {0: Fraction(1)}


# -- ring axioms on random samples --------------------------------------------

def _rand_series(rng, n8=12):
    return QSeries({k: Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3]))
                    for k in range(n8 + 1) if rng.random() < 0.5}, n8)


def test_series_ring_axioms():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (_rand_series(rng) for _ in range(3))
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, b) == series_mul(b, a)
        lhs = series_mul(a, b + c)
        rhs = series_mul(a, b) + series_mul(a, c)
        assert lhs == rhs


def _rand_wrat(rng):
    num = WLaurentPoly({rng.randrange(-3, 4): rng.randrange(-4, 5)
                        for _ in range(rng.randrange(1, 4))})
    den = WLaurentPoly({k: rng.randrange(-3, 4) for k in range(rng.randrange(1, 3) + 1)})
    if not den:
        den = WLaurentPoly.one()
    if not num:
        num = WLaurentPoly.w(-1)
    return WLaurentRational(num, den)


def test_wrational_field_axioms():
    rng = random.Random(13)
    for _ in range(40):
        a, b, c = (_rand_wrat(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == WLaurentRational.one()
        # the shared power routine: x ** n is the n-fold product on every
        # carrier, and a negative power of a rational function inverts it
        g = GradedElement(GENS, 4, {(0, 0): a, (1, 0): b, (1, 1): c})
        for x, one in ((a.num, WLaurentPoly.one()), (a, WLaurentRational.one()),
                       (g, g.one_like())):
            prod = one
            for n in range(6):
                assert x ** n == prod, (x, n)
                prod = prod * x
        if a:
            for n in range(1, 6):
                assert a ** -n == a.inverse() ** n


def test_wrational_canonical_reduction():
    rng = random.Random(17)
    for _ in range(60):
        a = _rand_wrat(rng)
        b = _rand_wrat(rng)
        if not b:
            continue
        # a/b in two presentations reduces to one canonical form
        junk = _rand_wrat(rng)
        if not junk:
            junk = WLaurentRational.one()
        lhs = a * b.inverse()
        rhs = (a * junk) * (b * junk).inverse()
        assert lhs == rhs
        # equality iff cross multiplication is the zero polynomial
        assert (lhs.num * rhs.den - rhs.num * lhs.den) == WLaurentPoly.zero()


def test_wrational_normal_form_shape():
    r = WLaurentRational(WLaurentPoly({1: 2, -1: -2}), WLaurentPoly({2: -4, 0: 4}))
    # den normalized: low exponent 0, positive leading coefficient, and no
    # factor of positive degree or integer content shared with num
    assert r.den.low == 0
    assert r.den.c[r.den.high] > 0
    assert r.num.c == {-1: -1} and r.den.c == {0: 2}
    assert r == WLaurentRational(WLaurentPoly({-1: -1}), WLaurentPoly.const(2))
    assert str(r) == "-1/2*w^-1" and r == WLaurentRational.w(-1) * Fraction(-1, 2)


def test_wpoly_gcd_basic():
    a = WLaurentPoly({0: 1, 2: -1})          # 1 - w^2 up to sign
    b = WLaurentPoly({1: 1, 2: -1})          # w - w^2
    g = wpoly_gcd(a, b)
    # common factor (w - 1) up to unit/sign
    assert g.degree_span() == 1


# -- carrier properties: int coefficients, canonical forms ---------------------

def _rand_laurent(rng, lo=-3, hi=3):
    return WLaurentPoly({e: rng.randrange(-6, 7) for e in range(lo, hi + 1) if rng.random() < 0.6})


def _exact_types(p):
    return {type(v) for v in p.c.values()}


def test_wpoly_takes_int_coefficients_only():
    # a rational coefficient is a WLaurentRational's business: it raises
    # here, on construction and in arithmetic, and never rounds
    with pytest.raises(TypeError):
        WLaurentPoly({0: 1, 1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        WLaurentPoly.const(Fraction(6, 3))
    with pytest.raises(TypeError):
        WLaurentPoly.one() * Fraction(1, 2)
    # exact division runs over Z: (1 + w) / (3 + 3w) = 1/3 is no integer
    # polynomial, and the same pair as a rational function prints 1/3
    a, b = WLaurentPoly({0: 1, 1: 1}), WLaurentPoly({0: 3, 1: 3})
    with pytest.raises(AlgebraError):
        wpoly_divexact(a, b)
    assert wpoly_divexact(b, a) == 3
    assert str(WLaurentRational(a, b)) == "1/3"


def test_integer_inputs_never_yield_float():
    rng = random.Random(41)
    for _ in range(60):
        a, b = _rand_laurent(rng), _rand_laurent(rng)
        if not a or not b:
            continue
        q = wpoly_divexact(a * b, b)
        assert q == a and _exact_types(q) <= {int}
        r = WLaurentRational(a, b)
        assert _exact_types(r.num) <= {int}
        assert _exact_types(r.den) <= {int}
        assert r.num * b == a * r.den
    # thirds are inexact in binary floating point, so a quotient of two ints
    # taken with "/" shows here: a constant denominator and a denominator
    # with content 3, each kept over the ints and printed as a rational
    c = WLaurentRational(WLaurentPoly({0: 2}), WLaurentPoly({0: 3}))
    assert c.num.c == {0: 2} and c.den.c == {0: 3}
    assert str(c) == "2/3" and c.constant() == Fraction(2, 3)
    r = WLaurentRational(WLaurentPoly({0: 1}), WLaurentPoly({0: 3, 2: 6}))
    assert r.num.c == {0: 1} and r.den.c == {0: 3, 2: 6}
    assert str(r) == "(1/3) / (2*w^2 + 1)"


def _sympy_laurent(sympy, w, p):
    return sum((sympy.Rational(v.numerator, v.denominator) * w ** e for e, v in p.c.items()),
               sympy.Integer(0))


def test_wrational_canonical_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        # integer contents 1..6 on num and den make the quotient rational
        common = _rand_laurent(rng, -2, 1)
        num = _rand_laurent(rng, -3, 2) * common * rng.randrange(1, 7)
        den = _rand_laurent(rng, -2, 3) * common * rng.randrange(1, 7)
        if not num or not den:
            continue
        r = WLaurentRational(num, den)
        p, q = sympy.fraction(sympy.cancel(_sympy_laurent(sympy, w, num)
                                           / _sympy_laurent(sympy, w, den)))
        # powers of w are units: strip them, then scale p/q to integer
        # coefficients with no common content and q leading positive
        qp = sympy.Poly(q, w)
        qp = sympy.Poly(sympy.expand(q / w ** min(m for (m,) in qp.monoms())), w, domain="QQ")
        coeffs = sympy.Poly(p, w, domain="QQ").coeffs() + qp.coeffs()
        scale = sympy.Rational(sympy.ilcm(*(c.q for c in coeffs)), sympy.igcd(*(c.p for c in coeffs)))
        qp = qp * (scale if qp.LC() > 0 else -scale)
        assert sympy.Poly(_sympy_laurent(sympy, w, r.den), w, domain="QQ") == qp
        assert sympy.expand(_sympy_laurent(sympy, w, r.num) * q
                            - p * _sympy_laurent(sympy, w, r.den)) == 0
        checked += 1
    assert checked >= 40


def test_invert_roundtrip_negative_low_exponent():
    rng = random.Random(47)
    for _ in range(25):
        n8 = rng.randrange(6, 16)
        low = -rng.randrange(1, 7)
        p, q = rng.choice([(1, 1), (-1, 1), (2, 1), (1, 3)])
        coeffs = {low: WLaurentRational(WLaurentPoly.const(p), WLaurentPoly.const(q))}
        for k in range(low + 1, n8 + 1):
            if rng.random() < 0.4:
                coeffs[k] = WLaurentRational(_rand_laurent(rng, -2, 2),
                                             WLaurentPoly.const(rng.randrange(1, 3)))
        a = QSeries({k: v for k, v in coeffs.items() if v}, n8)
        inv = series_invert(a)
        assert inv.low == -low and inv.n8 == n8 - 2 * low
        prod = series_mul(a, inv)
        assert prod.n8 == n8 - low
        assert prod.c == {0: WLaurentRational.one()}
        assert series_mul(inv, a) == prod


# -- graded elements ----------------------------------------------------------

GENS = (("x", 2), ("y", 2))


def test_graded_cap_truncation():
    x = GradedElement.generator(GENS, 2, "x")
    assert x * x == GradedElement.zero(GENS, 2)


def test_graded_identity_and_binomial():
    x = GradedElement.generator(GENS, 4, "x")
    y = GradedElement.generator(GENS, 4, "y")
    one = GradedElement.scalar(GENS, 4, Fraction(1))
    a = x + y * Fraction(2)
    assert a * one == a
    sq = (x + y) * (x + y)
    assert sq == GradedElement(GENS, 4, {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)})


def test_graded_table_mismatch():
    x = GradedElement.generator(GENS, 4, "x")
    z = GradedElement.generator((("z", 2),), 4, "z")
    with pytest.raises(GeneratorTableMismatch):
        x * z


def test_graded_exp():
    x = GradedElement.generator(GENS, 4, "x")
    assert graded_exp(GradedElement.zero(GENS, 4)) == GradedElement.scalar(GENS, 4, Fraction(1))
    e = graded_exp(x)
    assert e == GradedElement(GENS, 4, {(0, 0): Fraction(1), (1, 0): Fraction(1), (2, 0): Fraction(1, 2)})


def test_graded_exp_additivity():
    rng = random.Random(23)
    cap = 8
    gens = (("x", 2), ("b", 2))
    for _ in range(20):
        a = GradedElement(gens, cap, {(1, 0): Fraction(rng.randrange(-3, 4)),
                                      (0, 1): Fraction(rng.randrange(-3, 4))})
        b = GradedElement(gens, cap, {(1, 1): Fraction(rng.randrange(-3, 4)),
                                      (0, 1): Fraction(rng.randrange(-3, 4))})
        assert graded_exp(a + b) == graded_exp(a) * graded_exp(b)


def test_graded_exp_non_nilpotent():
    one = GradedElement.scalar(GENS, 4, Fraction(1))
    with pytest.raises(NonNilpotentInput):
        graded_exp(one)


def test_graded_invert():
    x = GradedElement.generator(GENS, 4, "x")
    one = GradedElement.scalar(GENS, 4, Fraction(1))
    u = one + x
    assert u * graded_invert(u) == one


def test_graded_subs_w_inverse_flips_every_w_coefficient():
    # Laurent-polynomial coefficients (those of the unreduced integrands)
    # flip as rational-function ones do; rational constants stay
    x = GradedElement.generator(GENS, 4, "x")
    one = GradedElement.scalar(GENS, 4, 1)
    poly = WLaurentPoly({3: 4, -1: 1})
    g = one * Fraction(5, 3) + x * poly + x * x * WLaurentRational(poly, WLaurentPoly({0: 2, 2: -2}))
    flipped = g.subs_w_inverse()
    assert flipped == (one * Fraction(5, 3) + x * WLaurentPoly({-3: 4, 1: 1})
                       + x * x * WLaurentRational(poly.subs_w_inverse(),
                                                  WLaurentPoly({0: 2, -2: -2})))
    assert flipped.subs_w_inverse() == g


# -- the dense layout, against a sparse sympy reference ------------------------

DENSE_GENS = (("a", 2), ("b", 2), ("c", 4))
DENSE_CAP = 8


def test_layout_monomials():
    lay = _layout(DENSE_GENS, DENSE_CAP)
    # (i, j, k) with 2i + 2j + 4k <= 8: 15 + 6 + 1
    assert len(lay.monos) == 22 and lay.monos[0] == (0, 0, 0)
    assert all(2 * i + 2 * j + 4 * k <= DENSE_CAP for i, j, k in lay.monos)
    assert _layout((), 0).monos == [()]


def random_element(rng, exact: bool, nilpotent=False) -> GradedElement:
    """A random coefficient on every monomial of the dense test ring."""
    def draw():
        if exact:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    terms = {m: draw() for m in _layout(DENSE_GENS, DENSE_CAP).monos}
    if nilpotent:
        terms[(0, 0, 0)] = 0
    return GradedElement(DENSE_GENS, DENSE_CAP, terms)


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "complex"])
def test_dense_ring_matches_sympy(exact):
    # sympy's sparse polynomial ring, truncated by degree after each step,
    # is the reference for product, sum, difference, inverse and exp
    rings = pytest.importorskip("sympy.polys.rings")
    domains = pytest.importorskip("sympy.polys.domains")
    dom = domains.QQ if exact else domains.CC
    R = rings.ring("a,b,c", dom)[0]

    def num(v):
        return dom(v.numerator, v.denominator) if exact else dom(v.real, v.imag)

    def ref(g: GradedElement):
        return R.from_dict({m: num(v) for m, v in g.terms.items()})

    def truncated(p):
        return {m: v for m, v in dict(p).items()
                if 2 * m[0] + 2 * m[1] + 4 * m[2] <= DENSE_CAP and v}

    def assert_matches(got: GradedElement, p):
        want = truncated(p)
        if exact:
            assert got.terms == {m: Fraction(int(v.numerator), int(v.denominator))
                                 for m, v in want.items()}
            return
        scale = 1 + max(abs(complex(v)) for v in want.values())
        for m in set(want) | set(got.terms):
            assert abs(got.terms.get(m, 0) - complex(want.get(m, 0))) < 1e-14 * scale, m

    rng = random.Random(43)
    for _ in range(20):
        a, b = random_element(rng, exact), random_element(rng, exact)
        assert_matches(a * b, ref(a) * ref(b))
        assert_matches(a + b, ref(a) + ref(b))
        assert_matches(a - b, ref(a) - ref(b))
        # the inverse times a is 1 under the cap
        assert_matches(a * graded_invert(a), R.one)
        n = random_element(rng, exact, nilpotent=True)
        want, p = R.one, R.one
        for k in range(1, DENSE_CAP // 2 + 1):
            p = R.from_dict(truncated(p * ref(n)))
            want += p * dom(1) / dom(factorial(k))
        assert_matches(graded_exp(n, Fraction if exact else float), want)


# -- fiber integration ---------------------------------------------------------

def test_fiber_integrate_projective_style():
    gens = (("x", 2), ("b", 2))
    table = IntegrationTable(("x",), 2, {(2,): Fraction(1)})
    a = GradedElement(gens, 6, {(2, 0): Fraction(3), (2, 1): Fraction(5), (1, 0): Fraction(7)})
    out = fiber_integrate(a, table)
    assert out.gens == (("b", 2),)
    assert out == GradedElement((("b", 2),), 2, {(0,): Fraction(3), (1,): Fraction(5)})


def test_fiber_integrate_degree_mismatch_annihilates():
    gens = (("x", 2),)
    table = IntegrationTable(("x",), 1, {(1,): Fraction(1)})
    one = GradedElement.scalar(gens, 2, Fraction(1))
    assert not fiber_integrate(one, table)


def test_fiber_integrate_missing_entry():
    gens = (("x", 2), ("y", 2))
    table = IntegrationTable(("x", "y"), 1, {(1, 0): Fraction(1)})
    y = GradedElement.generator(gens, 2, "y")
    with pytest.raises(MissingTableEntry):
        fiber_integrate(y, table)


def test_fiber_integrate_point():
    gens = (("b", 2),)
    table = IntegrationTable((), 0, {})
    a = GradedElement(gens, 4, {(0,): Fraction(2), (1,): Fraction(-1)})
    assert fiber_integrate(a, table) == a


def test_fiber_integrate_linear():
    rng = random.Random(29)
    gens = (("x", 2), ("b", 2))
    table = IntegrationTable(("x",), 1, {(1,): Fraction(2)})
    for _ in range(20):
        a = GradedElement(gens, 4, {(i, j): Fraction(rng.randrange(-3, 4))
                                    for i in range(3) for j in range(3)})
        b = GradedElement(gens, 4, {(i, j): Fraction(rng.randrange(-3, 4))
                                    for i in range(3) for j in range(3)})
        assert fiber_integrate(a + b, table) == fiber_integrate(a, table) + fiber_integrate(b, table)


# -- truncation bookkeeping ----------------------------------------------------

def _rand_truncated(rng) -> QSeries:
    """A series with lowest key in [-6, 3]; a quarter are empty, some with a
    truncation below q^0."""
    low = rng.randrange(-6, 4)
    if rng.random() < 0.25:
        return QSeries({}, low)
    return QSeries({k: rng.randrange(-3, 4) for k in range(low, low + rng.randrange(8))},
                   low + rng.randrange(8))


def _completion(rng, a: QSeries) -> dict:
    """One series that a stands for: a's coefficients and random ones on
    the 20 keys above its truncation, as a finite polynomial."""
    out = dict(a.c)
    out.update({k: rng.randrange(-5, 6) for k in range(a.n8 + 1, a.n8 + 21)})
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return out


def _agrees(s: QSeries, exact: dict) -> bool:
    """s claims no coefficient that differs from the exact series."""
    return all(s.c.get(k, 0) == exact.get(k, 0) for k in range(-40, s.n8 + 1))


def test_truncation_is_sound_under_random_completions():
    # every coefficient a result claims must be the same for every series
    # its operands stand for; an empty operand may start anywhere above its
    # truncation, also above a truncation below q^0
    rng = random.Random(53)
    for _ in range(1000):
        a, b = _rand_truncated(rng), _rand_truncated(rng)
        ca, cb = _completion(rng, a), _completion(rng, b)
        assert _agrees(series_mul(a, b), _poly_mul(ca, cb)), (a, b)
        assert _agrees(a + b, {k: ca.get(k, 0) + cb.get(k, 0) for k in set(ca) | set(cb)})
        assert _agrees(a.shift_q8(3), {k + 3: v for k, v in ca.items()})
        if a and a.c[a.low]:
            inv = series_invert(a)
            # A * inv = 1 up to inv.n8 + low(A) iff inv is A's inverse up to inv.n8
            assert _agrees(QSeries({0: 1}, inv.n8 + a.low), _poly_mul(ca, inv.c))


def test_truncation_propagates_min():
    a = q_int({0: 1, 1: 1}, 16)
    b = q_int({0: 1}, 8)
    assert series_mul(a, b).n8 == 8
    assert (a + b).n8 == 8


def test_shift_and_coefficient_access():
    a = q_int({0: 1}, 16).shift_q8(-3)
    assert a.c == {-3: Fraction(1)}
    assert a.n8 == 13
