"""Exact coefficient rings and truncated series arithmetic.

Everything downstream is built over four carriers:

* ``WLaurentPoly``   -- Laurent polynomials in w = z^{1/2} over the rationals,
  where z = e^{2 pi i t} is the circle character.  Integral coefficients
  are kept as ``int``, so isolated-point kernels run on Python ints, not
  ``Fraction``.
* ``WLaurentRational`` -- reduced quotients of such polynomials, the
  coefficient field for equivariant characters.
* ``GradedElement``  -- nilpotent polynomials in even-degree generators
  (Chern roots and base classes), truncated above a degree cap.
* ``QSeries``        -- truncated formal series in q^{1/8} over any of the
  above; truncation is tracked, never silent.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd as int_gcd
from typing import Callable, Iterable, Mapping

Rat = Fraction


class AlgebraError(Exception):
    """Base class for exact-arithmetic failures."""


class NonInvertibleLeadingCoefficient(AlgebraError):
    pass


class GeneratorTableMismatch(AlgebraError):
    pass


class NonNilpotentInput(AlgebraError):
    pass


class MissingTableEntry(AlgebraError):
    pass


class DegreeOutOfRange(AlgebraError):
    pass


class OffGridExponent(AlgebraError):
    """An exponent left the integer w-grid (inconsistent half-integer weights)."""


# ---------------------------------------------------------------------------
# Laurent polynomials in w


def _exact(v) -> int | Fraction:
    """v as an exact rational: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _quo(a, b) -> int | Fraction:
    """The exact quotient a / b of two rationals (``/`` on ints is float)."""
    return _exact(Fraction(a, b))


class WLaurentPoly:
    """Laurent polynomial in w with exact rational coefficients.

    Stored sparsely as exponent -> nonzero coefficient, an int when
    integral and a Fraction otherwise; exponents may be negative.  w
    stands for z^{1/2}, so the exponent counts half-powers of the circle
    character z.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, int | Fraction] | None = None):
        c: dict[int, int | Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _exact(v)
                if v:
                    c[int(e)] = v
        self.c = c

    # -- constructors

    @staticmethod
    def zero() -> "WLaurentPoly":
        return WLaurentPoly()

    @staticmethod
    def one() -> "WLaurentPoly":
        return WLaurentPoly({0: 1})

    @staticmethod
    def w(exp: int = 1, coeff=1) -> "WLaurentPoly":
        return WLaurentPoly({exp: coeff})

    @staticmethod
    def const(v) -> "WLaurentPoly":
        return WLaurentPoly({0: v})

    # -- structure

    def __bool__(self) -> bool:
        return bool(self.c)

    @property
    def low(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no lowest exponent")
        return min(self.c)

    @property
    def high(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no highest exponent")
        return max(self.c)

    def degree_span(self) -> int:
        """high - low; 0 for monomials and for the zero polynomial."""
        return (self.high - self.low) if self.c else 0

    def is_constant(self) -> bool:
        return not self.c or set(self.c) == {0}

    def constant(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.c.get(0, 0)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = WLaurentPoly.const(other)
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __neg__(self) -> "WLaurentPoly":
        return WLaurentPoly({e: -v for e, v in self.c.items()})

    def __add__(self, other) -> "WLaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = WLaurentPoly.const(other)
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        c = dict(self.c)
        for e, v in other.c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = WLaurentPoly()
        out.c = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, WLaurentPoly) else WLaurentPoly.const(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "WLaurentPoly":
        if isinstance(other, (int, Fraction)):
            f = _exact(other)
            return WLaurentPoly({e: v * f for e, v in self.c.items()})
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        c: dict[int, int | Fraction] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = WLaurentPoly()
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WLaurentPoly":
        if n < 0:
            raise ValueError("negative power of a WLaurentPoly; use WLaurentRational")
        out = WLaurentPoly.one()
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def shift(self, k: int) -> "WLaurentPoly":
        """Multiply by w^k."""
        return WLaurentPoly({e + k: v for e, v in self.c.items()})

    def subs_w_inverse(self) -> "WLaurentPoly":
        """The substitution w -> w^{-1} (t -> -t on characters)."""
        return WLaurentPoly({-e: v for e, v in self.c.items()})

    def evaluate(self, w: complex) -> complex:
        return sum(complex(v) * w ** e for e, v in self.c.items()) if self.c else 0j

    # -- presentation

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            if e == 0:
                term = str(v)
            else:
                we = "w" if e == 1 else "w^%d" % e
                if v == 1:
                    term = we
                elif v == -1:
                    term = "-" + we
                else:
                    term = "%s*%s" % (v, we)
            parts.append(term)
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return "WLaurentPoly(%s)" % self


# -- integer-polynomial gcd machinery (primitive PRS), used for reduction


def _dense_int(p: WLaurentPoly) -> list[int]:
    """Dense ascending integer coefficient list of p shifted to low exponent 0,
    with denominators cleared.  p must be nonzero."""
    lo, hi = p.low, p.high
    den = 1
    for v in p.c.values():
        den = den * v.denominator // int_gcd(den, v.denominator)
    out = [0] * (hi - lo + 1)
    for e, v in p.c.items():
        out[e - lo] = int(v * den)
    return out

def _content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = int_gcd(g, abs(x))
        if g == 1:
            break
    return g or 1

def _primitive(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a = a[:-1]
    if not a:
        return a
    g = _content(a)
    return [x // g for x in a]

def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of dense ascending integer polys (len(b) <= len(a))."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        la = a[-1]
        a = [x * lb for x in a]
        for i, bi in enumerate(b):
            a[da - db + i] -= la * bi
        while a and a[-1] == 0:
            a = a[:-1]
    return a

def wpoly_gcd(a: WLaurentPoly, b: WLaurentPoly) -> WLaurentPoly:
    """Gcd up to units, normalized primitive over Z with positive leading
    coefficient and lowest exponent 0."""
    if not a and not b:
        return WLaurentPoly.zero()
    if not a:
        return wpoly_gcd(b, b)
    if not b:
        b = a
    A = _primitive(_dense_int(a))
    B = _primitive(_dense_int(b))
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _primitive(_prem(A, B))
        A, B = B, R
    if A[-1] < 0:
        A = [-x for x in A]
    return WLaurentPoly(dict(enumerate(A)))

def wpoly_divexact(a: WLaurentPoly, b: WLaurentPoly) -> WLaurentPoly:
    """Exact division a / b; raises AlgebraError when not exact."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return WLaurentPoly.zero()
    shift = a.low - b.low
    A = {e - a.low: v for e, v in a.c.items()}
    B = {e - b.low: v for e, v in b.c.items()}
    da, db = max(A), max(B)
    if da < db:
        raise AlgebraError("inexact polynomial division")
    lb = B[db]
    q: dict[int, int | Fraction] = {}
    rem = dict(A)
    for e in range(da - db, -1, -1):
        v = rem.get(e + db, 0)
        if not v:
            continue
        qv = _quo(v, lb)
        q[e] = qv
        for eb, vb in B.items():
            s = rem.get(e + eb, 0) - qv * vb
            if s:
                rem[e + eb] = s
            else:
                rem.pop(e + eb, None)
    if rem:
        raise AlgebraError("inexact polynomial division")
    return WLaurentPoly({e + shift: v for e, v in q.items()})


class WLaurentRational:
    """Reduced rational function num/den in w.

    Canonical form: den is a primitive integer polynomial with lowest
    exponent 0 and positive leading coefficient, and gcd(num, den) is a
    unit.  num may carry negative w-exponents.  Equality of canonical
    forms is literal equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: WLaurentPoly, den: WLaurentPoly | None = None, *, _reduced=False):
        if den is None:
            den = WLaurentPoly.one()
        if not den:
            raise ZeroDivisionError("zero denominator")
        if _reduced:
            self.num, self.den = num, den
            return
        if not num:
            self.num, self.den = WLaurentPoly.zero(), WLaurentPoly.one()
            return
        if den.is_constant():
            f = den.constant()
            self.num = num * _quo(1, f)
            self.den = WLaurentPoly.one()
            return
        g = wpoly_gcd(num, den)
        if g.degree_span() > 0:
            num = wpoly_divexact(num, g)
            den = wpoly_divexact(den, g)
        # den: shift lowest exponent to 0, make primitive over Z, lc > 0
        lo = den.low
        if lo:
            den = den.shift(-lo)
            num = num.shift(-lo)
        # den currently has rational coeffs; rescale so den matches its
        # primitive integer image with positive leading coefficient
        prim = _primitive(_dense_int(den))
        if prim[-1] < 0:
            prim = [-x for x in prim]
        newden = WLaurentPoly(dict(enumerate(prim)))
        # num must be scaled by newden/den (a constant)
        e, v = next(iter(newden.c.items()))
        self.num = num * _quo(v, den.c[e])
        self.den = newden

    # -- constructors / coercion

    @staticmethod
    def zero() -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.zero())

    @staticmethod
    def one() -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.one())

    @staticmethod
    def const(v) -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.const(v))

    @staticmethod
    def w(exp: int = 1, coeff=1) -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.w(exp, coeff))

    @staticmethod
    def _coerce(x) -> "WLaurentRational | None":
        if isinstance(x, WLaurentRational):
            return x
        if isinstance(x, WLaurentPoly):
            return WLaurentRational(x)
        if isinstance(x, (int, Fraction)):
            return WLaurentRational.const(x)
        return None

    # -- predicates

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.den.is_constant() and self.num.is_constant()

    def constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.num.constant()

    # -- ring ops

    def __eq__(self, other) -> bool:
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return WLaurentRational(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return WLaurentRational(self.num + o.num, self.den)
        return WLaurentRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        return WLaurentRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = WLaurentRational._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = WLaurentRational.one()
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def inverse(self) -> "WLaurentRational":
        if not self.num:
            raise NonInvertibleLeadingCoefficient("inverse of zero rational function")
        return WLaurentRational(self.den, self.num)

    def subs_w_inverse(self) -> "WLaurentRational":
        return WLaurentRational(self.num.subs_w_inverse(), self.den.subs_w_inverse())

    def evaluate(self, w: complex) -> complex:
        d = self.den.evaluate(w)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at w=%r" % (w,))
        return self.num.evaluate(w) / d

    def den_degree(self) -> int:
        """Degree span of the reduced denominator (0 iff pole-free)."""
        return self.den.degree_span()

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "WLaurentRational(%s)" % self


# ---------------------------------------------------------------------------
# Graded (nilpotent) elements


def _term_degree(exps: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    return sum(e * d for e, d in zip(exps, degrees))


class GradedElement:
    """Polynomial in even-degree nilpotent generators, truncated at a cap.

    ``gens`` is a tuple of (name, degree) pairs shared by every element of
    the same ring; ``terms`` maps exponent tuples to coefficients in an
    arbitrary commutative ring (Fraction, WLaurentRational, or complex for
    the numeric path).  Terms above the cap are discarded on construction.
    """

    __slots__ = ("gens", "cap", "terms")

    def __init__(self, gens: tuple[tuple[str, int], ...], cap: int, terms: Mapping[tuple[int, ...], object] | None = None):
        self.gens = tuple((str(n), int(d)) for n, d in gens)
        self.cap = int(cap)
        degrees = tuple(d for _, d in self.gens)
        t: dict[tuple[int, ...], object] = {}
        if terms:
            for exps, v in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.gens):
                    raise GeneratorTableMismatch("exponent tuple length %d != %d generators" % (len(exps), len(self.gens)))
                if _term_degree(exps, degrees) > self.cap:
                    continue
                if v == 0:
                    continue
                t[exps] = v
        self.terms = t

    # -- constructors

    @staticmethod
    def zero(gens, cap) -> "GradedElement":
        return GradedElement(gens, cap)

    @staticmethod
    def scalar(gens, cap, v) -> "GradedElement":
        z = (0,) * len(gens)
        return GradedElement(gens, cap, {z: v})

    @staticmethod
    def generator(gens, cap, name) -> "GradedElement":
        names = [n for n, _ in gens]
        if name not in names:
            raise GeneratorTableMismatch("unknown generator %r" % name)
        i = names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(gens)))
        return GradedElement(gens, cap, {e: Fraction(1)})

    def one_like(self) -> "GradedElement":
        return GradedElement.scalar(self.gens, self.cap, Fraction(1))

    # -- structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scalar_part(self):
        return self.terms.get((0,) * len(self.gens), 0)

    def _check(self, other: "GradedElement"):
        if self.gens != other.gens or self.cap != other.cap:
            raise GeneratorTableMismatch("mismatched generator tables or caps")

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            other = GradedElement.scalar(self.gens, self.cap, other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.gens == other.gens and self.cap == other.cap and self.terms == other.terms

    def __neg__(self):
        return GradedElement(self.gens, self.cap, {e: -v for e, v in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or (not isinstance(other, GradedElement) and WLaurentRational._coerce(other) is not None):
            other = GradedElement.scalar(self.gens, self.cap, other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for e, v in other.terms.items():
            if e in t:
                s = t[e] + v
                if s == 0:
                    del t[e]
                else:
                    t[e] = s
            else:
                t[e] = v
        out = GradedElement(self.gens, self.cap)
        out.terms = t
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GradedElement):
            return self + (-other)
        return self + (-Fraction(other) if isinstance(other, int) else -other)

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            # scalar from the coefficient ring
            return GradedElement(self.gens, self.cap,
                                 {e: v * other for e, v in self.terms.items()})
        self._check(other)
        degrees = tuple(d for _, d in self.gens)
        cap = self.cap
        t: dict[tuple[int, ...], object] = {}
        for e1, v1 in self.terms.items():
            d1 = _term_degree(e1, degrees)
            for e2, v2 in other.terms.items():
                if d1 + _term_degree(e2, degrees) > cap:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                p = v1 * v2
                if e in t:
                    s = t[e] + p
                    if s == 0:
                        del t[e]
                    else:
                        t[e] = s
                elif p != 0:
                    t[e] = p
        out = GradedElement(self.gens, self.cap)
        out.terms = t
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        out = self.one_like()
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def scale(self, v) -> "GradedElement":
        return self * v

    def map_coefficients(self, f: Callable) -> "GradedElement":
        return GradedElement(self.gens, self.cap, {e: f(v) for e, v in self.terms.items()})

    def subs_w_inverse(self) -> "GradedElement":
        return self.map_coefficients(lambda v: v.subs_w_inverse() if isinstance(v, WLaurentRational) else v)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [n for n, _ in self.gens]
        parts = []
        for e in sorted(self.terms):
            mon = "*".join(("%s" % n if k == 1 else "%s^%d" % (n, k)) for n, k in zip(names, e) if k)
            v = self.terms[e]
            vs = str(v)
            if mon:
                parts.append("(%s)*%s" % (vs, mon) if ("+" in vs or " " in vs) else "%s*%s" % (vs, mon))
            else:
                parts.append(vs)
        return " + ".join(parts)

    def __repr__(self):
        return "GradedElement(%s)" % self


def graded_exp(a: GradedElement) -> GradedElement:
    """exp of a nilpotent element: finite sum of a^k / k!."""
    if a.scalar_part() != 0:
        raise NonNilpotentInput("graded_exp needs a vanishing degree-0 term")
    out = a.one_like()
    term = a.one_like()
    for k in range(1, a.cap // 2 + 1):
        term = term * a
        if not term:
            break
        out = out + term * Fraction(1, factorial(k))
    return out


def graded_invert(a: GradedElement) -> GradedElement:
    """Inverse of scalar + nilpotent; raises when the scalar part is not a unit."""
    s = a.scalar_part()
    if s == 0:
        raise NonInvertibleLeadingCoefficient("graded element with zero scalar part")
    sinv = ring_inverse(s)
    nil = (a - GradedElement.scalar(a.gens, a.cap, s)) * sinv
    # geometric series sum (-nil)^k, finite by nilpotency
    out = a.one_like()
    term = a.one_like()
    for _ in range(a.cap // 2 + 1):
        term = term * (-nil)
        if not term:
            break
        out = out + term
    return out * sinv


# ---------------------------------------------------------------------------
# Fiber integration


class IntegrationTable:
    """Linear functional on top fiber-degree monomials.

    ``entries`` maps exponent tuples over ``fiber_gens`` of total degree
    2*k_alpha to rational values.  For an isolated point (k_alpha = 0,
    no fiber generators) the table is empty and integration is the
    identity on base classes.
    """

    __slots__ = ("fiber_gens", "k_alpha", "entries")

    def __init__(self, fiber_gens: Iterable[str], k_alpha: int, entries: Mapping[tuple[int, ...], Fraction] | None = None):
        self.fiber_gens = tuple(fiber_gens)
        self.k_alpha = int(k_alpha)
        self.entries = {tuple(int(x) for x in k): Fraction(v) for k, v in (entries or {}).items()}


def fiber_integrate(a: GradedElement, table: IntegrationTable) -> GradedElement:
    """Push forward along the fiber: apply the table to the fiber part of
    each term, annihilating everything off the top fiber degree."""
    fiber_idx = []
    base_idx = []
    for i, (n, _) in enumerate(a.gens):
        (fiber_idx if n in table.fiber_gens else base_idx).append(i)
    # order the fiber exponents as the table expects
    name_to_pos = {a.gens[i][0]: i for i in fiber_idx}
    degrees = tuple(d for _, d in a.gens)
    base_gens = tuple(a.gens[i] for i in base_idx)
    base_cap = a.cap - 2 * table.k_alpha
    out_terms: dict[tuple[int, ...], object] = {}
    for exps, v in a.terms.items():
        fdeg = sum(exps[i] * degrees[i] for i in fiber_idx)
        if fdeg != 2 * table.k_alpha:
            continue
        # a table generator absent from the element's table has exponent 0
        key = tuple(exps[name_to_pos[n]] if n in name_to_pos else 0 for n in table.fiber_gens)
        if table.k_alpha == 0:
            weight = Fraction(1)
        else:
            if key not in table.entries:
                raise MissingTableEntry("no table entry for fiber monomial %r" % (key,))
            weight = table.entries[key]
        be = tuple(exps[i] for i in base_idx)
        w = v * weight
        if be in out_terms:
            s = out_terms[be] + w
            if s == 0:
                del out_terms[be]
            else:
                out_terms[be] = s
        elif w != 0:
            out_terms[be] = w
    return GradedElement(base_gens, base_cap, out_terms)


# ---------------------------------------------------------------------------
# Truncated q-series on the (1/8)Z exponent grid


def ring_inverse(c):
    """Inverse of a coefficient in whichever ring it lives in."""
    if isinstance(c, WLaurentRational):
        return c.inverse()
    if isinstance(c, GradedElement):
        return graded_invert(c)
    if isinstance(c, (int, Fraction)):
        if c == 0:
            raise NonInvertibleLeadingCoefficient("zero coefficient")
        return Fraction(1) / Fraction(c)
    if isinstance(c, complex):
        return 1 / c
    raise TypeError("no inverse rule for %r" % type(c))


class QSeries:
    """Truncated series in q^{1/8}: key n stands for q^{n/8}.

    ``n8`` is the truncation order: coefficients with key > n8 are unknown.
    Arithmetic propagates the tightest sound truncation, which coincides
    with min(a.n8, b.n8) whenever the lowest exponents are >= 0.
    """

    __slots__ = ("c", "n8")

    def __init__(self, coeffs: Mapping[int, object] | None, n8: int):
        self.n8 = int(n8)
        c: dict[int, object] = {}
        if coeffs:
            for e, v in coeffs.items():
                e = int(e)
                if e > self.n8:
                    continue
                if v == 0:
                    continue
                c[e] = v
        self.c = c

    @staticmethod
    def zero(n8: int) -> "QSeries":
        return QSeries({}, n8)

    @staticmethod
    def one(n8: int, one_coeff=Fraction(1)) -> "QSeries":
        return QSeries({0: one_coeff}, n8)

    @staticmethod
    def monomial(n8key: int, coeff, n8: int) -> "QSeries":
        return QSeries({n8key: coeff}, n8)

    def __bool__(self):
        return bool(self.c)

    @property
    def low(self) -> int:
        if not self.c:
            raise ValueError("zero series has no lowest exponent")
        return min(self.c)

    def _low0(self) -> int:
        return min(self.c) if self.c else 0

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.n8 == other.n8 and self.c == other.c

    def agrees_with(self, other: "QSeries", up_to: int | None = None) -> bool:
        n = min(self.n8, other.n8)
        if up_to is not None:
            n = min(n, up_to)
        keys = set(self.c) | set(other.c)
        for k in keys:
            if k > n:
                continue
            if self.c.get(k, 0) != other.c.get(k, 0):
                return False
        return True

    def __neg__(self):
        out = QSeries({}, self.n8)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n8 = min(self.n8, other.n8)
        c = {e: v for e, v in self.c.items() if e <= n8}
        for e, v in other.c.items():
            if e > n8:
                continue
            if e in c:
                s = c[e] + v
                if s == 0:
                    del c[e]
                else:
                    c[e] = s
            else:
                c[e] = v
        out = QSeries({}, n8)
        out.c = c
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return series_mul(self, other)

    def scale(self, v) -> "QSeries":
        """Multiply every coefficient by a fixed ring element."""
        out = QSeries({}, self.n8)
        out.c = {}
        for e, cv in self.c.items():
            p = cv * v
            if p != 0:
                out.c[e] = p
        return out

    def shift_q8(self, k: int) -> "QSeries":
        """Multiply by q^{k/8}."""
        out = QSeries({}, self.n8 + k)
        out.c = {e + k: v for e, v in self.c.items()}
        return out

    def truncate(self, n8: int) -> "QSeries":
        n8 = min(n8, self.n8)
        return QSeries({e: v for e, v in self.c.items() if e <= n8}, n8)

    def map_coefficients(self, f: Callable) -> "QSeries":
        c = {}
        for e, v in self.c.items():
            w = f(v)
            if w != 0:
                c[e] = w
        out = QSeries({}, self.n8)
        out.c = c
        return out

    def coefficient(self, n8key: int):
        if n8key > self.n8:
            raise DegreeOutOfRange("coefficient q^{%d/8} beyond truncation %d/8" % (n8key, self.n8))
        return self.c.get(n8key, 0)

    def __str__(self):
        if not self.c:
            return "O(q^{%s/8})" % (self.n8 + 1)
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append("(%s)" % v)
            else:
                parts.append("(%s)*q^{%s/8}" % (v, e))
        return " + ".join(parts) + " + O(q^{%d/8})" % (self.n8 + 1)

    def __repr__(self):
        return "QSeries(%s)" % self


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Exact Cauchy product, truncated where coefficients stay determined."""
    la, lb = a._low0(), b._low0()
    n8 = min(a.n8 + lb, b.n8 + la)
    c: dict[int, object] = {}
    for e1, v1 in a.c.items():
        for e2, v2 in b.c.items():
            e = e1 + e2
            if e > n8:
                continue
            p = v1 * v2
            if e in c:
                s = c[e] + p
                if s == 0:
                    del c[e]
                else:
                    c[e] = s
            elif p != 0:
                c[e] = p
    out = QSeries({}, n8)
    out.c = c
    return out


def series_invert(a: QSeries) -> QSeries:
    """Inverse series: a * series_invert(a) = 1 up to truncation.

    The lowest stored coefficient must be invertible in the coefficient
    ring; the result's lowest exponent is the negation of a's.
    """
    if not a.c:
        raise NonInvertibleLeadingCoefficient("cannot invert the zero series")
    la = a.low
    order = a.n8 - la  # unit-part coefficients are known up to this order
    a0 = a.c[la]
    try:
        a0i = ring_inverse(a0)
    except ZeroDivisionError:
        raise NonInvertibleLeadingCoefficient("leading coefficient is zero")
    # unit part u_k = a_{la+k}; invert by the standard recurrence
    u = {e - la: v for e, v in a.c.items()}
    binv: dict[int, object] = {0: a0i}
    for n in range(1, order + 1):
        acc = None
        for k, uk in u.items():
            if 0 < k <= n and (n - k) in binv:
                t = uk * binv[n - k]
                acc = t if acc is None else acc + t
        if acc is not None and acc != 0:
            binv[n] = -(a0i * acc) if isinstance(a0i, (int, Fraction)) else -(acc * a0i)
    out = QSeries({}, a.n8 - 2 * la)
    out.c = {e - la: v for e, v in binv.items() if v != 0 and e - la <= a.n8 - 2 * la}
    return out

