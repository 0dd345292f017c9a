"""Exact coefficient rings and truncated series arithmetic.

Everything downstream is built over four carriers:

* ``WLaurentPoly``   -- Laurent polynomials in w = z^{1/2} over the integers
  (z = e^{2 pi i t} the circle character), the carrier of every exact
  kernel: the integrands are built on scaled roots with their 1/k!
  divided out exactly (``divided_series``).
* ``WLaurentRational`` -- reduced quotients num/den of such polynomials,
  a rational constant included, the coefficient field for equivariant
  characters; a ``Fraction`` appears only where one prints.
* ``GradedElement``  -- nilpotent polynomials in even-degree generators
  (Chern roots and base classes), truncated above a degree cap and
  stored densely over the ring's monomials; the same class carries the
  exact coefficients and the complex ones of the numeric path.
* ``QSeries``        -- truncated formal series in q^{1/8} over any of the
  above; truncation is tracked, never silent.

All values are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, gcd as int_gcd
from typing import Callable, Iterable, Mapping


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


# -- the sparse rules of both dict carriers (WLaurentPoly, QSeries): each
# maps exponent -> nonzero coefficient, and a q-series passes its
# truncation as ``top`` (keys above it are unknown and never stored)


def _sparse_add(a: dict, b: dict, top: int | None = None) -> dict:
    """a + b, keeping the keys <= top (all of them when top is None)."""
    c = dict(a) if top is None else {e: v for e, v in a.items() if e <= top}
    for e, v in b.items():
        if top is not None and e > top:
            continue
        if e in c:
            s = c[e] + v
            if s:
                c[e] = s
            else:
                del c[e]
        else:
            c[e] = v
    return c


def _sparse_mul(a: dict, b: dict, top: int | None = None) -> dict:
    """The convolution a * b, keeping the keys <= top: each row is filtered
    once, and an untruncated product loops outside over the shorter one."""
    a, b = (b, a) if top is None and len(a) > len(b) else (a, b)
    c = {}
    get = c.get
    row = b.items()
    for e1, v1 in a.items():
        if top is not None:
            row = [(e2, v2) for e2, v2 in b.items() if e1 + e2 <= top]
        for e2, v2 in row:
            e = e1 + e2
            p = v1 * v2
            s = get(e)
            if s is None:
                if p:
                    c[e] = p
            else:
                s = s + p
                if s:
                    c[e] = s
                else:
                    del c[e]
    return c


def _power(x, n: int, one):
    """x ** n for n >= 0 by square-and-multiply, from the unit ``one``."""
    if n < 0:
        raise ValueError("negative power %d of a %s" % (n, type(x).__name__))
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class WLaurentPoly:
    """Laurent polynomial in w with integer coefficients.

    Stored sparsely as exponent -> nonzero int; exponents may be negative.
    w stands for z^{1/2}, so the exponent counts half-powers of the circle
    character z.  Any other coefficient, a rational one too, raises
    ``TypeError``: rationals live in ``WLaurentRational``.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(v) is not int:
                    raise TypeError("coefficient %r of w^%s is not an int" % (v, e))
                if v:
                    c[int(e)] = v
        self.c = c

    @staticmethod
    def _raw(c: dict) -> "WLaurentPoly":
        """The polynomial over c, a dict of nonzero ints that it takes over."""
        out = object.__new__(WLaurentPoly)
        out.c = c
        return out

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

    def constant(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.c.get(0, 0)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = WLaurentPoly.const(other)
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __neg__(self) -> "WLaurentPoly":
        return WLaurentPoly._raw({e: -v for e, v in self.c.items()})

    def __add__(self, other) -> "WLaurentPoly":
        if isinstance(other, int):
            other = WLaurentPoly.const(other)
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        return WLaurentPoly._raw(_sparse_add(self.c, other.c))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "WLaurentPoly":
        if isinstance(other, int):
            return WLaurentPoly._raw({e: v * other for e, v in self.c.items()} if other else {})
        if not isinstance(other, WLaurentPoly):
            return NotImplemented
        return WLaurentPoly._raw(_sparse_mul(self.c, other.c))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WLaurentPoly":
        return _power(self, n, WLaurentPoly.one())

    def shift(self, k: int) -> "WLaurentPoly":
        """Multiply by w^k."""
        return WLaurentPoly._raw({e + k: v for e, v in self.c.items()})

    def subs_w_inverse(self) -> "WLaurentPoly":
        """The substitution w -> w^{-1} (t -> -t on characters)."""
        return WLaurentPoly._raw({-e: v for e, v in self.c.items()})

    def evaluate(self, w: complex) -> complex:
        return sum(complex(v) * w ** e for e, v in self.c.items()) if self.c else 0j

    # -- presentation

    def __str__(self) -> str:
        return _format_laurent(self.c)

    def __repr__(self):
        return "WLaurentPoly(%s)" % self


def _format_laurent(c: Mapping) -> str:
    """The Laurent polynomial of c, exponent -> nonzero rational."""
    if not c:
        return "0"
    parts = []
    for e in sorted(c, reverse=True):
        v = c[e]
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


# -- integer-polynomial gcd machinery (primitive PRS), used for reduction


def _dense_int(p: WLaurentPoly) -> list[int]:
    """Dense ascending coefficient list of p shifted to low exponent 0.  p
    must be nonzero."""
    return [p.c.get(e, 0) for e in range(p.low, p.high + 1)]

def _primitive(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a = a[:-1]
    if not a:
        return a
    g = int_gcd(*a)
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
    """Exact division a / b over Z; raises AlgebraError when the quotient
    is not an integer Laurent polynomial."""
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
    q: dict[int, int] = {}
    rem = dict(A)
    for e in range(da - db, -1, -1):
        v = rem.get(e + db, 0)
        if not v:
            continue
        qv, r = divmod(v, lb)
        if r:
            raise AlgebraError("inexact polynomial division")
        q[e] = qv
        for eb, vb in B.items():
            s = rem.get(e + eb, 0) - qv * vb
            if s:
                rem[e + eb] = s
            else:
                rem.pop(e + eb, None)
    if rem:
        raise AlgebraError("inexact polynomial division")
    return WLaurentPoly._raw({e + shift: v for e, v in q.items()})


class WLaurentRational:
    """Reduced rational function num/den in w over Z.

    Canonical form: num and den are integer Laurent polynomials, den with
    lowest exponent 0 and positive leading coefficient, and the two share
    no factor of positive degree and no integer content.  num may carry
    negative w-exponents.  A rational constant p/q is const(p)/const(q).
    Equality of canonical forms is literal equality.
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
        if not den.is_constant():
            g = wpoly_gcd(num, den)
            if g.degree_span() > 0:
                num = wpoly_divexact(num, g)
                den = wpoly_divexact(den, g)
            lo = den.low
            if lo:
                den = den.shift(-lo)
                num = num.shift(-lo)
        # the shared integer content, signed so that den leads positive
        k = int_gcd(*den.c.values(), *num.c.values())
        if den.c[den.high] < 0:
            k = -k
        if k != 1:
            num, den = (WLaurentPoly._raw({e: v // k for e, v in p.c.items()}) for p in (num, den))
        self.num, self.den = num, den

    # -- constructors / coercion

    @staticmethod
    def zero() -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.zero())

    @staticmethod
    def one() -> "WLaurentRational":
        return WLaurentRational(WLaurentPoly.one())

    @staticmethod
    def const(v) -> "WLaurentRational":
        v = Fraction(v)
        return WLaurentRational(WLaurentPoly.const(v.numerator),
                                WLaurentPoly.const(v.denominator), _reduced=True)

    @staticmethod
    def w(exp: int = 1, coeff: int = 1) -> "WLaurentRational":
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
        return Fraction(self.num.constant(), self.den.constant())

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

    def __pow__(self, n: int):
        return _power(self.inverse() if n < 0 else self, abs(n), WLaurentRational.one())

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
        # over den's content k: a rational num over a primitive den, or none
        k = int_gcd(*self.den.c.values())
        num = _format_laurent({e: Fraction(v, k) for e, v in self.num.c.items()})
        if self.den.is_constant():
            return num
        return "(%s) / (%s)" % (num, _format_laurent({e: v // k for e, v in self.den.c.items()}))

    def __repr__(self):
        return "WLaurentRational(%s)" % self


# ---------------------------------------------------------------------------
# Graded (nilpotent) elements


def format_monomial(exps: tuple[int, ...], names) -> str:
    """The monomial with exponents ``exps`` over ``names``: 'x*y^2', or '1'."""
    parts = [(n if e == 1 else "%s^%d" % (n, e)) for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


class _Layout:
    """Dense layout of the ring (gens, cap): ``monos`` are its monomials of
    degree <= cap in lexicographic order, the constant first, ``degrees``
    their degrees, ``index`` their positions, and ``rows[i]`` the pairs
    (j, k) with monos[i] * monos[j] = monos[k] under the cap.  Built once
    per ring (``_layout``)."""

    def __init__(self, gens: tuple[tuple[str, int], ...], cap: int):
        monos, degrees = [()], [0]
        for _, d in gens:
            grown = [(m + (e,), dm + e * d) for m, dm in zip(monos, degrees)
                     for e in range((cap - dm) // d + 1)]
            monos, degrees = [m for m, _ in grown], [dm for _, dm in grown]
        self.gens, self.cap, self.monos, self.degrees = gens, cap, monos, degrees
        self.index = index = {m: i for i, m in enumerate(monos)}
        self.rows = tuple(tuple((j, index[tuple(a + b for a, b in zip(m, n))])
                                for j, (n, dn) in enumerate(zip(monos, degrees)) if dm + dn <= cap)
                          for m, dm in zip(monos, degrees))


_layout = lru_cache(maxsize=None)(_Layout)

# exact coefficients that add to a graded element as its scalar part
_SCALARS = (int, Fraction, WLaurentPoly, WLaurentRational)


class GradedElement:
    """Polynomial in even-degree nilpotent generators, truncated at a cap.

    ``gens`` is a tuple of (name, degree) pairs shared by every element of
    the same ring.  The coefficients lie in any commutative ring
    (Fraction, Laurent polynomials or rational functions in w, complex
    numbers on the numeric path) and are stored densely in ``c``, one per
    monomial of the ring's ``_Layout``: an absent term is the int 0 and
    the unit is the int 1.  ``terms`` is the sparse view, exponent tuples
    to nonzero coefficients.  Terms above the cap are discarded on
    construction.
    """

    __slots__ = ("lay", "c")

    def __init__(self, gens: tuple[tuple[str, int], ...], cap: int, terms: Mapping[tuple[int, ...], object] | None = None):
        lay = _layout(tuple((str(n), int(d)) for n, d in gens), int(cap))
        c = [0] * len(lay.monos)
        for exps, v in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(lay.gens):
                raise GeneratorTableMismatch("exponent tuple length %d != %d generators" % (len(exps), len(lay.gens)))
            i = lay.index.get(exps)
            if i is not None and v:
                c[i] = v
        self.lay, self.c = lay, c

    def _like(self, c: list) -> "GradedElement":
        """The element of this ring with coefficient list c."""
        out = object.__new__(GradedElement)
        out.lay, out.c = self.lay, c
        return out

    @property
    def gens(self) -> tuple[tuple[str, int], ...]:
        return self.lay.gens

    @property
    def cap(self) -> int:
        return self.lay.cap

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        return {m: v for m, v in zip(self.lay.monos, self.c) if v}

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
        return GradedElement(gens, cap, {e: 1})

    def one_like(self) -> "GradedElement":
        return self._like([1] + [0] * (len(self.c) - 1))

    # -- structure

    def __bool__(self) -> bool:
        return any(self.c)

    def scalar_part(self):
        return self.c[0] or 0

    def _check(self, other: "GradedElement"):
        if self.lay is not other.lay:
            raise GeneratorTableMismatch("mismatched generator tables or caps")

    # -- arithmetic; zero coefficients are skipped, never added or multiplied

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self
            other = GradedElement.scalar(self.gens, self.cap, other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.lay is other.lay and self.c == other.c

    def __neg__(self):
        return self._like([-v for v in self.c])

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = GradedElement.scalar(self.gens, self.cap, other)
        self._check(other)
        return self._like([(x + y if y else x) if x else y for x, y in zip(self.c, other.c)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (GradedElement,) + _SCALARS) else NotImplemented

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, GradedElement):
            # scalar from the coefficient ring
            return self._like([v * other if v else 0 for v in a])
        self._check(other)
        b = other.c
        if len(a) == 1:
            return self._like([a[0] * b[0] if a[0] and b[0] else 0])
        out = [0] * len(a)
        for ai, row in zip(a, self.lay.rows):
            if ai:
                for j, k in row:
                    if b[j]:
                        p = ai * b[j]
                        out[k] = out[k] + p if out[k] else p
        return self._like(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        return _power(self, n, self.one_like())

    def map_coefficients(self, f: Callable) -> "GradedElement":
        return self._like([f(v) if v else 0 for v in self.c])

    def map_by_degree(self, f: Callable) -> "GradedElement":
        """Each nonzero coefficient v of a monomial of degree 2d as f(v, d)."""
        return self._like([f(v, d >> 1) if v else 0 for v, d in zip(self.c, self.lay.degrees)])

    def subs_w_inverse(self) -> "GradedElement":
        """w -> w^{-1} on every w-dependent coefficient; rational constants
        stay."""
        return self.map_coefficients(
            lambda v: v.subs_w_inverse() if isinstance(v, (WLaurentPoly, WLaurentRational)) else v)

    def __str__(self) -> str:
        names = [n for n, _ in self.gens]
        parts = []
        for e, v in self.terms.items():
            vs = str(v)
            if any(e):
                mon = format_monomial(e, names)
                parts.append("(%s)*%s" % (vs, mon) if ("+" in vs or " " in vs) else "%s*%s" % (vs, mon))
            else:
                parts.append(vs)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "GradedElement(%s)" % self


def graded_series(a: GradedElement, coeffs: Iterable) -> GradedElement:
    """1 + sum over k >= 1 of coeffs[k-1] a^k for a nilpotent a, stopping
    once a^k vanishes; a coefficient equal to 1 adds a^k unscaled."""
    out = p = a.one_like()
    for v in coeffs:
        p = p * a
        if not p:
            break
        out = out + (p if v == 1 else p * v)
    return out


def divided_series(a: GradedElement, divisors: Iterable[int]) -> GradedElement:
    """1 + sum over k >= 1 of a^k / (d_1 ... d_k) for a nilpotent a over the
    ints, stopping once a^k vanishes: each term is the last one times a,
    divided exactly by d_k.  A remainder raises AlgebraError, never a floor."""
    out = p = a.one_like()
    for d in divisors:
        p = p * a
        if any(v % d for v in p.c):
            raise AlgebraError("a term is not divisible by %d: the scale leaves the integers" % d)
        p = p._like([v // d for v in p.c])
        if not p:
            break
        out = out + p
    return out


def graded_exp(a: GradedElement, field=Fraction) -> GradedElement:
    """exp of a nilpotent element: finite sum of a^k / k!, with the
    constants 1/k! in ``field``: int for integral coefficients, each a^k
    divided exactly (``divided_series``); Fraction for rational ones; float
    for complex ones (a complex times a Fraction runs in Python, about 50
    times slower than a complex times a float)."""
    if a.scalar_part() != 0:
        raise NonNilpotentInput("graded_exp needs a vanishing degree-0 term")
    ks = range(1, a.cap // 2 + 1)
    return (divided_series(a, ks) if field is int
            else graded_series(a, (field(1) / factorial(k) for k in ks)))


def graded_invert(a: GradedElement) -> GradedElement:
    """Inverse of scalar + nilpotent; raises when the scalar part is not a unit."""
    s = a.scalar_part()
    if s == 0:
        raise NonInvertibleLeadingCoefficient("graded element with zero scalar part")
    sinv = ring_inverse(s)
    # s^{-1} times the geometric series in -(a - s)/s, finite by nilpotency
    nil = a._like([0] + a.c[1:]) * -sinv
    return graded_series(nil, repeat(1, a.cap // 2)) * sinv


# ---------------------------------------------------------------------------
# Fiber integration


class IntegrationTable:
    """Linear functional on top fiber-degree monomials.

    ``entries`` maps exponent tuples over ``fiber_gens`` of total degree
    2*k_alpha to rational values, ints where integral.  For an isolated
    point (k_alpha = 0, no fiber generators) the table is empty and
    integration is the identity on base classes.
    """

    __slots__ = ("fiber_gens", "k_alpha", "entries")

    def __init__(self, fiber_gens: Iterable[str], k_alpha: int, entries: Mapping[tuple[int, ...], Fraction] | None = None):
        self.fiber_gens = tuple(fiber_gens)
        self.k_alpha = int(k_alpha)
        self.entries = {tuple(int(x) for x in k): f.numerator if (f := Fraction(v)).denominator == 1
                        else f for k, v in (entries or {}).items()}


def fiber_integrate(a: GradedElement, table: IntegrationTable) -> GradedElement:
    """Push forward along the fiber: apply the table to the fiber part of
    each term, annihilating everything off the top fiber degree.  At an
    isolated point (k_alpha = 0, no fiber generator) that is a as it is."""
    if not table.k_alpha and not any(n in table.fiber_gens for n, _ in a.gens):
        return a
    fiber_idx = []
    base_idx = []
    for i, (n, _) in enumerate(a.gens):
        (fiber_idx if n in table.fiber_gens else base_idx).append(i)
    # order the fiber exponents as the table expects
    name_to_pos = {a.gens[i][0]: i for i in fiber_idx}
    degrees = tuple(d for _, d in a.gens)
    out = GradedElement(tuple(a.gens[i] for i in base_idx), a.cap - 2 * table.k_alpha)
    c, index = out.c, out.lay.index
    for exps, v in zip(a.lay.monos, a.c):
        if not v or sum(exps[i] * degrees[i] for i in fiber_idx) != 2 * table.k_alpha:
            continue
        if table.k_alpha:
            # a table generator absent from the element's table has exponent 0
            key = tuple(exps[name_to_pos[n]] if n in name_to_pos else 0 for n in table.fiber_gens)
            if key not in table.entries:
                raise MissingTableEntry("no table entry for fiber monomial %r" % (key,))
            v = v * table.entries[key]
        j = index[tuple(exps[i] for i in base_idx)]
        c[j] = c[j] + v if c[j] else v
    return out


# ---------------------------------------------------------------------------
# Truncated q-series on the (1/8)Z exponent grid


def ring_inverse(c):
    """Inverse of a coefficient in whichever ring it lives in; the units of
    Z stay ints, so a unit series inverts over the ints."""
    if isinstance(c, WLaurentRational):
        return c.inverse()
    if isinstance(c, GradedElement):
        return graded_invert(c)
    if isinstance(c, (int, Fraction)):
        if c == 0:
            raise NonInvertibleLeadingCoefficient("zero coefficient")
        return int(c) if c in (1, -1) else 1 / Fraction(c)
    if isinstance(c, complex):
        return 1 / c
    raise TypeError("no inverse rule for %r" % type(c))


class QSeries:
    """Truncated series in q^{1/8}: key n stands for q^{n/8}.

    ``n8`` is the truncation order: coefficients with key > n8 are unknown.
    Arithmetic propagates the tightest sound truncation, which coincides
    with min(a.n8, b.n8) whenever the lowest exponents are >= 0.  An empty
    series may start anywhere above its n8; the product reads its lowest
    exponent as min(0, n8 + 1).
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
    def _raw(c: dict, n8: int) -> "QSeries":
        """The series over c, a dict with no zero and no key above n8 that
        it takes over."""
        out = object.__new__(QSeries)
        out.c, out.n8 = c, n8
        return out

    @staticmethod
    def zero(n8: int) -> "QSeries":
        return QSeries({}, n8)

    @staticmethod
    def one(n8: int) -> "QSeries":
        return QSeries({0: 1}, n8)

    def __bool__(self):
        return bool(self.c)

    @property
    def low(self) -> int:
        if not self.c:
            raise ValueError("zero series has no lowest exponent")
        return min(self.c)

    def _low0(self) -> int:
        return min(self.c) if self.c else min(0, self.n8 + 1)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.n8 == other.n8 and self.c == other.c

    def first_mismatch(self, other: "QSeries") -> tuple | None:
        """(key, mine, theirs) at the lowest key up to both truncations where
        the coefficients differ, a missing one read as 0; None when the
        series agree there."""
        n = min(self.n8, other.n8)
        for k in sorted(set(self.c) | set(other.c)):
            if k > n:
                break
            a, b = self.c.get(k, 0), other.c.get(k, 0)
            if a != b:
                return k, a, b
        return None

    def __neg__(self):
        return QSeries._raw({e: -v for e, v in self.c.items()}, self.n8)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n8 = min(self.n8, other.n8)
        return QSeries._raw(_sparse_add(self.c, other.c, n8), n8)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return series_mul(self, other)

    def scale(self, v) -> "QSeries":
        """Multiply every coefficient by a fixed ring element."""
        return self.map_coefficients(lambda cv: cv * v)

    def shift_q8(self, k: int) -> "QSeries":
        """Multiply by q^{k/8}."""
        return QSeries._raw({e + k: v for e, v in self.c.items()}, self.n8 + k)

    def truncate(self, n8: int) -> "QSeries":
        n8 = min(n8, self.n8)
        return QSeries({e: v for e, v in self.c.items() if e <= n8}, n8)

    def map_coefficients(self, f: Callable) -> "QSeries":
        return QSeries._raw({e: w for e, v in self.c.items() if (w := f(v)) != 0}, self.n8)

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
    n8 = min(a.n8 + b._low0(), b.n8 + a._low0())
    return QSeries._raw(_sparse_mul(a.c, b.c, n8), n8)


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
    n8 = a.n8 - 2 * la
    return QSeries._raw({e - la: v for e, v in binv.items() if v != 0 and e - la <= n8}, n8)

