"""JSON dataset ingestion.

The wire format (documented in docs/dataset-format.md) keeps everything
exact: rationals travel as "p/q" strings, q-exponents as "n/8" strings,
roots as linear combinations of generator names.  Ingestion errors carry
the JSON path of the offending field.  The writer, ``dataset_to_json``,
lives in ``serialize``, which no exact command compiles.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import GradedElement, IntegrationTable
from .genera import RootBundle
from .localization import ActionData, FixedComponent

FORMAT_VERSION = 1

# The largest graded ring a component may span: every ring builds a dense
# product table of about n^2 / 2 entries once, which takes about 1 s at
# 1000 monomials on one generator (the worst shape).
MAX_RING_MONOMIALS = 1000

# Every line of a bundle is one factor of the integrand, whose cost grows
# faster than linearly in the number of lines and in their weights, and
# every fixed component is one integrand per operator.  Bounded: the total
# rank of a component's normals and of its V, and the fiber half-dimension
# (MAX_RANK); the absolute value of every rotation weight (MAX_WEIGHT); the
# number of fixed components (MAX_COMPONENTS); the degree cap
# 2 k_alpha + base_degree_cap of every ring (MAX_DEGREE_CAP), which sets
# the size of every graded product and the order cap // 2 of the
# normal-line adjugate.  At every bound at once (32 isolated points, each
# with normals and V of rank 16 at weight 16, base_degree_cap 8, each
# point's 16 roots a different mix of b, 2b and 3b)
# `rigidity --operator all --order 16` takes 29 s on a 2-core VM (10 s at
# cap 4).  Equal and conjugate points are built once per class: with
# every root b it takes 10 s, and with the weight -16 on every odd point
# as well 7 s (2 s at cap 4).  Cap 8 leaves room for a fixed surface in a
# family over a base of cap 4.  At rank 64, two isolated points at weight
# +-1 took 15 s.
MAX_RANK = 16
MAX_WEIGHT = 16
MAX_COMPONENTS = 32
MAX_DEGREE_CAP = 8


class DatasetFormatError(Exception):
    """Ingestion failure addressed by JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, path: str, default=None):
    """obj[key], which must be a JSON value of type ``kind`` (int, str,
    list or dict); ``default`` when the key is absent."""
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, kind) or isinstance(v, bool):
        raise DatasetFormatError("%s.%s" % (path, key),
                                 "expected %s, got %s" % (_JSON_TYPES[kind], json.dumps(v)))
    return v


def _optional_int(obj: dict, key: str, path: str) -> int | None:
    """An integer field that may be absent or null."""
    return None if obj.get(key) is None else _field(obj, key, int, path)


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(s, path: str) -> Fraction:
    """An integer or a "p/q" string; no decimal or exponent forms, whose
    parsing alone can take unbounded time ("1e999999999")."""
    try:
        if isinstance(s, int) and not isinstance(s, bool):
            return Fraction(s)
        if isinstance(s, str) and _RATIONAL_RE.fullmatch(s.replace(" ", "")):
            return Fraction(s.replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        pass
    raise DatasetFormatError(path, "expected a rational like '3/2', got %r" % (s,))


# one term of a root expression, with the sign or operator before it: the
# first term may start with "-", every later one starts with "+" or "-";
# a coefficient may carry its own sign ("b + -1*y", as
# ``serialize.format_root`` writes it)
_TERM_RE = re.compile(r"(?P<op>^-?|[+-])(?:(?:(?P<coef>-?\d+(?:/\d+)?)\*)?"
                      r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<zero>0))")


def parse_root_expr(expr, gens, cap, path: str) -> GradedElement:
    """A linear combination of generator names: '2*y + b', '-x', '0'.
    Anything else, a doubled or dangling sign or a zero denominator among
    them, is a DatasetFormatError at ``path``."""
    if not isinstance(expr, str):
        raise DatasetFormatError(path, "root expression must be a string")
    s = expr.replace(" ", "")
    out = GradedElement.zero(gens, cap)
    names = [n for n, _ in gens]
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m:
            raise DatasetFormatError(path, "cannot parse root expression %r" % expr)
        pos = m.end()
        if m.group("zero"):
            continue
        name = m.group("name")
        if name not in names:
            raise DatasetFormatError(path, "unknown generator %r (have %s)" % (name, names))
        try:
            coef = Fraction(m.group("coef") or 1)
        except (ValueError, ZeroDivisionError):
            raise DatasetFormatError(path, "bad coefficient %r in root expression %r"
                                     % (m.group("coef"), expr))
        if m.group("op") == "-":
            coef = -coef
        out = out + GradedElement.generator(gens, cap, name) * coef
    return out


def parse_monomial(key: str, fiber_names, path: str) -> tuple[int, ...]:
    exps = [0] * len(fiber_names)
    if key.strip() in ("1", ""):
        return tuple(exps)
    for factor in key.replace(" ", "").split("*"):
        if "^" in factor:
            name, _, pw = factor.partition("^")
            try:
                e = int(pw)
            except ValueError:
                raise DatasetFormatError(path, "bad exponent in monomial %r" % key)
        else:
            name, e = factor, 1
        if name not in fiber_names:
            raise DatasetFormatError(path, "unknown fiber generator %r in monomial %r"
                                     % (name, key))
        exps[fiber_names.index(name)] += e
    return tuple(exps)


def _ring_size(degrees, cap: int, limit: int) -> int:
    """The number of monomials of degree <= cap over generators of the
    given degrees, counted without listing them; stops once it exceeds
    limit, so the work is O(limit * generators) whatever the cap."""
    caps = {cap: 1}  # degree left -> number of monomials in the generators so far
    for d in degrees:
        out, total = {}, 0
        for left, n in caps.items():
            for low in range(left, -1, -d):
                out[low] = out.get(low, 0) + n
                total += n
                if total > limit:
                    return total
        caps = out
    return sum(caps.values())


def _check_ring(gens, cap: int, path: str):
    """Reject a ring too large to lay out, before anything is built on it."""
    if cap < 0:
        raise DatasetFormatError(path, "degree cap %d is negative" % cap)
    if cap > MAX_DEGREE_CAP:
        raise DatasetFormatError(path, "degree cap %d is above the bound %d"
                                 % (cap, MAX_DEGREE_CAP))
    if _ring_size([d for _, d in gens], cap, MAX_RING_MONOMIALS) > MAX_RING_MONOMIALS:
        raise DatasetFormatError(
            path, "degree cap %d over the generators %s gives more than %d monomials"
            % (cap, [n for n, _ in gens], MAX_RING_MONOMIALS))


def _check_rank(rank: int, path: str):
    """``rank`` is a fiber half-dimension or the total rank of a bundle
    list up to the bundle at ``path``."""
    if rank > MAX_RANK:
        raise DatasetFormatError(path, "%d is above the rank bound %d" % (rank, MAX_RANK))


def _gen_list(raw, path: str) -> tuple[tuple[str, int], ...]:
    out = []
    for i, g in enumerate(raw):
        p = "%s[%d]" % (path, i)
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise DatasetFormatError(p, "generator entries are {name, degree}")
        deg = _field(g, "degree", int, p, 2)
        if deg <= 0 or deg % 2:
            raise DatasetFormatError(p, "generator degree must be a positive even integer")
        out.append((g["name"], deg))
    return tuple(out)


def _parse_bundles(raw, gens, cap, path: str) -> tuple[RootBundle, ...]:
    out = []
    total = 0
    for i, b in enumerate(raw):
        p = "%s[%d]" % (path, i)
        if not isinstance(b, dict):
            raise DatasetFormatError(p, "bundle entries are objects")
        weight = parse_rational(b.get("weight", "0"), p + ".weight")
        if abs(weight) > MAX_WEIGHT:
            raise DatasetFormatError(p + ".weight", "%s is above the weight bound %d in "
                                     "absolute value" % (weight, MAX_WEIGHT))
        rank = _field(b, "rank", int, p)
        roots_raw = _field(b, "roots", list, p)
        if rank is None:
            if roots_raw is None:
                raise DatasetFormatError(p, "need rank or roots")
            rank = len(roots_raw)
        # bounded before the roots are built or parsed
        total += rank
        _check_rank(total, p + (".rank" if "rank" in b else ".roots"))
        if roots_raw is None:
            roots_raw = ["0"] * rank
        if len(roots_raw) != rank:
            raise DatasetFormatError(p, "rank %s but %d roots" % (rank, len(roots_raw)))
        roots = tuple(parse_root_expr(r, gens, cap, "%s.roots[%d]" % (p, j))
                      for j, r in enumerate(roots_raw))
        try:
            out.append(RootBundle(weight, rank, roots))
        except ValueError as e:
            raise DatasetFormatError(p, str(e))
    return tuple(out)


def parse_dataset(obj: dict) -> ActionData:
    if not isinstance(obj, dict):
        raise DatasetFormatError("$", "top level must be an object")
    fmt = obj.get("format", FORMAT_VERSION)
    if fmt != FORMAT_VERSION:
        raise DatasetFormatError("$.format", "unsupported format %r" % fmt)
    if "fiber_half_dim" not in obj:
        raise DatasetFormatError("$.fiber_half_dim", "missing")
    k = _field(obj, "fiber_half_dim", int, "$")
    _check_rank(k, "$.fiber_half_dim")
    base_gens = _gen_list(_field(obj, "base_generators", list, "$", []), "$.base_generators")
    base_cap = _field(obj, "base_degree_cap", int, "$", 0)
    if base_cap % 2:
        raise DatasetFormatError("$.base_degree_cap", "must be even")
    _check_ring(base_gens, base_cap, "$.base_degree_cap")
    comps_raw = _field(obj, "components", list, "$", [])
    if len(comps_raw) > MAX_COMPONENTS:
        raise DatasetFormatError("$.components", "%d components are above the bound %d"
                                 % (len(comps_raw), MAX_COMPONENTS))
    comps = []
    for ci, c in enumerate(comps_raw):
        path = "$.components[%d]" % ci
        if not isinstance(c, dict):
            raise DatasetFormatError(path, "components are objects")
        name = _field(c, "name", str, path, "component-%d" % ci)
        k_alpha = _field(c, "k_alpha", int, path, 0)
        sign = _field(c, "sign", int, path, 1)
        tangent_raw = _field(c, "tangent_roots", list, path, [])
        table_raw = _field(c, "integration_table", dict, path, {})
        # fiber generators: explicit, else inferred from table keys and
        # tangent root expressions (degree 2)
        if "fiber_generators" in c:
            fiber_gens = _gen_list(_field(c, "fiber_generators", list, path),
                                   path + ".fiber_generators")
        else:
            seen: list[str] = []
            base_names = {n for n, _ in base_gens}
            for key in table_raw:
                for factor in str(key).replace(" ", "").split("*"):
                    nm = factor.partition("^")[0]
                    if nm and nm != "1" and nm not in base_names and nm not in seen:
                        seen.append(nm)
            for expr in tangent_raw:
                for term in str(expr).replace("-", "+").replace(" ", "").split("+"):
                    nm = term.partition("*")[2] or term
                    if nm and not nm.replace("/", "").isdigit() and nm not in base_names \
                            and nm not in seen:
                        seen.append(nm)
            fiber_gens = tuple((nm, 2) for nm in seen)
        if k_alpha < 0:
            raise DatasetFormatError(path, "k_alpha %d is negative" % k_alpha)
        gens = fiber_gens + base_gens
        cap = 2 * k_alpha + base_cap
        _check_ring(gens, cap, path)
        tangent_roots = tuple(parse_root_expr(r, gens, cap, "%s.tangent_roots[%d]" % (path, j))
                              for j, r in enumerate(tangent_raw))
        tangent = RootBundle(Fraction(0), len(tangent_roots), tangent_roots) \
            if tangent_roots else None
        normals = _parse_bundles(_field(c, "normals", list, path, []), gens, cap,
                                 path + ".normals")
        vbundles = _parse_bundles(_field(c, "v", list, path, []), gens, cap, path + ".v")
        fiber_names = [n for n, _ in fiber_gens]
        entries = {}
        for key, val in table_raw.items():
            kpath = "%s.integration_table[%r]" % (path, key)
            entries[parse_monomial(str(key), fiber_names, kpath)] = \
                parse_rational(val, kpath)
        table = IntegrationTable(fiber_names, k_alpha, entries)
        comps.append(FixedComponent(name, k_alpha, tangent, normals, vbundles,
                                    table, sign, gens, cap))
    return ActionData(k, tuple(comps), base_gens, base_cap,
                      _optional_int(obj, "v_half_rank", "$"),
                      _optional_int(obj, "declared_anomaly", "$"),
                      _field(obj, "name", str, "$", ""))


def load_dataset(path: str) -> ActionData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise DatasetFormatError("line %d column %d" % (e.lineno, e.colno), e.msg)
    return parse_dataset(obj)


def __getattr__(name):
    """``dataset_to_json``, which moved to ``serialize``: the benchmark
    (``perfbench/``) and the tests import it under this module's name.
    It loads ``serialize`` on first access, so the exact commands never
    compile the writer."""
    if name == "dataset_to_json":
        from .serialize import dataset_to_json
        return dataset_to_json
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
