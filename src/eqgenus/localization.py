"""Fixed-point data model and the localization engine.

An ``ActionData`` describes a fiberwise circle action through its fixed
components: rotation weights and Chern roots of the normal summands, the
tangent data of each component, fiber integration tables, and optional
twist-bundle (V) data.  ``equivariant_characters`` sums the pushed-forward
theta-quotient integrands of one or more operator kinds over the
components, one ``genera.component_integrands`` call per class of equal
and conjugate components (one dict lookup by ``_class_key`` per
component), and returns each resulting equivariant index character as an
exact q-series of base classes, summed over the dataset's common
denominator and reduced once per coefficient (``genera.reduced``).
``equivariant_character`` is the one-kind case, and ``rigidity_check``
its rigidity verdict.  The characters at a numeric point (t, tau) are
computed in ``numeric``; the per-component contributions and the
pole-cancellation check are independent checks in ``reference``.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm

from .algebra import (DegreeOutOfRange, GradedElement, IntegrationTable, QSeries, WLaurentRational,
                      _layout, fiber_integrate, format_monomial, wpoly_divexact, wpoly_gcd)
from .genera import (OperatorKind, bridge_to_index_character, component_denominator,
                     component_integrands, constants_ledger, reduced, root_scale)


class ValidationError(Exception):
    pass


class InconsistentAnomaly(Exception):
    """Components disagree on the anomaly integer."""


class NearPole(Exception):
    """Numeric evaluation requested too close to a character pole."""


class FixedComponent(namedtuple("FixedComponent", "name k_alpha tangent normals vbundles "
                                                  "table sign gens cap")):
    """One connected component of the fixed submanifold.

    ``tangent`` is a RootBundle or None, ``normals`` and ``vbundles`` are
    tuples of RootBundles and ``table`` is an IntegrationTable.  ``gens``
    lists the component's fiber generators followed by the shared base
    generators; ``cap`` = 2*k_alpha + base degree cap.  Isolated points are
    the degenerate case k_alpha = 0 with empty tangent data and an empty
    integration table.
    """

    __slots__ = ()

    def bridge_rank(self) -> int:
        """k = k_alpha + sum of normal ranks; must equal the global k."""
        return (self.tangent.rank if self.tangent else 0) + sum(b.rank for b in self.normals)

    def v_rank(self) -> int:
        return sum(b.rank for b in self.vbundles)


class ActionData(namedtuple("ActionData", "fiber_half_dim components base_gens base_cap "
                                          "v_half_rank declared_anomaly name",
                            defaults=((), 0, None, None, ""))):
    """Fixed-point description of a fiberwise circle action.  It has no
    ``__slots__``: ``report`` is cached in the instance dict."""

    def digest(self) -> str:
        # imported here: only expand prints a digest, and loading hashlib
        # costs every command's start-up
        import hashlib

        h = hashlib.sha256()
        h.update(repr((self.fiber_half_dim, self.base_gens, self.base_cap,
                       self.v_half_rank, self.declared_anomaly)).encode())
        for c in self.components:
            h.update(repr((c.name, c.k_alpha, c.sign, c.cap, c.gens)).encode())
            for bundles in (([c.tangent] if c.tangent else []), c.normals, c.vbundles):
                for b in bundles:
                    h.update(repr((str(b.weight), b.rank,
                                   [sorted((e, str(v)) for e, v in r.terms.items()) for r in b.roots])).encode())
            h.update(repr(sorted((k, str(v)) for k, v in c.table.entries.items())).encode())
        return h.hexdigest()[:16]

    @cached_property
    def report(self) -> ValidationReport:
        """The validation report, computed on first use."""
        return validate(self)


# ---------------------------------------------------------------------------
# validation and the anomaly


def _root_sum(bundles, weighted: bool, square: bool, gens, cap) -> GradedElement:
    out = GradedElement.zero(gens, cap)
    for b in bundles:
        for r in b.roots:
            term = r * r if square else r
            if weighted:
                term = term * b.weight
            out = out + term
    return out


ValidationReport = namedtuple("ValidationReport", "ok errors warnings anomaly anomaly_tx "
                                                  "witten_h_applicable")


def validate(data: ActionData) -> ValidationReport:
    """Rank bookkeeping, weight sanity, and the anomaly consistency checks."""
    errors: list[str] = []
    warnings: list[str] = []
    k = data.fiber_half_dim

    if not data.components:
        errors.append("no fixed components")

    per_comp_n: list[Fraction] = []
    per_comp_tx: list[Fraction] = []
    spin_sums: list[Fraction] = []
    h_ok = True
    for c in data.components:
        label = "component %r" % c.name
        if c.bridge_rank() != k:
            errors.append("%s: k_alpha + sum of normal ranks = %d != fiber half-dimension %d"
                          % (label, c.bridge_rank(), k))
        if c.tangent is not None and c.tangent.weight != 0:
            errors.append("%s: tangent part must carry weight 0" % label)
        if c.tangent is not None and c.tangent.rank != c.k_alpha:
            errors.append("%s: tangent rank %d != k_alpha %d" % (label, c.tangent.rank, c.k_alpha))
        if c.sign not in (1, -1):
            errors.append("%s: orientation sign must be +-1" % label)
        for b in c.normals:
            if b.weight == 0:
                errors.append("%s: ZeroWeightNormalBundle (normal summand with weight 0)" % label)
        spin_sum = sum((b.weight * b.rank for b in c.normals), Fraction(0))
        spin_sums.append(spin_sum)
        if spin_sum.denominator != 1:
            warnings.append("%s: sum of m*d(m) = %s is not an integer; "
                            "theta-denominator kinds will leave the w-grid"
                            % (label, spin_sum))
        if c.k_alpha > 0:
            fiber_degrees = [d for (n, d) in c.gens if n in c.table.fiber_gens]
            tops = _top_monomials(tuple(zip(c.table.fiber_gens, fiber_degrees)), 2 * c.k_alpha)
            missing = [mono for mono in tops if mono not in c.table.entries]
            for mono in missing:
                errors.append("%s: integration table misses top monomial %r" % (label, mono))
            # orientation heuristic for projective-type tables: the top
            # product of the tangent roots should pair positively with the
            # declared sign (the root classes fix the orientation, the list
            # order does not)
            if c.tangent is not None and c.tangent.roots and not missing:
                top = GradedElement.scalar(c.gens, c.cap, Fraction(1))
                for r in c.tangent.roots:
                    top = top * r
                paired = fiber_integrate(top, c.table).scalar_part()
                if paired and (paired < 0) != (c.sign < 0):
                    warnings.append("%s: orientation sign %+d disagrees with the "
                                    "pairing of the top tangent-root product (%s)"
                                    % (label, c.sign, paired))
        # anomaly sums
        tx_sq = sum((b.weight ** 2 * b.rank for b in c.normals), Fraction(0))
        per_comp_tx.append(tx_sq)
        # sum m_gamma x_gamma over the normals, sum y^2 + sum x^2 over TX
        tx_lin = _root_sum(c.normals, True, False, c.gens, c.cap)
        tx_roots_sq = _root_sum(([c.tangent] if c.tangent else []) + list(c.normals),
                                False, True, c.gens, c.cap)
        if data.v_half_rank is not None or c.vbundles:
            l = c.v_rank()
            if data.v_half_rank is not None and l != data.v_half_rank:
                errors.append("%s: V rank %d != declared v_half_rank %s"
                              % (label, l, data.v_half_rank))
            v_sq = sum((b.weight ** 2 * b.rank for b in c.vbundles), Fraction(0))
            per_comp_n.append(v_sq - tx_sq)
            if _root_sum(c.vbundles, True, False, c.gens, c.cap) != tx_lin:
                errors.append("%s: sum n_v u_v != sum m_gamma x_gamma" % label)
            if _root_sum(c.vbundles, False, True, c.gens, c.cap) != tx_roots_sq:
                errors.append("%s: sum u_v^2 != sum y^2 + sum x^2" % label)
        # loop-space condition p1(TX) restricted to the component
        if tx_lin or tx_roots_sq:
            h_ok = False

    # under integer weights, the parity of sum m*d(m) on a spin manifold is the
    # same at every fixed component (Bott-Taubes, J. AMS 2, 1989); half-integer
    # weights are those of the circle of period 2, whose doubled sums are even
    integral = all(b.weight.denominator == 1 for c in data.components for b in c.normals)
    if integral and len({s % 2 for s in spin_sums}) > 1:
        warnings.append("sums of m*d(m) over the normals differ in parity (%s): the data "
                        "is not that of a circle action on a spin manifold"
                        % ", ".join("%r %s" % (c.name, s) for c, s in zip(data.components, spin_sums)))

    v_ranks = {c.v_rank() for c in data.components if c.vbundles}
    if len(v_ranks) > 1:
        errors.append("components disagree on the V rank: %s" % sorted(v_ranks))
    if v_ranks and any(not c.vbundles for c in data.components):
        errors.append("V data present on some components but not all")

    anomaly = None
    if per_comp_n:
        if len(set(per_comp_n)) > 1:
            errors.append("anomaly differs across components: %s"
                          % sorted(set(str(x) for x in per_comp_n)))
        else:
            anomaly = per_comp_n[0]
            if anomaly.denominator != 1:
                warnings.append("anomaly %s is not an integer" % anomaly)
            if data.declared_anomaly is not None and anomaly != data.declared_anomaly:
                errors.append("declared anomaly %d != computed %s"
                              % (data.declared_anomaly, anomaly))
    # the loop-space hypothesis needs one sum m^2 d(m) on every component
    anomaly_tx = per_comp_tx[0] if len(set(per_comp_tx)) == 1 else None
    return ValidationReport(not errors, errors, warnings, anomaly, anomaly_tx,
                            h_ok and anomaly_tx is not None)


def validated(data: ActionData) -> ValidationReport:
    """The validation report of a dataset; ValidationError on any error."""
    if data.report.errors:
        raise ValidationError("; ".join(data.report.errors))
    return data.report


def _top_monomials(gens, target: int) -> list[tuple[int, ...]]:
    """The monomials over gens of degree exactly target, in lexicographic
    order."""
    lay = _layout(gens, target)
    return [m for m, d in zip(lay.monos, lay.degrees) if d == target]


def anomaly_index(data: ActionData) -> int:
    """The common anomaly integer n; per component this is
    sum n_v^2 d(n_v) - sum m_gamma^2 d(m_gamma), or just the tangent sum
    when no V data is present."""
    rep = validated(data)
    if rep.anomaly is not None:
        n = rep.anomaly
    elif rep.anomaly_tx is not None:
        n = rep.anomaly_tx
    else:
        raise InconsistentAnomaly("components disagree on sum m^2 d(m)")
    if n.denominator != 1:
        raise InconsistentAnomaly("anomaly %s is not an integer" % n)
    return int(n)


# ---------------------------------------------------------------------------
# the engine


class GenusResult(namedtuple("GenusResult", "series kind normalized n8 base_gens base_cap "
                                            "bridge_k v_rank ledger")):
    """Localized equivariant character: q-series of base-graded classes."""

    __slots__ = ()

    def monomials(self) -> list[tuple[int, ...]]:
        out = set()
        for g in self.series.c.values():
            out.update(g.terms.keys())
        if not out:
            out.add((0,) * len(self.base_gens))
        return sorted(out)

    def monomial_name(self, exps: tuple[int, ...]) -> str:
        return format_monomial(exps, [n for n, _ in self.base_gens])

    def coefficient(self, n8key: int, exps: tuple[int, ...] | None = None) -> WLaurentRational:
        g = self.series.c.get(n8key)
        if n8key > self.series.n8:
            raise DegreeOutOfRange("q^{%d/8} beyond truncation" % n8key)
        if g is None:
            return WLaurentRational.zero()
        exps = exps if exps is not None else (0,) * len(self.base_gens)
        return g.terms.get(tuple(exps), WLaurentRational.zero())

    def index_character(self) -> QSeries:
        """The Chern character of the index bundle (ledger constants and
        correspondence prefactors applied)."""
        return bridge_to_index_character(self.kind, self.normalized,
                                         self.bridge_k, self.v_rank, self.series)


def _class_key(c: FixedComponent, negated: bool = False) -> tuple:
    """c's data as a hashable key, every normal and V weight negated when
    ``negated``: names and signs left out, bundles as sorted tuples of
    (weight, rank, root coefficients), so they compare as multisets.  The
    integrand depends on the data only through E = w^{2m} e^x per line, so
    equal keys have equal integrands and dens, and a component whose
    negated key is another's (its conjugate) has them with w -> w^{-1}."""
    def bundles(bs, sign):
        return tuple(sorted((sign * b.weight, b.rank, tuple(tuple(r.c) for r in b.roots))
                            for b in bs))

    sign = -1 if negated else 1
    return (c.k_alpha, c.gens, c.cap, bundles([c.tangent] if c.tangent else [], 1),
            c.table.fiber_gens, c.table.k_alpha, tuple(sorted(c.table.entries.items())),
            bundles(c.normals, sign), bundles(c.vbundles, sign))


def _component_classes(components) -> list[tuple[FixedComponent, int, int]]:
    """The components grouped by ``_class_key``, in order of each class's
    first member, its representative: (representative, summed sign of the
    members equal to it, summed sign of its conjugates).  A component
    joins the class of its key, else that of its negated key as a
    conjugate, so a self-conjugate component joins one class once."""
    classes = {}
    for comp in components:
        key = _class_key(comp)
        if key in classes:
            classes[key][1] += comp.sign
        elif (conj := _class_key(comp, True)) in classes:
            classes[conj][2] += comp.sign
        else:
            classes[key] = [comp, comp.sign, 0]
    return [tuple(c) for c in classes.values()]


def equivariant_characters(data: ActionData, kinds, n8: int,
                           normalized: bool = False) -> dict[OperatorKind, GenusResult]:
    """The character of each of ``kinds``: the sum of its pushed-forward
    integrands over the fixed components, each times its cofactor D / den
    over Z[w^{+-1}], D the lcm of the dens
    (``genera.component_denominator``); each summed coefficient of base
    degree 2e is then reduced once over 2^two T N^(K+e) D (``genera.reduced``).
    The integrands leave out the ledger's 2^two and run on roots scaled by
    one N for the dataset (``genera.root_scale``): a pushed coefficient
    carries N^(k_alpha + e), lifted by N^(K - k_alpha), K the largest
    k_alpha.  T, the lcm of the tables' denominators, multiplies each table,
    or the lift where no table entry is read (k_alpha = 0), so the
    push-forward stays over the ints.  The component classes
    (``_component_classes``) are the outer loop: each representative's
    integrands (``genera.component_integrands``) share one theta
    denominator, built once for every kind, and only one representative's
    are alive at a time.  The class adds the pushed series times its
    cofactor and summed sign, plus the same with w -> w^{-1} times
    D / den(w^{-1}) and the conjugates' summed sign; a class whose two sums
    are 0 is not built."""
    validated(data)
    kinds = tuple(dict.fromkeys(kinds))
    for kind in kinds:
        if kind.needs_v and any(not c.vbundles for c in data.components):
            raise ValidationError("%s requires V data on every component" % kind.value)
    D = reduce(lambda a, b: wpoly_divexact(a * b, wpoly_gcd(a, b)),
               map(component_denominator, data.components))
    N = root_scale(data.components)
    K = max(c.k_alpha for c in data.components)
    T = lcm(*(v.denominator for c in data.components for v in c.table.entries.values()))
    totals = {kind: QSeries.zero(n8) for kind in kinds}
    for comp, sign, conj_sign in _component_classes(data.components):
        if not (sign or conj_sign):
            continue
        den = component_denominator(comp)
        table = IntegrationTable(comp.table.fiber_gens, comp.table.k_alpha,
                                 {e: v * T for e, v in comp.table.entries.items()})
        lift = N ** (K - comp.k_alpha) * (1 if table.k_alpha else T)
        cofactor = wpoly_divexact(D, den) * (sign * lift)
        if conj_sign:
            conj_cofactor = wpoly_divexact(D, den.subs_w_inverse()) * (conj_sign * lift)
        for kind, series in component_integrands(comp, kinds, n8, normalized, N):
            pushed = series.map_coefficients(lambda g: fiber_integrate(g, table))
            part = pushed.map_coefficients(lambda g: g * cofactor)
            if conj_sign:
                part = part + pushed.map_coefficients(lambda g: g.subs_w_inverse() * conj_cofactor)
            totals[kind] = totals[kind] + part
    out = {}
    for kind, total in totals.items():
        l = data.components[0].v_rank() if kind.needs_v else 0
        ledger = constants_ledger(kind, normalized, l)
        total = reduced(total, D, 2 ** ledger.two * T, N, K)
        out[kind] = GenusResult(total, kind, normalized, total.n8, data.base_gens,
                                data.base_cap, data.fiber_half_dim, l, ledger)
    return out


def equivariant_character(data: ActionData, kind: OperatorKind, n8: int,
                          normalized: bool = False) -> GenusResult:
    """The character of one kind: ``equivariant_characters`` over (kind,)."""
    return equivariant_characters(data, (kind,), n8, normalized)[kind]


# ---------------------------------------------------------------------------
# verdicts


RigidityVerdict = namedtuple("RigidityVerdict", "rigid constants witness")


def rigidity_check(result: GenusResult) -> RigidityVerdict:
    """Rigid iff every (q-exponent, base monomial) coefficient is w-free."""
    constants: dict[tuple[int, str], Fraction] = {}
    for key in sorted(result.series.c):
        g = result.series.c[key]
        for exps, coeff in sorted(g.terms.items()):
            mono = result.monomial_name(exps)
            if not coeff.is_constant():
                return RigidityVerdict(False, None, (key, mono, coeff))
            constants[(key, mono)] = coeff.constant()
    return RigidityVerdict(True, constants, None)


def __getattr__(name):
    """The names the benchmark (``perfbench/``) reads from this module
    after they moved: its tracer wraps ``evaluate_numeric``, now in
    ``numeric``, and its pole gate calls ``component_contribution`` and
    ``pole_cancellation_check``, now in ``reference``.  Each loads its
    module on first access, so the exact commands load neither."""
    if name == "evaluate_numeric":
        from .numeric import evaluate_numeric
        return evaluate_numeric
    if name in ("component_contribution", "pole_cancellation_check"):
        from . import reference
        return getattr(reference, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
