"""Built-in example datasets and the representation-theoretic oracle.

The entries are standard rotation actions described purely through their
fixed-point data.  ``oracle_check_s2`` verifies the localization engine on
the rotation two-sphere against Borel-Weil induced characters: the index
character of the Dirac operator twisted by the m-th power of the tangent
character is a finite symmetric Laurent polynomial, computed here with no
localization at all.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import GradedElement, IntegrationTable, WLaurentPoly, WLaurentRational
from .genera import OperatorKind, RootBundle
from .localization import ActionData, FixedComponent, ValidationError, equivariant_character


class UnknownEntry(ValidationError):
    """No built-in dataset has the requested name."""


class CatalogEntry(namedtuple("CatalogEntry", "name data doc expected provenance variants")):
    __slots__ = ()

    def __new__(cls, name: str, data: ActionData, doc: str, expected: dict[str, str],
                provenance: str, variants: dict[str, ActionData] | None = None):
        return super().__new__(cls, name, data, doc, expected, provenance,
                               {} if variants is None else variants)


def _isolated(name, normals, vbundles=(), base_gens=(), base_cap=0, sign=1):
    """Isolated fixed point; normals/vbundles are (weight, rank, roots) with
    roots given as GradedElements or omitted for zero."""
    gens = tuple(base_gens)
    cap = base_cap

    def mk(spec):
        out = []
        for item in spec:
            if len(item) == 2:
                m, r = item
                roots = tuple(GradedElement.zero(gens, cap) for _ in range(r))
            else:
                m, r, roots = item
            out.append(RootBundle(Fraction(m), r, tuple(roots)))
        return tuple(out)

    return FixedComponent(name, 0, None, mk(normals), mk(vbundles),
                          IntegrationTable((), 0, {}), sign, gens, cap)


def _s2_rotation(with_v_tangent_copies: int = 0, base_shift: bool = False,
                 name: str = "s2-rotation") -> ActionData:
    base_gens = (("b", 2),) if base_shift else ()
    base_cap = 4 if base_shift else 0
    gens, cap = base_gens, base_cap
    root_p = [GradedElement.generator(gens, cap, "b")] if base_shift else [GradedElement.zero(gens, cap)]
    comps = []
    for nm, m in (("p+", 1), ("p-", -1)):
        normals = [(m, 1, tuple(root_p))]
        v = [(m, with_v_tangent_copies, tuple(root_p) * with_v_tangent_copies)] \
            if with_v_tangent_copies else []
        comps.append(_isolated(nm, normals, v, base_gens, base_cap))
    l = with_v_tangent_copies if with_v_tangent_copies else None
    return ActionData(1, tuple(comps), base_gens, base_cap, l, None, name)


def _s4_rotation(half: bool = False) -> ActionData:
    u = Fraction(1, 2) if half else Fraction(1)
    north = _isolated("pN", [(u, 2)])
    south = _isolated("pS", [(u, 1), (-u, 1)])
    return ActionData(2, (north, south), name="s4-rotation" + ("-half" if half else ""))


def _cp3_weighted() -> ActionData:
    weight_sets = ((1, 2, 3), (-1, 1, 2), (-2, -1, 1), (-3, -2, -1))
    comps = tuple(_isolated("e%d" % i, [(m, 1) for m in ws])
                  for i, ws in enumerate(weight_sets))
    return ActionData(3, comps, name="cp3-weighted")


def _s2xs2_birotation() -> ActionData:
    comps = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            comps.append(_isolated("p%+d%+d" % (e1, e2), [(e1, 1), (e2, 1)]))
    return ActionData(2, tuple(comps), name="s2xs2-birotation")


def _entries() -> dict[str, CatalogEntry]:
    out = {}
    out["s2-rotation"] = CatalogEntry(
        "s2-rotation", _s2_rotation(),
        "Rotation of the two-sphere: two isolated fixed points with normal "
        "weights +1 and -1.",
        {"witten-h": "identically zero (loop-space vanishing)",
         "ds-theta-prime": "rigid, all constants 0",
         "d-theta-q": "rigid, all constants 0",
         "d-theta-minus-q": "rigid, all constants 0"},
        "Standard circle rotation; fixed-point data verified by the q^0 "
        "cancellation check and the Borel-Weil oracle.")
    out["s4-rotation"] = CatalogEntry(
        "s4-rotation", _s4_rotation(False),
        "Rotation of the four-sphere: two isolated fixed points; at one of "
        "them the complex structure conjugates one line, keeping the "
        "orientation global.",
        {"ds-theta-prime": "rigid", "d-theta-q": "rigid", "d-theta-minus-q": "rigid"},
        "Suspension of the Hopf-type rotation; the half-integer-weight "
        "variant ships as variants['half-integer'].",
        variants={"half-integer": _s4_rotation(True)})
    out["cp3-weighted"] = CatalogEntry(
        "cp3-weighted", _cp3_weighted(),
        "Weighted circle action on complex projective 3-space with "
        "projective weights (0,1,2,3): four isolated fixed points whose "
        "normal weights are the pairwise differences.",
        {"ds-theta-prime": "rigid, q^0 constant = signature = 0",
         "d-theta-q": "rigid", "d-theta-minus-q": "rigid",
         "dv-theta-q(V=TX)": "rigid, anomaly 0"},
        "Fixed-point data of the linear weighted action; verified by the "
        "rigidity suite.")
    out["s2xs2-birotation"] = CatalogEntry(
        "s2xs2-birotation", _s2xs2_birotation(),
        "Independent rotations of both sphere factors: four isolated fixed "
        "points with weights (+-1, +-1).",
        {"ds-theta-prime": "rigid, q^0 constant = signature = 0",
         "d-theta-q": "rigid", "d-theta-minus-q": "rigid"},
        "Product action data.")
    out["s2-family-base"] = CatalogEntry(
        "s2-family-base", _s2_rotation(with_v_tangent_copies=1, base_shift=True,
                                       name="s2-family-base"),
        "The rotation two-sphere fibered over a base with one degree-2 "
        "class b; normal roots shift by b, and V = TX makes the anomaly 0 "
        "so the degree-2p parts obey the weight-(k+p) transformation law.",
        {"dv-theta-q": "degree-2 part transforms with weight k+1 = 2"},
        "Family twist of s2-rotation; exercises the higher-degree "
        "transformation laws.")
    out["s2-v-double-tangent"] = CatalogEntry(
        "s2-v-double-tangent", _s2_rotation(with_v_tangent_copies=2,
                                            name="s2-v-double-tangent"),
        "s2-rotation with V = TX + TX: anomaly n = 1, so the normalized "
        "characters are Jacobi forms of index 1/2.",
        {"dv-theta-q": "holomorphic Jacobi form of index 1/2, weight k+p",
         "dv-star-difference": "index 1/2, weight k-l+p"},
        "Doubled tangent twist; exercises the nonzero-anomaly theorems.")
    return out


def builtin(name: str) -> CatalogEntry:
    """Look up one of the six built-in datasets."""
    entries = _entries()
    if name not in entries:
        raise UnknownEntry("unknown catalog entry %r (have: %s)"
                           % (name, ", ".join(sorted(entries))))
    return entries[name]


def names() -> list[str]:
    return sorted(_entries())


# ---------------------------------------------------------------------------
# Borel-Weil oracle on the rotation two-sphere


def borel_weil_character(k: int) -> WLaurentPoly:
    """Circle character of the cohomology index of the degree-k line bundle
    on the rotation sphere: k+1 symmetric w-powers stepping by 2 for
    k >= 0, zero at k = -1, and the negated mirror below."""
    if k >= 0:
        return WLaurentPoly({2 * j - k: 1 for j in range(k + 1)})
    if k == -1:
        return WLaurentPoly.zero()
    return -borel_weil_character(-k - 2)


# Calibration of the oracle: the w-power lattice of the global tangent
# character maps to index characters by w^j -> character(j - 1).  The shift
# is pinned once by the q^0 index of the antisymmetrized V = TX family
# (value -2, the negated Euler number) and then frozen for all kinds and
# orders; the reflection symmetry of the rotation characters forces the
# absence of any further w-shift.
_BW_EXPONENT_SHIFT = -1


def _apply_borel_weil(poly: WLaurentPoly) -> WLaurentPoly:
    out = WLaurentPoly.zero()
    for j, c in poly.c.items():
        out = out + borel_weil_character(j + _BW_EXPONENT_SHIFT) * c
    return out


def oracle_check_s2(kind: OperatorKind, n8_small: int, normalized: bool = False):
    """Compare the localization engine on the rotation sphere against the
    Borel-Weil expansion of the element into tangent-character powers, as
    a ``reference.OracleReport``."""
    from .reference import OracleReport, _fold_strays, _twisted_element
    if n8_small > 16:
        raise ValueError("the expansion oracle is run at n8 <= 16")
    data = _s2_rotation(with_v_tangent_copies=1) if kind.needs_v else _s2_rotation()
    engine = equivariant_character(data, kind, n8_small, normalized).index_character()
    engine = engine.map_coefficients(
        lambda g: g.scalar_part() if isinstance(g, GradedElement) else g)

    # element restricted to the (+1)-weight point, spinor twist included
    plus = data.components[0]
    el, sw, scls = _twisted_element(kind, plus.normals, plus.vbundles, n8_small,
                                    normalized, (), 0)
    el = _fold_strays(el, sw, scls)

    def to_index(g) -> WLaurentRational:
        v = g.scalar_part() if isinstance(g, GradedElement) else g
        if not isinstance(v, WLaurentRational):
            v = WLaurentRational.const(v)
        if v.den_degree() != 0 or not v.den.is_constant():
            raise ValueError("element character is not polynomial: %s" % v)
        return WLaurentRational(_apply_borel_weil(v.num), v.den)

    oracle = el.map_coefficients(to_index)
    mismatch = engine.first_mismatch(oracle)
    return OracleReport(kind, normalized, mismatch is None, mismatch, engine, oracle)
