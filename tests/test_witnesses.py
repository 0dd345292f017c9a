"""Hand-built witnesses that no catalog entry covers.

* Gr(2,6) under the weights 0..5: 15 isolated fixed points, 8 normal
  lines each, the spin witness of the high-order exact path.  Its
  ``rigidity --format json`` digest over the three TX kinds is pinned at
  n8 = 32.
* CP^2 under three actions, (0,0,1), (0,1,2) and (0,1,3).  The first has a
  fixed projective line, so its integrands run through the tangent line's
  pair factors in U, theta1's tangent factor and the fiber push-forward
  (the line's sigma unit is 1 at cap 2).  The character at w = 1 is the
  ordinary index, which does not depend on the action, so every action
  gives the same numbers there.
* The CP^2 bundle P(C + L + C) -> B under (0,1,2) and (0,1,3): at w = 1
  the character is the Chern character of the family index in H*(B), so
  the two weightings agree there on every base coefficient.
"""
import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from eqgenus.algebra import GradedElement, IntegrationTable, WLaurentPoly, WLaurentRational
from eqgenus.cli import main
from eqgenus.genera import OperatorKind, RootBundle
from eqgenus.localization import ActionData, FixedComponent, equivariant_characters, validate
from eqgenus.serialize import dataset_to_json


def _point(name, weights):
    """An isolated fixed point with rank-1 normal lines of zero root."""
    normals = tuple(RootBundle(Fraction(m), 1, (GradedElement.zero((), 0),)) for m in weights)
    return FixedComponent(name, 0, None, normals, (), IntegrationTable((), 0, {}), 1, (), 0)


def grassmannian_2_6() -> ActionData:
    """Gr(2,6) under the weights a = 0..5: the fixed point of the plane
    spanned by e_i, e_j has the normal weights a_l - a_k, k in {i, j} and
    l not in it."""
    return ActionData(8, tuple(_point("e%d%d" % pair, [l - k for k in pair for l in range(6)
                                                       if l not in pair])
                               for pair in combinations(range(6), 2)), name="gr26")


def rigidity_digest(data: ActionData, n8: int, tmp_path, capsys) -> str:
    """sha256 of ``rigidity --operator all --format json`` on data at n8, in
    the canonical form of the golden digests."""
    path = tmp_path / ("%s.json" % data.name)
    path.write_text(json.dumps(dataset_to_json(data)), encoding="utf-8")
    code = main(["rigidity", "--input", str(path), "--operator", "all", "--order", str(n8),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    canon = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n8, digest", [
    (32, "3dbe840d3417d8e27bd4f77dab48caa06bc2499ce659837b59ba25067dc7b812"),
    (128, "8425b25a4a6da71dc23512984db4ac844dd10e3d669543e2c284454784c73b5b"),
], ids=["n8-32", "n8-128"])
def test_gr26_rigidity_digest_is_pinned(tmp_path, capsys, n8, digest):
    # recorded on the engine that multiplied and inverted whole q-series;
    # the digest at n8 = 256 is in CHANGES.md
    assert rigidity_digest(grassmannian_2_6(), n8, tmp_path, capsys) == digest


def weighted_cp2(weights) -> ActionData:
    """CP^2 under [t^{a_0} z_0 : t^{a_1} z_1 : t^{a_2} z_2].  Distinct weights
    fix the three points e_i, of normal weights a_j - a_i; (0, 0, 1) fixes
    the line z_2 = 0, with tangent root 2h, normal root h of weight 1 and
    the integral of h equal to 1, and the point e_2 of weights -1, -1."""
    if len(set(weights)) == 3:
        return ActionData(2, tuple(_point("e%d" % i, [b - a for b in weights if b != a])
                                   for i, a in enumerate(weights)), name="cp2%s" % (weights,))
    assert weights == (0, 0, 1)
    gens = (("h", 2),)
    h = GradedElement.generator(gens, 2, "h")
    line = FixedComponent("line", 1, RootBundle(0, 1, (h * 2,)), (RootBundle(1, 1, (h,)),), (),
                          IntegrationTable(("h",), 1, {(1,): 1}), 1, gens, 2)
    return ActionData(2, (line, _point("e2", [-1, -1])), name="cp2(0, 0, 1)")


def at_w_one(coeff) -> Fraction:
    """A reduced coefficient num/den at w = 1, num(1)/den(1); a den that
    vanishes there raises, since a character is regular at the identity."""
    num, den = sum(coeff.num.c.values()), sum(coeff.den.c.values())
    if den == 0:
        raise ZeroDivisionError("den(1) = 0 in %s" % coeff)
    return Fraction(num, den)


def test_at_w_one_raises_on_a_pole():
    assert at_w_one(WLaurentRational(WLaurentPoly({2: 3, 0: 1}), WLaurentPoly.const(8))) \
        == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        at_w_one(WLaurentRational(WLaurentPoly.one(), WLaurentPoly({1: 1, 0: -1})))


CP2_ACTIONS = [(0, 0, 1), (0, 1, 2), (0, 1, 3)]


@pytest.mark.parametrize("weights", CP2_ACTIONS, ids=str)
def test_cp2_index_at_w_one_does_not_depend_on_the_action(weights):
    # the character at the identity is the ordinary index; the first action
    # has a fixed line, so it runs the tangent line's factors and the
    # push-forward, which no catalog entry does
    data = weighted_cp2(weights)
    assert (data.components[0].tangent is not None) == (weights == (0, 0, 1))
    kinds = (OperatorKind.DsThetaPrime, OperatorKind.DThetaQ, OperatorKind.DThetaMinusQ)
    got = {kind: {key: at_w_one(res.coefficient(key)) for key in sorted(res.series.c)}
           for kind, res in equivariant_characters(data, kinds, 16).items()}
    assert got[OperatorKind.DsThetaPrime] == {0: 1, 8: 32, 16: 256}
    assert got[OperatorKind.DThetaQ][-2] == Fraction(-1, 8)
    want = equivariant_characters(weighted_cp2((0, 1, 2)), kinds, 16)
    for kind in kinds:
        assert got[kind] == {key: at_w_one(want[kind].coefficient(key))
                             for key in sorted(want[kind].series.c)}, kind


def cp2_bundle(weights) -> ActionData:
    """P(C + L + C) -> B with c_1(L) = b, under the fiberwise weights
    (m_0, m_1, m_2), base cap 4: three isolated sections, and at section i
    the line j has weight m_j - m_i and root c_j - c_i, c = (0, b, 0)."""
    gens = (("b", 2),)
    b = GradedElement.generator(gens, 4, "b")
    c = (b * 0, b, b * 0)
    return ActionData(2, tuple(
        FixedComponent("s%d" % i, 0, None,
                       tuple(RootBundle(m - mi, 1, (c[j] - c[i],))
                             for j, m in enumerate(weights) if j != i),
                       (), IntegrationTable((), 0, {}), 1, gens, 4)
        for i, mi in enumerate(weights)), gens, 4, name="cp2-bundle%s" % (weights,))


def test_cp2_bundle_index_at_w_one_does_not_depend_on_the_action():
    # the family pair: every (q, base monomial) coefficient at w = 1 agrees,
    # a coefficient missing on one side reading 0; (0,1,3) has a b term
    # that (0,1,2) lacks, and it reads 0 at w = 1
    kinds = (OperatorKind.DsThetaPrime, OperatorKind.DThetaQ, OperatorKind.DThetaMinusQ)
    got = {}
    for weights in ((0, 1, 3), (0, 1, 2)):
        data = cp2_bundle(weights)
        assert [w for w in validate(data).warnings if "parity" in w], weights
        got[weights] = {kind: {(key, mono): at_w_one(v)
                               for key, g in res.series.c.items() for mono, v in g.terms.items()}
                        for kind, res in equivariant_characters(data, kinds, 16).items()}
    for kind in kinds:
        a, b = got[(0, 1, 3)][kind], got[(0, 1, 2)][kind]
        assert all(a.get(k, 0) == b.get(k, 0) for k in a.keys() | b.keys()), kind
    ds = got[(0, 1, 3)][OperatorKind.DsThetaPrime]
    assert ds[(8, (2,))] == 8 and ds[(16, (2,))] == 128
    assert ds[(8, (1,))] == 0 and (8, (1,)) not in got[(0, 1, 2)][OperatorKind.DsThetaPrime]
