import json

import pytest

from hocofin import fixtures
from hocofin.cofinal import certify_homotopy_cofinal
from hocofin.diagrams import GroupDiagram, colim0, constant_group_diagram
from hocofin.fincat import Functor, from_monoid, identity_functor, validate_category
from hocofin.groups import (
    BudgetExceeded,
    FreeProduct,
    GroupHom,
    cyclic_group,
    fingerprint,
    tietze_simplify,
    trivial_group,
    word_key,
)
from hocofin.homalg import FGAb
from hocofin.hocolim import (
    CapExceeded,
    PointedDiagram,
    bg_diagram,
    classifying_space,
    compare_restriction,
    hocolim_pointed,
    hocolim_unpointed,
    pointed_quotient_check,
)
from hocofin.presheaf import (
    PresheafError,
    SSetMap,
    edge_path_group,
    homology_ss,
    nerve,
    standard_simplex,
)
from oracles import hocolim_cardinalities


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span")


def one():
    return validate_category(["*"], [], [], name="1")


def span_z2_z3():
    P = span()
    z2 = FreeProduct.from_group("L", cyclic_group(2))
    onegrp = FreeProduct.from_group("C", trivial_group())
    z3 = FreeProduct.from_group("R", cyclic_group(3))
    actions = {
        "p": GroupHom(onegrp, z2, {"C": {"0": ()}}),
        "q": GroupHom(onegrp, z3, {"C": {"0": ()}}),
    }
    return GroupDiagram(P, {"l": z2, "c": onegrp, "r": z3}, actions, name="Z2<-1->Z3")


def point_diagram(C, N):
    pt = standard_simplex(0, N, basepoint=0)
    return PointedDiagram(
        C, N, {o: pt for o in C.objects}, {f: SSetMap.identity(pt) for f in C.morphisms}
    )


def test_classifying_space_counts():
    cat, B = classifying_space(cyclic_group(2), 3)
    assert cat.objects == ["*"] and len(cat.morphisms) == 2
    assert [len(s) for s in B.simplices] == [1, 2, 4, 8]
    _, Bt = classifying_space(trivial_group(), 3)
    assert [len(s) for s in Bt.simplices] == [1, 1, 1, 1]


def test_classifying_space_top_simplex_cap():
    # 8^6 top simplices is over the cap of 10^5, and nothing is built
    with pytest.raises(CapExceeded, match="^classifying space has 262144 top simplices$"):
        classifying_space(cyclic_group(8), 6)


def test_classifying_space_free_product_cap():
    fp = FreeProduct([("A", cyclic_group(2)), ("B", cyclic_group(3))])
    with pytest.raises(CapExceeded):
        classifying_space(fp, 2)


def test_hocolim_of_constant_point_is_nerve_carrier():
    for C in (walking_arrow(), span()):
        PD = point_diagram(C, 3)
        H = hocolim_pointed(PD, 3)
        # everything collapses to the basepoint chain classes: one class
        # plus nothing else per degree
        assert [len(s) for s in H.simplices] == [1, 1, 1, 1]
        U = hocolim_unpointed(PD, 3)
        X = nerve(C, 3)
        assert [len(s) for s in U.simplices] == [len(s) for s in X.simplices]


def test_hocolim_over_point_is_the_value():
    C = one()
    X = standard_simplex(1, 2, basepoint=0)
    PD = PointedDiagram(C, 2, {"*": X}, {})
    H = hocolim_pointed(PD, 2)
    assert [len(s) for s in H.simplices] == [len(s) for s in X.simplices]
    assert homology_ss(H, 1) == homology_ss(X, 1)


def test_hocolim_cardinality_formula():
    G = span_z2_z3()
    PD = bg_diagram(G, 3)
    H = hocolim_pointed(PD, 3)
    assert [len(s) for s in H.simplices] == hocolim_cardinalities(PD, 3)
    # degree 3 count worked out by hand: 1 + (8-1) + (27-1)
    assert len(H.simplices[3]) == 34


def test_main2_n0_span_fixture():
    G = span_z2_z3()
    PD = bg_diagram(G, 3)
    H = hocolim_pointed(PD, 3)
    pi1 = fingerprint(tietze_simplify(edge_path_group(H)))
    c0 = fingerprint(colim0(G.base, G))
    assert pi1 == c0
    # the free product Z2 * Z3 admits 12 homomorphisms into S3
    from hocofin.groups import catalog

    idx = [i for i, T in enumerate(catalog()) if T.name == "S3"]
    assert pi1[idx[0]] == 12


def _counted_checks(monkeypatch):
    checked = []
    real = SSetMap._check

    def spy(self, pointed):
        checked.append(self)
        return real(self, pointed)

    monkeypatch.setattr(SSetMap, "_check", spy)
    return checked


def test_bg_diagram_checks_each_action_once(monkeypatch):
    from hocofin import hocolim

    checked = _counted_checks(monkeypatch)
    arrow_maps = []
    real = hocolim._check_arrow_map

    def spy(mor, src, dst, N):
        arrow_maps.append(mor)
        return real(mor, src, dst, N)

    monkeypatch.setattr(hocolim, "_check_arrow_map", spy)
    PD = bg_diagram(fixtures.diag_span_z2_z3(), 4)
    # each arrow of the span once, on its element map; no nerve map is
    # checked face by face, and the identities filled in are not checked
    assert checked == []
    assert len(arrow_maps) == 2
    for f, mor in zip(("p", "q"), arrow_maps):
        assert PD.action[f].mapping[1] == {("*", m): ("*", image) for m, image in mor.items()}


def _z3_arrow():
    z3a = FreeProduct.from_group("A", cyclic_group(3))
    z3b = FreeProduct.from_group("B", cyclic_group(3))
    return GroupDiagram(walking_arrow(), {"a": z3a, "b": z3b},
                        {"u": GroupHom(z3a, z3b, {"A": {e: (("B", e),) for e in "012"}})})


def _fully_checked_action(G, alpha, N):
    """The action of alpha on classifying spaces built as the nerve map of
    its element map and checked by ``SSetMap._check``: None, or the
    message of the refusal."""
    src, Xs = classifying_space(G.value[G.base.dom[alpha]], N)
    dst, Xt = classifying_space(G.value[G.base.cod[alpha]], N)
    words = {word_key(w): w for w in G.value[G.base.dom[alpha]].elements()}

    def image(m):
        if src.is_identity(m):
            return dst.identity["*"]
        key = word_key(G.action[alpha].apply(words[m]))
        return dst.identity["*"] if key == "1" else key

    mapping = [{x: x[:1] + tuple(image(m) for m in x[1:]) for x in Xs.simplices[n]}
               for n in range(N + 1)]
    try:
        SSetMap(Xs, Xt, mapping, pointed=True)
    except PresheafError as exc:
        return str(exc)
    return None


# an element map that GroupHom.apply gives once broken, and the refusal
# from each level on
BROKEN_ELEMENT_MAPS = {
    # B.1 B.1 is no reduced word, so no element of B(Z/3)
    "image-no-element": (lambda self, word: (("B", "1"), ("B", "1")) if word else (),
                         1, "map not total in degree 1"),
    # every element to the generator
    "not-multiplicative": (lambda self, word: (("B", "1"),) if word else (),
                           2, "map does not commute with d_1"),
}


@pytest.mark.parametrize("N", [0, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(BROKEN_ELEMENT_MAPS))
def test_bg_diagram_refuses_what_the_full_check_refuses(monkeypatch, case, N):
    apply, first_level, message = BROKEN_ELEMENT_MAPS[case]
    G = _z3_arrow()
    monkeypatch.setattr(GroupHom, "apply", apply)
    want = _fully_checked_action(G, "u", N)
    assert want == (message if N >= first_level else None)
    if want is None:
        assert bg_diagram(G, N).action["u"].mapping[0] == {("*",): ("*",)}
    else:
        with pytest.raises(PresheafError, match="^%s$" % want):
            bg_diagram(G, N)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS))
def test_every_bg_action_passes_the_full_check(name, N):
    G = fixtures.DIAGRAMS[name]()
    PD = bg_diagram(G, N)
    for f in G.base.morphisms:
        PD.action[f]._check(pointed=True)


def test_a_workspace_pointed_diagram_checks_each_map_once(monkeypatch):
    from hocofin._jsonio import Workspace
    from test_cli import GOOD_WORKSPACE

    ws = Workspace()
    ws.load_data(GOOD_WORKSPACE)
    checked = _counted_checks(monkeypatch)
    PD = ws.get("pointed_diagrams", "pd")
    # by the map's constructor; the diagram checks only its ends
    assert list(map(id, checked)) == [id(PD.action["u"])]


def test_bg_diagram_refuses_an_action_that_is_no_simplicial_map(monkeypatch):
    z3a = FreeProduct.from_group("A", cyclic_group(3))
    z3b = FreeProduct.from_group("B", cyclic_group(3))
    G = GroupDiagram(walking_arrow(), {"a": z3a, "b": z3b},
                     {"u": GroupHom(z3a, z3b, {"A": {e: (("B", e),) for e in "012"}})})
    bg_diagram(G, 2)
    # every element to the generator: no homomorphism, and the images of
    # the 2-simplex (1, 1) and of its inner face 2 disagree
    monkeypatch.setattr(GroupHom, "apply", lambda self, word: (("B", "1"),) if word else ())
    with pytest.raises(PresheafError, match="^map does not commute with d_1$"):
        bg_diagram(G, 2)


def test_main2_n0_constant_diagram():
    two = walking_arrow()
    z2 = FreeProduct.from_group("A", cyclic_group(2))
    G = constant_group_diagram(two, z2)
    PD = bg_diagram(G, 3)
    H = hocolim_pointed(PD, 3)
    assert fingerprint(tietze_simplify(edge_path_group(H))) == fingerprint(
        colim0(two, G)
    )


def test_main2_n0_group_action_base():
    C = from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    G = constant_group_diagram(C, z3)
    PD = bg_diagram(G, 3)
    H = hocolim_pointed(PD, 3)
    assert fingerprint(tietze_simplify(edge_path_group(H))) == fingerprint(
        colim0(C, G)
    )


def test_lcodecar_on_fixtures():
    fixtures = [
        point_diagram(span(), 3),
        bg_diagram(span_z2_z3(), 3),
        bg_diagram(constant_group_diagram(walking_arrow(), FreeProduct.from_group("A", cyclic_group(2))), 3),
    ]
    C = walking_arrow()
    interval = standard_simplex(1, 3, basepoint=0)
    pt = standard_simplex(0, 3, basepoint=0)
    collapse = SSetMap(
        interval,
        pt,
        [{x: pt.simplices[n][0] for x in interval.simplices[n]} for n in range(4)],
        pointed=True,
    )
    fixtures.append(PointedDiagram(C, 3, {"a": interval, "b": pt}, {"u": collapse}))
    for PD in fixtures:
        report = pointed_quotient_check(PD, 3)
        assert report["pass"], report


def test_hocolim_simplicial_identities_validated():
    # construction skips the TruncSSet validator, so run it; also
    # spot-check a face
    G = span_z2_z3()
    H = hocolim_pointed(bg_diagram(G, 3), 3)
    H._check()
    e = [c for c in H.simplices[1] if c != "*"]
    assert e, "expected nondegenerate edges"
    for cell in e:
        assert H.face(1, 0, cell) == "*"
        assert H.face(1, 1, cell) == "*"


def test_cofinal_compare_final_object_inclusion():
    two = walking_arrow()
    pt = one()
    S = Functor(pt, two, {"*": "b"}, {})
    z2 = FreeProduct.from_group("A", cyclic_group(2))
    PD = bg_diagram(constant_group_diagram(two, z2), 3)
    assert certify_homotopy_cofinal(S, n_max=2)["aggregate"] == "CONTRACTIBLE"
    report = compare_restriction(S, PD, 3, 2)
    assert report["verdict"] == "agree"
    assert report["homology"]["lhs"] == ["Z", "Z/2", "0"]


def verify_cofpointed(capsys, fixture, *flags):
    from hocofin.cli import main

    capsys.readouterr()
    code = main(["--format", "json", "verify", "--theorem", "cofpointed", "--fixture", fixture,
                 *flags])
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == code
    return report


@pytest.mark.parametrize("fixture, flags, label, mode, code", [
    ("final-in-two", (), "certified", "certified", 0),
    ("noncofinal-a-in-2", (), "unconditional comparison", "not certified", 3),
    ("noncofinal-a-in-2", ("--assume-hypothesis",), "unconditional comparison", "assumed", 2),
])
def test_the_cofpointed_label_is_what_the_certificate_earns(fixture, flags, label, mode, code,
                                                            capsys):
    # the label reads the certificate whether or not the hypothesis is
    # assumed; hypothesis_mode and the exit code read the gate
    report = verify_cofpointed(capsys, fixture, *flags)
    assert (report["label"], report["hypothesis_mode"], report["exit"]) == (label, mode, code)


def test_an_evidence_hypothesis_labels_cofpointed_conditional(capsys, monkeypatch):
    from hocofin import cli

    real = cli.certify_homotopy_cofinal

    def evidence(*args, **kwargs):
        return dict(real(*args, **kwargs), aggregate="EVIDENCE")

    monkeypatch.setattr(cli, "certify_homotopy_cofinal", evidence)
    report = verify_cofpointed(capsys, "final-in-two")
    assert (report["label"], report["hypothesis_mode"], report["exit"]) == (
        "conditional", "conditional", 0)
    assert report["verdict"] == "agree"


def test_cofinal_compare_budget_refusal_propagates(monkeypatch, capsys):
    # a refused fingerprint is not agreement: it must reach the CLI as an error
    from hocofin import fixtures, hocolim
    from hocofin.cli import main

    def refuse(P):
        raise BudgetExceeded("hom count needs too many assignments")

    monkeypatch.setattr(hocolim, "fingerprint", refuse)
    fx = fixtures.load_fixture("cofpointed", "final-in-two")
    with pytest.raises(BudgetExceeded):
        compare_restriction(fx["functor"], fx["pointed_diagram"], fx["level"], 1)
    capsys.readouterr()
    assert main(["verify", "--theorem", "cofpointed", "--fixture", "final-in-two"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BudgetExceeded: hom count needs too many assignments\n"


def test_cofinal_compare_identity():
    P = span()
    PD = bg_diagram(span_z2_z3(), 3)
    S = identity_functor(P)
    assert certify_homotopy_cofinal(S, n_max=2)["aggregate"] == "CONTRACTIBLE"
    assert compare_restriction(S, PD, 3, 2)["verdict"] == "agree"


def test_certified_fixtures_agree_end_to_end():
    # every functor the certifier passes must also agree at the level of
    # pointed homotopy colimits of classifying-space diagrams
    from hocofin import fixtures

    for name in ("final-in-two", "id-span", "span-to-one", "iso2-a",
                 "cod-one", "cod-two", "cod-span", "cod-z2cat"):
        fx = fixtures.load_fixture("homoliso", name)
        S = fx["functor"]
        PD = bg_diagram(fx["group_diagram"], 2)
        assert certify_homotopy_cofinal(S, n_max=1)["aggregate"] == "CONTRACTIBLE", name
        report = compare_restriction(S, PD, 2, 1)
        assert report["verdict"] == "agree", (name, report)


def test_cofinal_compare_negative_control():
    # the inclusion of the initial object of the walking arrow is not
    # cofinal, and a diagram concentrated at b detects it
    two = walking_arrow()
    pt = one()
    S = Functor(pt, two, {"*": "a"}, {})
    z2 = FreeProduct.from_group("A", cyclic_group(2))
    triv = FreeProduct.from_group("T", trivial_group())
    G = GroupDiagram(
        two,
        {"a": triv, "b": z2},
        {"u": GroupHom(triv, z2, {"T": {"0": ()}})},
    )
    PD = bg_diagram(G, 3)
    assert certify_homotopy_cofinal(S, n_max=2)["aggregate"] == "NONCONTRACTIBLE"
    report = compare_restriction(S, PD, 3, 2)
    assert report["verdict"] == "disagree"
    assert report["homology"]["lhs"] != report["homology"]["rhs"]
