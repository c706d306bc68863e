import json

import pytest

from hocofin import fincat
from hocofin.diagrams import AbDiagram, GroupDiagram, constant_ab_diagram, constant_group_diagram
from hocofin.fincat import (
    Functor,
    from_monoid,
    identity_functor,
    opposite,
    validate_category,
)
from hocofin.groups import FreeProduct, GroupHom, cyclic_group, trivial_group
from hocofin.cofinal import weakest
from hocofin.gz import (
    agreement,
    andre_homology,
    bw_homology,
    bw_sides,
    certify_fibres,
    certify_slices,
    direct_image,
    elements_functor,
    gz_homology,
    inverse_image,
)
from hocofin.homalg import FGAb
from hocofin.presheaf import (
    DSet,
    DSetMorphism,
    constant_singleton,
    dset_disjoint_union,
    elements_with_parts,
    empty_dset,
    representable,
)


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span")


def one():
    return validate_category(["*"], [], [], name="1")


def z2cat():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")


def iso2():
    return validate_category(
        ["a", "b"],
        [("u", "a", "b"), ("v", "b", "a")],
        [("v", "u", "id_a"), ("u", "v", "id_b")],
        name="iso2",
    )


def interval_dset():
    """Pushout-shaped presheaf over the span: two cells glued along one
    middle element, with a span-shaped (contractible) elements category."""
    P = span()
    X = DSet(
        P,
        {"l": ["x"], "c": ["y"], "r": ["z"]},
        {"p": {"x": "y"}, "q": {"z": "y"}},
        name="interval",
    )
    return P, X


def const_ab_system(X, group):
    E, _, _ = elements_with_parts(X)
    return constant_ab_diagram(opposite(E), group)


def const_grp_system(X, fp):
    E, _, _ = elements_with_parts(X)
    return constant_group_diagram(opposite(E), fp)


def test_gz_homology_of_representable():
    two = walking_arrow()
    hb = representable(two, "b")
    res = gz_homology(hb, const_ab_system(hb, FGAb.cyclic(4)), 2)
    assert res["abelian"] == [FGAb.cyclic(4), FGAb.trivial(), FGAb.trivial()]
    assert res["routes_agree"]


def test_gz_homology_of_empty():
    P = span()
    X = empty_dset(P)
    res = gz_homology(X, const_ab_system(X, FGAb.free(1)), 1)
    assert res["abelian"] == [FGAb.trivial(), FGAb.trivial()]


def test_gz_homology_two_point_discrete():
    two = walking_arrow()
    # two disjoint representables at b: elements category is two copies
    X = dset_disjoint_union(representable(two, "b"), representable(two, "b"))
    res = gz_homology(X, const_ab_system(X, FGAb.free(1)), 1)
    assert res["abelian"] == [FGAb.free(2), FGAb.trivial()]


def test_gz_homology_interval_and_nonconstant_system():
    P, X = interval_dset()
    res = gz_homology(X, const_ab_system(X, FGAb.free(1)), 2)
    assert res["abelian"] == [FGAb.free(1), FGAb.trivial(), FGAb.trivial()]
    # nonconstant system on the zigzag elements category: values Z at the
    # edges, Z/2 at the middle points, transport the nonzero map Z -> Z/2
    E, _, parts = elements_with_parts(X)
    Eop = opposite(E)
    z, z2 = FGAb.free(1), FGAb.cyclic(2)
    value = {}
    for o, (d, x) in parts.items():
        value[o] = z if d in ("l", "r") else z2
    from hocofin.homalg import AbMap, IntMatrix

    action = {}
    for m in Eop.morphisms:
        if Eop.is_identity(m):
            continue
        src, dst = Eop.dom[m], Eop.cod[m]
        action[m] = AbMap(value[src], value[dst], IntMatrix([[1]]))
    sysM = AbDiagram(Eop, value, action)
    res2 = gz_homology(X, sysM, 2)
    assert res2["routes_agree"]


def test_gz_homology_group_coefficients():
    P, X = interval_dset()
    res = gz_homology(X, const_grp_system(X, FreeProduct.from_group("A", cyclic_group(3))), 1)
    from hocofin.groups import fingerprint_of_table_group

    assert tuple(res["n0"]["fingerprint"]) == fingerprint_of_table_group(cyclic_group(3))


def test_direct_image_identity():
    two = walking_arrow()
    hb = representable(two, "b")
    f = DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in two.objects})
    rep = direct_image(f, const_ab_system(hb, FGAb.cyclic(2)), 2)
    assert rep["verdict"] == "agree"


def test_direct_image_inclusion_and_collapse():
    two = walking_arrow()
    hb = representable(two, "b")
    ha = representable(two, "a")
    X = dset_disjoint_union(ha, hb)
    # inclusion of h_b into the union
    incl = DSetMorphism(
        hb, X, {o: {x: "1.%s" % x for x in hb.sets[o]} for o in two.objects}
    )
    rep = direct_image(incl, const_ab_system(hb, FGAb.free(1)), 2)
    assert rep["verdict"] == "agree"
    # collapse of the union onto h_b
    comp = {}
    for o in two.objects:
        table = {}
        for x in X.sets[o]:
            tag, val = x.split(".", 1)
            table[x] = val if tag == "1" else two.comp[("u", val)]
        comp[o] = table
    coll = DSetMorphism(X, hb, comp)
    rep2 = direct_image(coll, const_ab_system(X, FGAb.cyclic(3)), 2)
    assert rep2["verdict"] == "agree"
    # non-abelian coefficients through the same collapse
    rep3 = direct_image(coll, const_grp_system(X, FreeProduct.from_group("A", cyclic_group(2))), 1)
    assert rep3["verdict"] == "agree"


def test_direct_image_nonconstant_system():
    # values vary across the elements category of the union, and the one
    # nonidentity transport is a genuine quotient map
    two = walking_arrow()
    X = dset_disjoint_union(representable(two, "a"), representable(two, "b"))
    E, Q, parts = elements_with_parts(X)
    Eop = opposite(E)
    oid = {(d, x): o for o, (d, x) in parts.items()}
    z4, z2, z3 = FGAb.cyclic(4), FGAb.cyclic(2), FGAb.cyclic(3)
    value = {
        oid[("a", "0.id_a")]: z3,
        oid[("a", "1.u")]: z2,
        oid[("b", "1.id_b")]: z4,
    }
    from hocofin.homalg import AbMap, IntMatrix

    action = {}
    for m in Eop.morphisms:
        if Eop.is_identity(m):
            continue
        action[m] = AbMap(value[Eop.dom[m]], value[Eop.cod[m]], IntMatrix([[1]]))
    sysM = AbDiagram(Eop, value, action)
    # push forward along the collapse onto the representable
    comp = {}
    for o in two.objects:
        table = {}
        for x in X.sets[o]:
            tag, val = x.split(".", 1)
            table[x] = val if tag == "1" else two.comp[("u", val)]
        comp[o] = table
    hb = representable(two, "b")
    f = DSetMorphism(X, hb, comp)
    rep = direct_image(f, sysM, 2)
    assert rep["verdict"] == "agree"
    # the nonabelian analogue with a quotient homomorphism as transport
    from hocofin.groups import GroupHom as GH

    fz4 = FreeProduct.from_group("A", cyclic_group(4))
    fz2 = FreeProduct.from_group("B", cyclic_group(2))
    fz3 = FreeProduct.from_group("C", cyclic_group(3))
    gvalue = {
        oid[("a", "0.id_a")]: fz3,
        oid[("a", "1.u")]: fz2,
        oid[("b", "1.id_b")]: fz4,
    }
    red = GH(fz4, fz2, {"A": {"0": (), "1": (("B", "1"),), "2": (), "3": (("B", "1"),)}})
    gaction = {}
    for m in Eop.morphisms:
        if Eop.is_identity(m):
            continue
        gaction[m] = red
    sysG = GroupDiagram(Eop, gvalue, gaction)
    rep2 = direct_image(f, sysG, 1)
    assert rep2["verdict"] == "agree"


def test_agreement_compares_groups_and_the_degree_0_fingerprint():
    z, z2 = FGAb.free(1), FGAb.cyclic(2)
    assert agreement({"abelian": [z]}, {"abelian": [z]}) == "agree"
    assert agreement({"abelian": [z]}, {"abelian": [z2]}) == "disagree"
    group = {"abelian": [z], "n0": {"fingerprint": [1, 2]}}
    assert agreement(group, dict(group)) == "agree"
    assert agreement(group, dict(group, n0={"fingerprint": [1, 1]})) == "disagree"
    assert agreement(group, dict(group, abelian=[z2])) == "disagree"


def dhiso(f, system, n_max):
    """The weakest fibre verdict along f, and whether the homology of the
    pulled-back system agrees with that of the system."""
    hypothesis = weakest(certify_fibres(f, n_max).values()).kind
    lhs = gz_homology(f.source, inverse_image(f, system), n_max)
    rhs = gz_homology(f.target, system, n_max)
    return hypothesis, agreement(lhs, rhs)


def verify_json(capsys, theorem, fixture, *flags):
    """The json report of ``verify`` on a built-in fixture."""
    from hocofin.cli import main

    capsys.readouterr()
    code = main(["--format", "json", "verify", "--theorem", theorem, "--fixture", fixture, *flags])
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == code
    return report


def test_inverse_image_and_dhiso_iso():
    two = walking_arrow()
    hb = representable(two, "b")
    f = DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in two.objects})
    assert dhiso(f, const_ab_system(hb, FGAb.cyclic(4)), 2) == ("CONTRACTIBLE", "agree")


def test_dhiso_two_point_fibre():
    # parallel pair: the fibre of id over (b, id_b) has two points at a and
    # its elements category is a cospan with a final object
    par = validate_category(["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [], name="par")
    hb = representable(par, "b")
    f = DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in par.objects})
    assert dhiso(f, const_ab_system(hb, FGAb.cyclic(2)), 2) == ("CONTRACTIBLE", "agree")


def test_dhiso_hypothesis_fails_cleanly(capsys):
    # two disjoint cells: the fibre over the middle object has two points
    # in two components, so its elements category is not contractible
    P = span()
    X = DSet(
        P,
        {"l": ["x"], "c": ["y1", "y2"], "r": ["z"]},
        {"p": {"x": "y1"}, "q": {"z": "y2"}},
        name="two-cells",
    )
    pt = constant_singleton(P)
    f = DSetMorphism(X, pt, {o: {x: "*" for x in X.sets[o]} for o in P.objects})
    assert weakest(certify_fibres(f, 1).values()).kind == "NONCONTRACTIBLE"
    # the same morphism as the two-cells-collapse fixture: the CLI stops at
    # the hypothesis and gives no verdict
    report = verify_json(capsys, "dhiso", "two-cells-collapse")
    assert report["exit"] == 3 and "verdict" not in report
    assert report["hypothesis"] == "NONCONTRACTIBLE"
    assert report["hypothesis_mode"] == "not certified"


def test_bw_homology_point_and_arrow():
    res = bw_homology(one(), const_nsys(one(), FGAb.cyclic(5)), 2)
    assert res["abelian"] == [FGAb.cyclic(5), FGAb.trivial(), FGAb.trivial()]
    res2 = bw_homology(walking_arrow(), const_nsys(walking_arrow(), FGAb.free(1)), 2)
    assert res2["abelian"] == [FGAb.free(1), FGAb.trivial(), FGAb.trivial()]


def const_nsys(C, group):
    fdata = fincat.factorization(C)
    return constant_ab_diagram(opposite(fdata.category), group)


def const_grp_nsys(C, fp):
    fdata = fincat.factorization(C)
    return constant_group_diagram(opposite(fdata.category), fp)


def test_bw_homology_span():
    res = bw_homology(span(), const_nsys(span(), FGAb.free(1)), 2)
    assert res["abelian"] == [FGAb.free(1), FGAb.trivial(), FGAb.trivial()]


def test_bw_homology_z2_matches_group_homology():
    # the factorization category of a group is equivalent to the group, so
    # constant-Z natural-system homology reproduces H_*(BZ/2)
    res = bw_homology(z2cat(), const_nsys(z2cat(), FGAb.free(1)), 2)
    assert res["abelian"] == [FGAb.free(1), FGAb.cyclic(2), FGAb.trivial()]
    assert res["routes_agree"]


def test_bw_homology_z3_matches_group_homology():
    # the former wall: 3/24/192/1536 factorization chains in degrees 0-3
    z3 = cyclic_group(3)
    C = from_monoid(z3.elements, z3.unit, z3.table, name="Z3")
    res = bw_homology(C, const_nsys(C, FGAb.free(1)), 2)
    assert res["abelian"] == [FGAb.free(1), FGAb.cyclic(3), FGAb.trivial()]
    assert res["routes_agree"]


def test_bw_homology_respects_op():
    # transport the constant system along the isomorphism F(C^op) = F(C)
    C = walking_arrow()
    res1 = bw_homology(C, const_nsys(C, FGAb.cyclic(6)), 2)
    res2 = bw_homology(opposite(C), const_nsys(opposite(C), FGAb.cyclic(6)), 2)
    assert res1["abelian"] == res2["abelian"]


def test_bw_group_coefficients():
    res = bw_homology(walking_arrow(), const_grp_nsys(walking_arrow(), FreeProduct.from_group("A", cyclic_group(2))), 1)
    from hocofin.groups import fingerprint_of_table_group

    assert tuple(res["n0"]["fingerprint"]) == fingerprint_of_table_group(cyclic_group(2))


def bw_invariance(S, system, n_max):
    """The weakest slice verdict of S, and whether the two sides agree."""
    return weakest(certify_slices(S, n_max).values()).kind, agreement(*bw_sides(S, system, n_max))


def test_confhomol_bw_identity_and_equivalence():
    two = walking_arrow()
    got = bw_invariance(identity_functor(two), const_nsys(two, FGAb.cyclic(2)), 1)
    assert got == ("CONTRACTIBLE", "agree")
    # the inclusion of one endpoint of the isomorphism interval is an
    # equivalence and satisfies the slice hypothesis
    pt = one()
    S = Functor(pt, iso2(), {"*": "a"}, {})
    assert bw_invariance(S, const_nsys(iso2(), FGAb.free(1)), 1) == ("CONTRACTIBLE", "agree")


def test_confhomol_bw_hypothesis_fails(capsys):
    pt = one()
    two = walking_arrow()
    S = Functor(pt, two, {"*": "b"}, {})
    slices = certify_slices(S, 1)
    assert slices["id_a"].kind == "NONCONTRACTIBLE"
    # the same functor and system as the final-in-two fixture
    report = verify_json(capsys, "confhomolBW", "final-in-two")
    assert report["exit"] == 3
    assert report["systems"]["ab_system"]["verdict"] == "hypothesis fails"
    assert "alpha=" in report["systems"]["ab_system"]["witness"]


def test_andre_homology_representable():
    two = walking_arrow()
    hb = representable(two, "b")
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    G = constant_group_diagram(two, z3)
    res = andre_homology(hb, G, 2)
    from hocofin.groups import fingerprint_of_table_group

    assert tuple(res["n0"]["fingerprint"]) == fingerprint_of_table_group(cyclic_group(3))
    assert res["abelian"][1] == FGAb.trivial()
    assert res["abelian"][2] == FGAb.trivial()


def test_andre_homology_empty():
    P = span()
    X = empty_dset(P)
    M = constant_ab_diagram(P, FGAb.cyclic(2))
    res = andre_homology(X, M, 1)
    assert res["abelian"] == [FGAb.trivial(), FGAb.trivial()]


def test_andre_matches_gz_for_invertible_diagrams():
    # for a diagram of isomorphisms, pulling back along the projection and
    # inverting gives a contravariant system with the same homology
    C = iso2()
    z3 = cyclic_group(3)
    fp = FreeProduct.from_group("A", z3)
    inv = GroupHom(fp, fp, {"A": {"0": (), "1": (("A", "2"),), "2": (("A", "1"),)}})
    G = GroupDiagram(C, {"a": fp, "b": fp}, {"u": inv, "v": inv})
    X = constant_singleton(C)
    E, Q, _ = elements_with_parts(X)
    pulled = G.restrict(Q)
    # the contravariant system obtained by inverting each homomorphism;
    # here every action is the self-inverse inversion map, so the system
    # reuses it with the opposite orientation
    Eop = opposite(E)
    sys_actions = {
        m: inv for m in Eop.morphisms if not Eop.is_identity(m)
    }
    sysG = GroupDiagram(Eop, dict(pulled.value), sys_actions)
    lhs = andre_homology(X, G, 1)
    rhs = gz_homology(X, sysG, 1)
    assert lhs["n0"]["fingerprint"] == rhs["n0"]["fingerprint"]
    assert lhs["abelian"] == rhs["abelian"]
