import pytest

from hocofin import fincat, presheaf
from hocofin.fincat import Functor, from_monoid, identity_functor, validate_category
from hocofin.groups import GroupPresentation, cyclic_group, fingerprint, hom_count, tietze_simplify
from hocofin.homalg import FGAb
from hocofin.presheaf import (
    DSet,
    DSetMorphism,
    LevelTooLow,
    NaturalityViolation,
    NotConnected,
    TruncSSet,
    constant_singleton,
    dset_disjoint_union,
    edge_path_group,
    elements_with_parts,
    empty_dset,
    homology_ss,
    inverse_fibre,
    nerve,
    representable,
    standard_simplex,
)


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span")


def z2cat():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")


def test_nerve_of_walking_arrow():
    X = nerve(walking_arrow(), 2)
    assert len(X.nondegenerate(0)) == 2
    assert len(X.nondegenerate(1)) == 1
    assert len(X.nondegenerate(2)) == 0


def test_nerve_of_z2_counts():
    X = nerve(z2cat(), 3)
    for n in range(4):
        assert len(X.simplices[n]) == (2 ** n if n else 1)
        assert len(X.nondegenerate(n)) == 1  # the all-t chain (the vertex at n=0)


def test_nerve_of_span_counts():
    X = nerve(span(), 2)
    assert len(X.nondegenerate(0)) == 3
    assert len(X.nondegenerate(1)) == 2
    assert len(X.nondegenerate(2)) == 0


def test_standard_simplex_validates():
    X = standard_simplex(1, 3, basepoint=0)
    assert [len(s) for s in X.simplices] == [2, 3, 4, 5]
    assert len(X.nondegenerate(1)) == 1


def test_homology_of_contractible_nerve():
    X = nerve(walking_arrow(), 3)
    assert homology_ss(X, 2) == [FGAb.free(1), FGAb.trivial(), FGAb.trivial()]


def test_homology_of_bz2():
    # independent bar-complex oracle for H_*(Z/2; Z) lives in the diagrams
    # tests; here the classical values are asserted directly
    X = nerve(z2cat(), 4)
    assert homology_ss(X, 3) == [
        FGAb.free(1),
        FGAb.cyclic(2),
        FGAb.trivial(),
        FGAb.cyclic(2),
    ]


def test_homology_of_two_points():
    D = validate_category(["x", "y"], [], [])
    X = nerve(D, 2)
    assert homology_ss(X, 1) == [FGAb.free(2), FGAb.trivial()]


def test_homology_level_too_low():
    X = nerve(walking_arrow(), 2)
    with pytest.raises(LevelTooLow):
        homology_ss(X, 2)


def test_elements_of_representable_has_final_object():
    two = walking_arrow()
    E, proj, _ = elements_with_parts(representable(two, "b"))
    assert fincat.final_objects(E) == ["(b|id_b)"]
    assert fincat.iso_check(E, two) is not None
    assert proj.target is two


def test_a_presheaf_is_empty_where_no_set_is_given():
    two = validate_category(["a", "b"], [("u", "a", "b")], [])
    X = DSet(two, {"a": ["x"]}, {"u": {}})
    assert X.sets == {"a": ["x"], "b": []}


def test_elements_of_empty_and_constant():
    P = span()
    E, _, _ = elements_with_parts(empty_dset(P))
    assert E.objects == []
    E2, _, _ = elements_with_parts(constant_singleton(P))
    assert fincat.iso_check(E2, P) is not None


def test_inverse_fibre_of_identity_on_representable():
    two = walking_arrow()
    hb = representable(two, "b")
    f = DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in two.objects})
    fib = inverse_fibre(f, "b", "id_b")
    # pullback of h_b against itself along the identity is h_b again
    assert sorted(len(v) for v in fib.sets.values()) == sorted(len(v) for v in hb.sets.values())


def test_inverse_fibre_against_brute_force_pullback():
    two = walking_arrow()
    ha = representable(two, "a")
    hb = representable(two, "b")
    X = dset_disjoint_union(ha, hb)
    # collapse: the unique map X -> h_b
    comp = {}
    for o in two.objects:
        table = {}
        for x in X.sets[o]:
            tag, val = x.split(".", 1)
            if tag == "1":
                table[x] = val
            else:
                # h_a(o) element alpha: o -> a maps to u∘alpha in h_b(o)
                table[x] = two.comp[("u", val)]
        comp[o] = table
    f = DSetMorphism(X, hb, comp)
    fib = inverse_fibre(f, "b", "id_b")
    # brute force: elements of the pullback X x_Y h_d at each object
    for o in two.objects:
        expected = set()
        for x in X.sets[o]:
            for alpha in two.hom(o, "b"):
                if f.at(o, x) == hb.apply(alpha, "id_b"):
                    expected.add((x, alpha))
        got = set()
        for eid in fib.sets[o]:
            inner = eid[1:-1].split("|")
            got.add((inner[0], inner[1]))
        assert got == expected


def test_naturality_checked():
    two = walking_arrow()
    ha = representable(two, "a")
    hb = representable(two, "b")
    # h_a(b) is empty so the only component is at a; this one is natural
    DSetMorphism(ha, hb, {"a": {"id_a": "u"}, "b": {}})
    # a genuinely non-natural map: the component at c disagrees with
    # transport along p
    P = span()
    X = DSet(P, {"l": ["x1"], "c": ["y"], "r": []},
             {"p": {"x1": "y"}, "q": {}})
    Z = DSet(P, {"l": ["z1", "z2"], "c": ["w1", "w2"], "r": []},
             {"p": {"z1": "w1", "z2": "w2"}, "q": {}})
    with pytest.raises(NaturalityViolation):
        DSetMorphism(X, Z, {"l": {"x1": "z1"}, "c": {"y": "w2"}, "r": {}})


def test_edge_path_group_of_bz2():
    X = nerve(z2cat(), 2, basepoint="*")
    P = edge_path_group(X)
    Q = GroupPresentation(["x"], [["x", "x"]])
    assert fingerprint(tietze_simplify(P)) == fingerprint(Q)
    assert hom_count(tietze_simplify(P), cyclic_group(2)) == 2


def test_edge_path_group_of_interval():
    X = standard_simplex(1, 2, basepoint=0)
    P = edge_path_group(X)
    assert fingerprint(tietze_simplify(P)) == tuple(1 for _ in range(14))


def test_edge_path_group_of_wedge_of_circles():
    # one vertex, two nondegenerate loops, no nondegenerate 2-simplices
    v = "v"
    e0 = ("e0",)
    e1 = ("e1",)
    sv = ("sv",)
    simplices = [[v], [sv, e0, e1]]
    # level-2 filler: degeneracies of the three edges
    deg2 = [("s0", x) for x in simplices[1]] + [("s1", x) for x in simplices[1]]
    # s0 s0 v = s1 s0 v collapses: name degree-2 ids canonically via identities
    # use the generic construction instead: faces/degens written by hand
    faces = {
        (1, 0): {sv: v, e0: v, e1: v},
        (1, 1): {sv: v, e0: v, e1: v},
    }
    degens0 = {(0, 0): {v: sv}}
    # degree 2: s_0 e and s_1 e for each edge e, with s_0 sv == s_1 sv
    d2 = []
    f20 = {}
    f21 = {}
    f22 = {}
    s10 = {}
    s11 = {}
    for e in (sv, e0, e1):
        for tag in ("s0", "s1"):
            if e == sv and tag == "s1":
                continue  # s1 sv = s0 sv
            d2.append((tag, e))
    for tag, e in d2:
        if tag == "s0":
            f20[(tag, e)] = e
            f21[(tag, e)] = e
            f22[(tag, e)] = sv  # s0 d1
        else:
            f20[(tag, e)] = sv  # s0 d0
            f21[(tag, e)] = e
            f22[(tag, e)] = e
    for e in (sv, e0, e1):
        s10[e] = ("s0", e)
        s11[e] = ("s1", e) if e != sv else ("s0", sv)
    X = TruncSSet(
        2,
        [simplices[0], simplices[1], d2],
        {**faces, (2, 0): f20, (2, 1): f21, (2, 2): f22},
        {**degens0, (1, 0): s10, (1, 1): s11},
        basepoint=v,
    )
    P = edge_path_group(X)
    from hocofin.groups import symmetric_group_3

    assert hom_count(tietze_simplify(P), symmetric_group_3()) == 36


def test_edge_path_group_not_connected():
    D = validate_category(["x", "y"], [], [])
    X = nerve(D, 2, basepoint="x")
    with pytest.raises(NotConnected):
        edge_path_group(X)


@pytest.mark.parametrize("basepoint", ["a", "p"])
def test_edge_path_group_not_connected_with_edges(basepoint):
    # the walking arrow a -> b beside a lone point p: from a the spanning
    # tree takes the edge u and still misses p; from p it takes nothing
    D = validate_category(["a", "b", "p"], [("u", "a", "b")], [])
    X = nerve(D, 2, basepoint=basepoint)
    assert X.nondegenerate(1) == [("a", "u")]
    with pytest.raises(NotConnected):
        edge_path_group(X)


def test_edge_path_fingerprint_matches_group_for_catalog_targets():
    from hocofin.groups import fingerprint_of_table_group

    for G in (cyclic_group(2), cyclic_group(3)):
        cat = from_monoid(G.elements, G.unit, G.table, name=G.name)
        X = nerve(cat, 2, basepoint="*")
        P = tietze_simplify(edge_path_group(X))
        assert fingerprint(P) == fingerprint_of_table_group(G)
