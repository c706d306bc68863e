import pytest

from hocofin import fincat, fixtures
from hocofin.fincat import (
    AssociativityViolation,
    CategoryError,
    Functor,
    MissingComposite,
    SizeLimitExceeded,
    comma_coslice,
    comma_left_fibre,
    composable_chains,
    connected_components,
    factor_functor,
    factor_slice,
    factorization,
    final_objects,
    from_monoid,
    full_subcategory,
    identity_functor,
    initial_objects,
    iso_check,
    opposite,
    validate_category,
)
from hocofin.presheaf import DSet, elements_with_parts


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(
        ["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span"
    )


def one():
    return validate_category(["*"], [], [], name="1")


def z2cat():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")


def test_walking_arrow_has_three_morphisms():
    C = walking_arrow()
    assert len(C.morphisms) == 3
    assert C.dom["u"] == "a" and C.cod["u"] == "b"


def test_span_has_five_morphisms():
    assert len(span().morphisms) == 5


def test_missing_composite_detected():
    with pytest.raises(MissingComposite):
        validate_category(
            ["a", "b", "c"],
            [("f", "a", "b"), ("g", "b", "c")],
            [],  # g∘f missing
        )


def test_idempotent_non_identity_validates():
    C = validate_category(["a"], [("u", "a", "a")], [("u", "u", "u")])
    assert C.comp[("u", "u")] == "u"


def test_inconsistent_table_rejected():
    # u∘u = u and u∘v = id but v = u forces a clash via associativity:
    # build a table where (w∘v)∘u != w∘(v∘u)
    with pytest.raises(AssociativityViolation):
        validate_category(
            ["a"],
            [("u", "a", "a"), ("v", "a", "a")],
            [
                ("u", "u", "v"),
                ("u", "v", "u"),
                ("v", "u", "u"),
                ("v", "v", "u"),
            ],
        )


def test_opposite_is_involution():
    for C in (walking_arrow(), span(), z2cat()):
        assert opposite(opposite(C)) == C


def test_opposite_of_abelian_group_category_is_itself_up_to_comp():
    C = z2cat()
    D = opposite(C)
    assert D.comp == C.comp  # abelian: transposed table equals itself


def test_comma_left_fibre_examples():
    two = walking_arrow()
    pt = one()
    S = Functor(pt, two, {"*": "b"}, {"id_*": "id_b"})
    empty, _, _ = comma_left_fibre(S, "a")
    assert empty.objects == []
    only, _, _ = comma_left_fibre(S, "b")
    assert len(only.objects) == 1
    assert len(only.morphisms) == 1  # just the identity


def test_comma_left_fibre_span_identity():
    P = span()
    S = identity_functor(P)
    cat, proj, _ = comma_left_fibre(S, "l")
    assert len(cat.objects) == 2  # (l, id_l) and (c, p)
    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    assert len(non_id) == 1
    # projection lands in the span and is a functor (validated on build)
    assert proj.target is P


def test_comma_coslice_examples():
    two = walking_arrow()
    pt = one()
    S = Functor(pt, two, {"*": "b"}, {"id_*": "id_b"})
    at_a = comma_coslice(S, "a")
    assert len(at_a.objects) == 1  # (b, u)
    at_b = comma_coslice(S, "b")
    assert len(at_b.objects) == 1  # (b, id_b)
    P = span()
    cos = comma_coslice(identity_functor(P), "c")
    assert len(cos.objects) == 3
    non_id = [m for m in cos.morphisms if not cos.is_identity(m)]
    assert len(non_id) == 2


def test_factorization_of_walking_arrow_is_cospan():
    two = walking_arrow()
    F = factorization(two)
    assert sorted(F.category.objects) == ["id_a", "id_b", "u"]
    assert len(F.category.morphisms) == 5
    non_id = [m for m in F.category.morphisms if not F.category.is_identity(m)]
    targets = {F.category.cod[m] for m in non_id}
    assert targets == {"u"}


def test_factorization_of_trivial_category():
    F = factorization(one())
    assert len(F.category.objects) == 1
    assert len(F.category.morphisms) == 1


def test_factorization_projections_are_functors():
    for C in (walking_arrow(), span(), z2cat()):
        F = factorization(C)
        assert F.cod.source is F.category
        assert F.dom.source is F.category_op


def test_factorization_respects_op():
    for C in (walking_arrow(), span(), z2cat()):
        FC = factorization(C).category
        FCop = factorization(opposite(C)).category
        assert iso_check(FCop, FC, max_morphisms=80) is not None


def test_factor_functor_identity_and_collapse():
    two = walking_arrow()
    FS = factor_functor(identity_functor(two))
    assert FS.obj_map == {f: f for f in FS.source.objects}
    P = span()
    pt = one()
    collapse = Functor(
        P, pt,
        {o: "*" for o in P.objects},
        {f: "id_*" for f in P.morphisms},
    )
    FT = factor_functor(collapse)
    assert set(FT.obj_map.values()) == {"id_*"}


def test_factor_slice_examples():
    two = walking_arrow()
    S = identity_functor(two)
    sl_id = factor_slice(S, "id_a")
    assert len(sl_id.objects) == 1
    sl_u = factor_slice(S, "u")
    assert len(sl_u.objects) == 2
    assert final_objects(sl_u) and initial_objects(sl_u)
    pt = one()
    incl = Functor(pt, two, {"*": "b"}, {"id_*": "id_b"})
    sl = factor_slice(incl, "u")
    assert len(sl.objects) == 1  # (u, id_b)


def test_fact_fibre_is_factorization_of_slice():
    two = walking_arrow()
    S = identity_functor(two)
    FS = factor_functor(S)
    lhs, _, _ = comma_left_fibre(FS, "u")
    rhs = factorization(factor_slice(S, "u")).category
    assert iso_check(lhs, rhs) is not None


FIXTURE_FUNCTORS = sorted(fixtures.FUNCTORS) + ["id-" + n for n in sorted(fixtures.CATEGORIES)]


def fixture_functor(name):
    if name.startswith("id-"):
        return identity_functor(fixtures.CATEGORIES[name[3:]]())
    return fixtures.FUNCTORS[name]()


@pytest.mark.parametrize("name", FIXTURE_FUNCTORS)
def test_left_fibre_is_category_of_elements(name):
    # S↓d is the category of elements of c |-> D(S c, d), b |-> b∘S(alpha)
    S = fixture_functor(name)
    C, D = S.source, S.target
    for d in D.objects:
        sets = {c: D.hom(S.on_obj(c), d) for c in C.objects}
        maps = {a: {b: D.comp[(b, S.on_mor(a))] for b in sets[C.cod[a]]} for a in C.morphisms}
        cat, proj, parts = comma_left_fibre(S, d)
        E, Q, eparts = elements_with_parts(DSet(C, sets, maps))
        assert cat == E
        assert (proj.obj_map, proj.mor_map, parts) == (Q.obj_map, Q.mor_map, eparts)


@pytest.mark.parametrize("name", FIXTURE_FUNCTORS)
def test_coslice_and_factor_slice_lie_over_the_source(name, monkeypatch):
    # the base arrows the builder reports form a functor to S.source
    S = fixture_functor(name)
    built = []
    real = fincat._comma_like

    def spy(C, parts, arrow, *args):
        cat, over = real(C, parts, arrow, *args)
        built.append((cat, parts, over))
        return cat, over

    monkeypatch.setattr(fincat, "_comma_like", spy)
    cats = [comma_coslice(S, d) for d in S.target.objects]
    cats += [factor_slice(S, a) for a in S.target.morphisms]
    assert [b[0] for b in built] == cats
    for cat, parts, over in built:
        # the view fills ``over`` as it lists its morphisms; the functor copies it
        cat.morphisms
        Functor(cat, S.source, {o: parts[o][0] for o in cat.objects}, over)


def test_category_over_refuses_repeated_object_ids():
    # "(a|b|x)" names both (a|b, x) and (a, b|x)
    base = validate_category(["a|b", "a"], [], [])
    X = DSet(base, {"a|b": ["x"], "a": ["b|x"]}, {})
    with pytest.raises(CategoryError, match="duplicate object ids"):
        elements_with_parts(X)


def test_iso_check_finds_swap():
    two = walking_arrow()
    assert iso_check(two, opposite(two)) is not None


def test_iso_check_absent_on_different_shapes():
    assert iso_check(walking_arrow(), span()) is None


def test_iso_check_rejects_equal_profile_nonisomorphic_monoids():
    # one object, four morphisms, identical hom-set profiles; only the
    # composition tables tell the cyclic group from the Klein group
    z4 = from_monoid(["0", "1", "2", "3"], "0", {
        (a, b): str((int(a) + int(b)) % 4) for a in "0123" for b in "0123"
    }, name="Z4")
    v4 = from_monoid(["e", "x", "y", "z"], "e", {
        ("e", "e"): "e", ("e", "x"): "x", ("e", "y"): "y", ("e", "z"): "z",
        ("x", "e"): "x", ("x", "x"): "e", ("x", "y"): "z", ("x", "z"): "y",
        ("y", "e"): "y", ("y", "x"): "z", ("y", "y"): "e", ("y", "z"): "x",
        ("z", "e"): "z", ("z", "x"): "y", ("z", "y"): "x", ("z", "z"): "e",
    }, name="V4")
    assert iso_check(z4, v4) is None
    assert iso_check(z4, z4) is not None
    assert iso_check(v4, v4) is not None


def test_iso_check_size_limit():
    with pytest.raises(SizeLimitExceeded):
        iso_check(span(), span(), max_objects=2)


def test_connected_components():
    assert connected_components(walking_arrow()) == [["a", "b"]]
    disc = validate_category(["x", "y"], [], [])
    assert connected_components(disc) == [["x"], ["y"]]
    both = fincat.disjoint_union(span(), one())
    assert len(connected_components(both)) == 2


def test_final_and_initial_objects():
    assert final_objects(walking_arrow()) == ["b"]
    assert initial_objects(walking_arrow()) == ["a"]
    assert final_objects(span()) == []
    assert final_objects(z2cat()) == []  # Hom(*, *) has two elements


def test_full_subcategory():
    P = span()
    sub = full_subcategory(P, ["l", "c"])
    assert sub.objects == ["l", "c"]
    assert len(sub.morphisms) == 3


def test_composable_chains_counts():
    C = z2cat()
    # 2^n chains of length n in a 2-element monoid
    for n in range(4):
        assert len(composable_chains(C, n)) == (2 ** n if n else 1)
    assert len(composable_chains(C, 3, nondegenerate=True)) == 1


def test_composable_chains_match_the_nerve_size_count():
    from hocofin.cofinal import _nerve_sizes
    from hocofin.groups import catalog
    from hocofin.presheaf import nerve

    cats = [build() for build in fixtures.BUILTINS["categories"].values()]
    cats += [from_monoid(G.elements, G.unit, G.table, name=G.name) for G in catalog()]
    for C in cats:
        sizes = _nerve_sizes(C, 3)
        assert [ch[1] for ch in composable_chains(C, 1)] == C.morphisms
        for n in range(4):
            chains = composable_chains(C, n)
            assert len(chains) == sizes[n], (C.name, n)
            for ch in chains:
                assert len(ch) == n + 1
                x = ch[0]
                for f in ch[1:]:
                    assert C.dom[f] == x
                    x = C.cod[f]
            assert composable_chains(C, n, nondegenerate=True) == [
                ch for ch in chains if not any(C.is_identity(f) for f in ch[1:])
            ]
        o = C.objects[0]
        assert nerve(C, 1, basepoint=o).basepoint == (o,)


def test_chain_faces_and_degeneracies():
    two = walking_arrow()
    assert fincat.chain_face(two, ("a", "u"), 0) == ("b",)
    assert fincat.chain_face(two, ("a", "u"), 1) == ("a",)
    assert fincat.chain_degeneracy(two, ("a",), 0) == ("a", "id_a")
    ch = ("a", "id_a", "u")
    assert fincat.chain_face(two, ch, 1) == ("a", "u")
    assert any(two.is_identity(f) for f in ch[1:])
