"""Hom-set sizes of views, and comma objects come from an arrow index.

The cone search asks ``hom_count(x, y)``.  A plain category reads it off
its hom index; a view reads the length of the hom-set, which it builds
on first read.  ``len(hom(x, y))`` is the oracle, on every view kind
(coslices, left fibres, opposites of views, full subcategories,
factorization categories and categories of elements), before and after
the hom-sets and the listing are built.  README's claim that a cone
answer builds no view is checked on the coslices of a Boolean lattice and
the fibres of ``wefrac`` on one-object Z/4: no view is constructed at
all, and the factorization category is not listed.

The cone search (``cofinal._cone`` over ``iter_final_objects``) counts in
a plain loop that stops at the first count that is not 1; its
generator-expression form (``oracles.generated_final_objects``,
``oracles.generated_initial_objects``) gives the same objects in the same
order, and the same cone on a fresh view, on every view kind, on plain
categories and on the generated categories of ``test_cofinal_reduction``.

``comma_coslice`` and ``comma_left_fibre`` read the ends of the target's
arrows out of (into) d and the source objects over them;
``oracles.scanned_objects``, which scans every source object, gives the
same objects in the same order, with the ids of ``over_id``, and two parts
whose ids coincide are refused."""

import pytest
from hypothesis import given, settings
from oracles import (
    comma_coslice,
    generated_final_objects,
    generated_initial_objects,
    scanned_objects,
)
from test_cofinal_reduction import categories, crown, maximal_ends_fence
from test_faithful_check import bz, listed

from hocofin import cofinal, fincat, fixtures
from hocofin.fincat import (
    CategoryError,
    FinCat,
    comma_left_fibre,
    factorization,
    from_poset,
    full_subcategory,
    identity_functor,
    iter_final_objects,
    objects_over,
    over_id,
    validate_category,
)
from hocofin.presheaf import constant_singleton, elements_with_parts, representable


def boolean_lattice(k):
    return from_poset(["m%d" % m for m in range(2 ** k)], lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)


def views_of(C):
    """Builders of every view kind over C."""
    S = identity_functor(C)
    builds = []
    for d in C.objects:
        builds += [lambda d=d: comma_coslice(S, d),
                   lambda d=d: comma_left_fibre(S, d)[0],
                   lambda d=d: fincat.opposite(comma_coslice(S, d)),
                   lambda d=d: fincat.opposite(comma_left_fibre(S, d)[0]),
                   lambda d=d: full_subcategory(comma_coslice(S, d), C.objects[::2]),
                   lambda d=d: elements_with_parts(representable(C, d))[0]]
    builds += [lambda: factorization(C).category,
               lambda: factorization(C).category_op,
               lambda: full_subcategory(C, C.objects[::2]),
               lambda: full_subcategory(fincat.opposite(C), C.objects[1::2]),
               lambda: elements_with_parts(constant_singleton(C))[0]]
    cod = factorization(C).cod
    for d in C.objects:
        builds.append(lambda d=d: comma_left_fibre(cod, d)[0])
    return builds


def counts(view):
    return [view.hom_count(x, y) for x in view.objects for y in view.objects]


def lengths(view):
    return [len(view.hom(x, y)) for x in view.objects for y in view.objects]


def assert_counts(build):
    """Counts on a fresh view, then after its hom-sets and its listing are
    built, and on a view listed first, against the hom-set lengths of a
    fresh view.  Returns whether the view was left unlisted by counting."""
    view = build()
    got = counts(view)
    unlisted = not listed(view)
    for y in view.objects[:1]:
        assert view.hom_count("no such object", y) == view.hom_count(y, "no such object") == 0
    assert got == lengths(build()) == counts(view)
    view.morphisms
    assert counts(view) == got
    listed_first = build()
    listed_first.morphisms
    assert counts(listed_first) == got
    return unlisted


def test_every_view_kind_counts_its_hom_sets():
    cats = [make() for make in fixtures.CATEGORIES.values()] + [bz(4), boolean_lattice(3)]
    builds = [b for C in cats for b in views_of(C)]
    # counting reads hom-sets, and lists only a view whose ids might not parse
    assert all(map(assert_counts, builds))


def test_a_plain_category_counts_from_its_hom_index():
    C = fixtures.CATEGORIES["delta1"]()
    assert type(C) is FinCat
    assert counts(C) == lengths(C)


# -- the cone search against its generator form ------------------------------------------


def generated_cone(C):
    """The cone ``cofinal._cone`` looks for, from the generator forms."""
    t = next(generated_final_objects(C), None)
    if t is not None:
        return t, "final"
    s = next(generated_initial_objects(C), None)
    return None if s is None else (s, "initial")


def assert_same_cones(build):
    """Both forms of the cone search on views from ``build``: the same
    cone on a fresh view each, then the same full lists of final objects
    and, through the reversed count, of initial ones, also of final
    objects on the full subcategory of every other object."""
    C = build()
    assert cofinal._cone(C.objects, C.hom_count) == generated_cone(build())
    C = build()
    count = C.hom_count
    assert list(iter_final_objects(C.objects, count)) == list(generated_final_objects(C))
    assert (list(iter_final_objects(C.objects, lambda x, y: count(y, x)))
            == list(generated_initial_objects(C)))
    objs = C.objects[::2]
    assert list(iter_final_objects(objs, count)) == list(generated_final_objects(C, objs))
    return generated_cone(C) is not None


def test_the_cone_search_finds_what_its_generator_form_finds():
    cats = [make() for make in fixtures.CATEGORIES.values()] + [bz(4), boolean_lattice(3)]
    builds = [b for C in cats for b in views_of(C)]
    builds += [lambda C=C: C for C in cats + [crown(4), maximal_ends_fence(3)]]
    found = sum(map(assert_same_cones, builds))
    # most views have a cone, and some have none
    assert len(builds) // 2 < found < len(builds)


@settings(max_examples=60, deadline=None)
@given(categories)
def test_the_cone_search_on_generated_categories_and_their_views(C):
    for build in [lambda: C] + views_of(C):
        assert_same_cones(build)


# -- a cone answer builds no view ---------------------------------------------------------


def views_built(monkeypatch):
    """Every view constructed from now on, in order."""
    built = []
    init = fincat._View.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(fincat._View, "__init__", recording)
    return built


def test_cones_of_a_boolean_lattice_touch_no_view(monkeypatch):
    S = identity_functor(boolean_lattice(4))
    for coinitial in (False, True):
        built = views_built(monkeypatch)
        rep = cofinal.certify_homotopy_cofinal(S, coinitial=coinitial)
        assert len(rep["per_object"]) == 16
        assert all(v.certificate["kind"] == "cone" for v in rep["per_object"].values())
        # no coslice, fibre or opposite was built
        assert built == []
        monkeypatch.undo()


def test_wefrac_on_z4_touches_no_fibre(monkeypatch):
    F = factorization(bz(4))
    built = views_built(monkeypatch)
    rep = cofinal.certify_homotopy_cofinal(F.cod, coinitial=True)
    assert [v.certificate["kind"] for v in rep["per_object"].values()] == ["cone"]
    # no fibre or opposite was built, and the factorization category
    # itself is not listed either
    assert built == []
    assert not listed(F.category)


# -- comma objects from an arrow index --------------------------------------------------


def functors():
    out = [make() for make in fixtures.FUNCTORS.values()]
    out += [fixtures.fun_cod_op(name) for name in fixtures.WEFRAC_CATEGORIES]
    out += [factorization(C).cod for C in (bz(4), fixtures.CATEGORIES["delta1"]())]
    out += [identity_functor(boolean_lattice(4))]
    return out


def test_comma_objects_come_in_source_order():
    met = 0
    for S in functors():
        for d in S.target.objects:
            coslice = comma_coslice(S, d)
            assert coslice.objects == [over_id(p) for p in scanned_objects(S, d, True)]
            fibre, _, parts = comma_left_fibre(S, d)
            assert list(parts.values()) == scanned_objects(S, d, False)
            assert fibre.objects == list(parts)
            met += len(fibre.objects) + len(coslice.objects)
    assert met > 400


def test_predecessors_of_a_view_read_no_listing():
    C = fixtures.CATEGORIES["delta1"]()
    op = fincat.opposite(C)
    for x in C.objects:
        assert sorted(op.predecessors(x)) == sorted(C.successors(x))
        assert sorted(op.successors(x)) == sorted(C.predecessors(x))
    assert not listed(op)


def test_comma_object_ids_are_formatted_as_over_id():
    for parts in ([("a", "id_a"), ("b|c", 3), (("x", 1), "{0,1}")],
                  [("u",), ("v",)], [("c", "u", "v"), ("c", "u|v", "w")], []):
        assert list(objects_over(iter(parts)).items()) == [(over_id(p), p) for p in parts]


def test_comma_objects_whose_ids_coincide_are_refused():
    # "(u|f|g)" names both (u, f|g) and (u|f, g), so does "(a|b|x)"
    for parts in ([("u", "f|g"), ("o", "id_o"), ("u|f", "g")], [("a|b", "x"), ("a", "b|x")]):
        with pytest.raises(CategoryError, match="^duplicate object ids$"):
            objects_over(parts)
    C = validate_category(["o", "u", "u|f"], [("f|g", "o", "u"), ("g", "o", "u|f")], [])
    with pytest.raises(CategoryError, match="^duplicate object ids$"):
        comma_coslice(identity_functor(C), "o")
    fibre, _, parts = comma_left_fibre(identity_functor(C), "u")
    assert list(parts) == ["(o|f|g)", "(u|id_u)"]
