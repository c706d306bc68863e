"""A view over a base lists its morphisms by visiting, for each object,
only the objects over the ends of its base object's arrows
(``C.successors``), and reads a base that is itself a view through its
hom-sets, not its listing.  The all-pairs listing it replaced
(``oracles.all_pairs_listing``) is the oracle: the same morphisms, dom and
cod, in the same order, on coslices, left fibres, factorization slices
and categories of elements of every fixture category, on the wefrac
fibres, whose base is a factorization category, and on the identity of
the Boolean lattice B5."""

from hocofin import fixtures
from hocofin.fincat import (
    comma_left_fibre,
    factor_slice,
    factorization,
    from_monoid,
    from_poset,
    identity_functor,
)
from hocofin.groups import cyclic_group
from hocofin.presheaf import constant_singleton, elements_with_parts, representable
from oracles import all_pairs_listing, comma_coslice
from test_faithful_check import listed


def views_of_category(C):
    """Builders of the views over C and over its factorization category."""
    S = identity_functor(C)
    builds = []
    for d in C.objects:
        builds.append(lambda d=d: comma_coslice(S, d))
        builds.append(lambda d=d: comma_left_fibre(S, d)[0])
        builds.append(lambda d=d: elements_with_parts(representable(C, d))[0])
    for alpha in C.morphisms:
        builds.append(lambda alpha=alpha: factor_slice(S, alpha))
    builds.append(lambda: elements_with_parts(constant_singleton(C))[0])
    cod = factorization(C).cod
    for d in C.objects:
        builds.append(lambda d=d: comma_left_fibre(cod, d)[0])
    return builds


def same_listing(build):
    """The listing of one fresh view against the oracle read from another."""
    oracle_view, view = build(), build()
    lazy = oracle_view._parse
    mors, dom, cod = all_pairs_listing(oracle_view)
    # the oracle read hom-sets only, so it listed nothing
    assert listed(oracle_view) == (not lazy)
    assert view.morphisms == mors
    assert list(view.dom.items()) == list(dom.items())
    assert list(view.cod.items()) == list(cod.items())
    return len(mors) > len(view.objects)


def test_views_of_the_fixture_categories_list_as_all_pairs():
    G = cyclic_group(4)
    cats = [make() for make in fixtures.CATEGORIES.values()]
    cats.append(from_monoid(G.elements, G.unit, G.table, name="BZ4"))
    builds = [b for C in cats for b in views_of_category(C)]
    # 90 of the 144 views have a morphism besides their identities
    assert len(builds) == 144 and sum(map(same_listing, builds)) == 90


def test_views_of_the_identity_of_b5_list_as_all_pairs():
    B5 = from_poset(["m%d" % m for m in range(32)], lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)
    S = identity_functor(B5)
    for d in B5.objects:
        assert same_listing(lambda: comma_coslice(S, d)) == (d != "m31")
        assert same_listing(lambda: comma_left_fibre(S, d)[0]) == (d != "m0")
