"""Derived categories are views over a validated base: ``_comma_like``
lists objects and morphisms from the arrow predicate and builds the
composition table on first read, with no validation pass; the
factorization category is still built in full and certified by its
faithful projections.  The oracle here is the materialize-and-scan path:
every view of the fixtures and of the certify-ladder inputs must equal the
category that the full builder, validated over its base, gives, and pass
the associativity scan over composable triples.  Mutated tables must fail
the certificate, and a predicate not closed under composition must dangle.
"""

import pytest

from hocofin import fincat, fixtures
from hocofin.fincat import (
    CategoryError,
    DanglingId,
    FinCat,
    Functor,
    comma_coslice,
    comma_left_fibre,
    factor_slice,
    factorization,
    from_monoid,
    from_poset,
    identity_functor,
    identity_id,
    objects_over,
    opposite,
    validate_category,
)
from hocofin.groups import cyclic_group
from hocofin.presheaf import constant_singleton, elements_with_parts


def triple_scan(cat):
    """The raw-input validation, associativity on every composable triple."""
    cat._check()


def materialized(C, parts, arrow, name):
    """The category over C that ``_comma_like`` views, built in full: every
    composite listed, then validated by certifying its projection to C."""
    over = {identity_id(o): C.identity[p[0]] for o, p in parts.items()}
    mors = []
    out = {o: [] for o in parts}
    for o1, p1 in parts.items():
        for o2, p2 in parts.items():
            for alpha in C.hom(p1[0], p2[0]):
                if o1 == o2 and C.is_identity(alpha):
                    continue
                if arrow(alpha, p1, p2):
                    mid = "[%s:%s->%s]" % (alpha, o1, o2)
                    mors.append((mid, o1, o2))
                    out[o1].append((mid, o2))
                    over[mid] = alpha
    comp = []
    for m1, s1, t1 in mors:
        for m2, t2 in out[t1]:
            a = C.comp[(over[m2], over[m1])]
            if s1 == t2 and C.is_identity(a):
                comp.append((m2, m1, identity_id(s1)))
            else:
                comp.append((m2, m1, "[%s:%s->%s]" % (a, s1, t2)))
    obj_over = {o: p[0] for o, p in parts.items()}
    cat = validate_category(list(parts), mors, comp, name=name, over=[(C, obj_over, over)])
    return cat, over


def eager_opposite(C):
    return FinCat(C.objects, C.morphisms, C.cod, C.dom, C.identity,
                  {(f, g): h for (g, f), h in C.comp.items()}, _validate=False)


def same_category(view, full):
    assert view.objects == full.objects
    assert view.morphisms == full.morphisms
    assert view.dom == full.dom and view.cod == full.cod
    assert view.identity == full.identity
    assert all(view.hom(x, y) == full.hom(x, y) for x in full.objects for y in full.objects)
    # the table, read last, in the full builder's order
    assert list(view.comp.items()) == list(full.comp.items())


def views_of(monkeypatch):
    """Record every ``_comma_like`` call as (C, parts, arrow, name, view,
    over)."""
    original = fincat._comma_like
    seen = []

    def recording(C, parts, arrow, name):
        cat, over = original(C, parts, arrow, name)
        seen.append((C, parts, arrow, name, cat, over))
        return cat, over

    monkeypatch.setattr(fincat, "_comma_like", recording)
    return seen


def check_views(seen):
    """Each recorded view against the full builder, the triple scan and the
    eager opposite; returns how many were checked."""
    for C, parts, arrow, name, view, over in seen:
        full, full_over = materialized(C, parts, arrow, name)
        op = opposite(view)
        same_category(view, full)
        assert over == full_over
        triple_scan(view)
        same_category(op, eager_opposite(full))
        triple_scan(op)
    return len(seen)


def fixture_functors():
    out = [make() for make in fixtures.FUNCTORS.values()]
    return out + [fixtures.fun_cod_op(name) for name in fixtures.WEFRAC_CATEGORIES]


def test_fibres_coslices_and_factor_slices_of_the_fixture_functors(monkeypatch):
    seen = views_of(monkeypatch)
    for S in fixture_functors():
        for d in S.target.objects:
            _, proj, _ = comma_left_fibre(S, d)
            proj._check()
            comma_coslice(S, d)
        for alpha in S.target.morphisms:
            factor_slice(S, alpha)
    assert check_views(seen) > 100


def test_categories_of_elements_of_the_fixture_presheaves(monkeypatch):
    seen = views_of(monkeypatch)
    for make in fixtures.DSETS.values():
        _, proj, _ = elements_with_parts(make())
        proj._check()
    assert check_views(seen) == len(fixtures.DSETS)


def test_factorizations_of_the_fixture_categories():
    assert len(fixtures.CATEGORIES) == 11
    for make in fixtures.CATEGORIES.values():
        F = factorization(make())
        triple_scan(F.category)
        F.cod._check()
        F.dom._check()
        same_category(F.category_op, eager_opposite(F.category))


def test_certify_ladder_inputs(monkeypatch):
    seen = views_of(monkeypatch)
    for n in (4, 5, 6):
        G = cyclic_group(n)
        C = from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)
        F = factorization(C)
        triple_scan(F.category)
        _, proj, _ = comma_left_fibre(F.cod, "*")
        proj._check()
    B5 = from_poset(["m%d" % m for m in range(32)], lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)
    S = identity_functor(B5)
    for d in B5.objects:
        comma_coslice(S, d)
    assert check_views(seen) == 3 + 32


# -- mutations are refused ----------------------------------------------------------


def redirect_one(entries, ends):
    """Composition entries (g, f, h) with the first composite of
    non-identities that has a rival sent to another non-identity with the
    same endpoints (``ends`` maps each non-identity to them), and the
    redirection."""
    entries = list(entries)
    for k, (g, f, h) in enumerate(entries):
        others = [m for m in ends if m != h and ends[m] == ends.get(h)]
        if others:
            entries[k] = (g, f, others[0])
            return entries, (g, f, h, others[0])
    return entries, None


def redirect_one_composite(monkeypatch):
    """Make ``validate_category``, the factorization category's builder,
    redirect one composite."""
    original = fincat.validate_category
    redirected = []

    def mutated(objects, morphisms, composition, name="", over=None):
        if not redirected:
            composition, hit = redirect_one(composition, {m: (d, c) for m, d, c in morphisms})
            redirected.extend([hit] if hit else [])
        return original(objects, morphisms, composition, name=name, over=over)

    monkeypatch.setattr(fincat, "validate_category", mutated)
    return redirected


def certify_a_redirected_view_table(C, view, over, redirected):
    """Run the certificate on the view with one composite of its table
    redirected, recording the redirection in ``redirected`` first."""
    ends = {m: (view.dom[m], view.cod[m]) for m in view.morphisms if not view.is_identity(m)}
    entries, hit = redirect_one(((g, f, h) for (g, f), h in view.comp.items()), ends)
    redirected.append(hit)
    obj_over = {o: C.dom[over[view.identity[o]]] for o in view.objects}
    FinCat(view.objects, view.morphisms, view.dom, view.cod, view.identity,
           {(g, f): h for g, f, h in entries}, over=[(C, obj_over, over)])


def z3_to_point():
    return Functor(fixtures.cat_z3(), fixtures.cat_one(), {"*": "*"}, {"1": "id_*", "2": "id_*"})


@pytest.mark.parametrize("base, build", [
    (fixtures.cat_z2, factorization),
    (fixtures.cat_delta1, factorization),
    (z3_to_point, lambda S: comma_left_fibre(S, "*")),
    (z3_to_point, lambda S: comma_coslice(S, "*")),
    (z3_to_point, lambda S: factor_slice(S, "id_*")),
    (lambda: constant_singleton(fixtures.cat_z3()), elements_with_parts),
])
def test_a_redirected_composite_fails_the_certificate(monkeypatch, base, build):
    # the factorization category is certified when it is built, so its
    # builder is mutated; a view is never certified, so the certificate
    # runs on a mutated copy of its table
    given = base()
    seen = views_of(monkeypatch)
    redirected = redirect_one_composite(monkeypatch)
    with pytest.raises(CategoryError, match="does not lie over the base composite"):
        build(given)
        for C, _, _, _, view, over in seen:
            certify_a_redirected_view_table(C, view, over, redirected)
    assert redirected and all(redirected)


def test_an_arrow_predicate_not_closed_under_composition_dangles():
    C = from_poset(["a", "b", "c"], lambda x, y: x <= y)
    parts = objects_over((o,) for o in C.objects)
    # a -> b and b -> c are kept, but their composite a -> c is not; the
    # view lists its morphisms, and refuses when its table is built
    cat, _ = fincat._comma_like(C, parts, lambda alpha, p1, p2: (p1[0], p2[0]) != ("a", "c"),
                                "bad")
    assert len(cat.morphisms) == 5 and cat.hom("a", "c") == []
    with pytest.raises(DanglingId):
        cat.comp
    with pytest.raises(DanglingId):
        opposite(cat).comp


def test_a_projection_that_is_not_faithful_is_refused():
    base = validate_category(["a", "b"], [("u", "a", "b")], [])
    obj = {"a": "a", "b": "b"}
    mor = {"id_a": "id_a", "id_b": "id_b", "u": "u", "v": "u"}
    with pytest.raises(CategoryError, match="same base arrows"):
        validate_category(["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [],
                          over=[(base, obj, mor)])
    with pytest.raises(CategoryError, match="does not lie over its endpoints"):
        validate_category(["a", "b"], [("u", "a", "b")], [],
                          over=[(base, {"a": "b", "b": "a"}, mor)])
