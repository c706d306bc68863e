"""Derived categories are views over a validated base (``fincat._View``):
objects and identities at construction, each hom-set on its first read,
the listing on the first read of ``morphisms``, ``dom`` or ``cod``, and
the composition table on the first read of ``comp``, with no validation
pass.  The oracle here is the materialize-and-certify path: the category
built in full, validated with the associativity scan over composable
triples, and certified by its faithful projections to its bases.

Every view of the fixtures and of the certify-ladder inputs, the
factorization categories among them, and the opposite of each, must give
the oracle's hom-sets when read fresh, before anything is listed; then the
oracle's listing, projections and table, in order.  Mutated tables must
fail the certificate, a predicate not closed under composition must
dangle, and names that make two formatted ids coincide are refused as for
a category given raw.
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
from hocofin.presheaf import DSet, constant_singleton, elements_with_parts

# the builder itself, before a test records its calls
COMMA_LIKE = fincat._comma_like


def certify_over(cat, over):
    """The faithful-projection certificate for projections ``(base,
    obj_map, mor_map)`` to validated bases, in O(composable pairs).

    Every morphism lies over base arrows between the images of its
    endpoints, the images of g∘f are the base composites of those of g and
    f, and no two morphisms share endpoints and images.  Then (h∘g)∘f and
    h∘(g∘f) have the same endpoints and, by associativity in each base, the
    same images, so they are the same morphism."""
    for base, obj_map, mor_map in over:
        bdom, bcod, bcomp = base.dom, base.cod, base.comp
        for f in cat.morphisms:
            a = mor_map.get(f)
            if (a not in bdom or bdom[a] != obj_map.get(cat.dom[f])
                    or bcod[a] != obj_map.get(cat.cod[f])):
                raise CategoryError("morphism %s does not lie over its endpoints" % f)
        for (g, f), h in cat.comp.items():
            if mor_map[h] != bcomp[(mor_map[g], mor_map[f])]:
                raise CategoryError(
                    "composite %s of (%s, %s) does not lie over the base composite" % (h, g, f)
                )
    keys = {(cat.dom[f], cat.cod[f]) + tuple(m[f] for _, _, m in over) for f in cat.morphisms}
    if len(keys) != len(cat.morphisms):
        raise CategoryError("two morphisms lie over the same base arrows")


def materialized(C, parts, arrow, name):
    """The category over C that ``_comma_like`` views, built in full: every
    composite listed, validated and certified over C."""
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
    cat = validate_category(list(parts), mors, comp, name=name)
    certify_over(cat, [(C, {o: p[0] for o, p in parts.items()}, over)])
    return cat, over


def materialized_factorization(C):
    """The factorization category built in full, listed by f, then alpha,
    then beta; validated and certified over C^op and C.  Returns it with
    its projections ``(base, obj_map, mor_map)``."""
    pair = {identity_id(f): (C.identity[C.dom[f]], C.identity[C.cod[f]]) for f in C.morphisms}
    mors = []
    for f in C.morphisms:
        for alpha in C.morphisms:
            if C.cod[alpha] != C.dom[f]:
                continue
            for beta in C.morphisms:
                if C.dom[beta] != C.cod[f] or C.is_identity(alpha) and C.is_identity(beta):
                    continue
                g = C.comp[(beta, C.comp[(f, alpha)])]
                mid = "[%s,%s:%s->%s]" % (alpha, beta, f, g)
                mors.append((mid, f, g))
                pair[mid] = (alpha, beta)
    out = {f: [] for f in C.morphisms}
    for m, f, g in mors:
        out[f].append((m, g))
    comp = []
    for m1, f1, g1 in mors:
        a1, b1 = pair[m1]
        for m2, g2 in out[g1]:
            a2, b2 = pair[m2]
            a, b = C.comp[(a1, a2)], C.comp[(b2, b1)]
            if C.is_identity(a) and C.is_identity(b):
                comp.append((m2, m1, identity_id(f1)))
            else:
                comp.append((m2, m1, "[%s,%s:%s->%s]" % (a, b, f1, g2)))
    cat = validate_category(list(C.morphisms), mors, comp, name=C.name and "F(%s)" % C.name)
    over = [(opposite(C), {f: C.dom[f] for f in C.morphisms}, {m: p[0] for m, p in pair.items()}),
            (C, {f: C.cod[f] for f in C.morphisms}, {m: p[1] for m, p in pair.items()})]
    certify_over(cat, over)
    return cat, over


def eager_opposite(C):
    return FinCat(C.objects, C.morphisms, C.cod, C.dom, C.identity,
                  {(f, g): h for (g, f), h in C.comp.items()}, _validate=False)


def listed(view):
    """Whether the view has listed its morphisms (read without listing)."""
    try:
        FinCat.morphisms.__get__(view)
    except AttributeError:
        return False
    return True


def same_homs(view, full):
    """A fresh view gives the oracle's hom-sets, and lists nothing for it
    unless its names forced the listing at construction."""
    assert listed(view) == (not view._parse)
    assert all(view.hom(x, y) == full.hom(x, y) for x in full.objects for y in full.objects)
    assert listed(view) == (not view._parse)


def same_category(view, full):
    assert view.objects == full.objects
    assert view.morphisms == full.morphisms
    assert view.dom == full.dom and view.cod == full.cod
    assert view.identity == full.identity
    assert all(view.hom(x, y) == full.hom(x, y) for x in full.objects for y in full.objects)
    # the table, read last, in the full builder's order
    assert list(view.comp.items()) == list(full.comp.items())


def views_of(monkeypatch):
    """Record every ``_comma_like`` call as (C, parts, arrow, args, view,
    over), ``args`` being the name."""
    seen = []

    def recording(C, parts, arrow, *args):
        cat, over = COMMA_LIKE(C, parts, arrow, *args)
        seen.append((C, parts, arrow, args, cat, over))
        return cat, over

    monkeypatch.setattr(fincat, "_comma_like", recording)
    return seen


def check_views(seen):
    """Each recorded view, a fresh one and their opposites against the
    oracle; returns how many were checked and how many were lazy."""
    lazy = 0
    for C, parts, arrow, args, view, over in seen:
        full, full_over = materialized(C, parts, arrow, args[0])
        full_op = eager_opposite(full)
        fresh, fresh_over = COMMA_LIKE(C, parts, arrow, *args)
        lazy += fresh._parse
        fresh_op = opposite(fresh)
        same_homs(fresh_op, full_op)
        same_homs(fresh, full)
        # hom-sets read so far filled the projection for their morphisms
        assert all(fresh_over[m] == full_over[m] for m in fresh_over)
        for v in (view, fresh):
            same_category(v, full)
            same_category(opposite(v), full_op)
        same_category(fresh_op, full_op)
        assert over == fresh_over == full_over
    return len(seen), lazy


def check_factorization(C):
    full, over = materialized_factorization(C)
    full_op = eager_opposite(full)
    F = factorization(C)
    same_homs(F.category_op, full_op)
    same_homs(F.category, full)
    # the projections share the maps that hom-sets fill
    for side, functor in enumerate((F.dom, F.cod)):
        _, obj_map, mor_map = over[side]
        assert functor.obj_map == obj_map
        assert {m: ab[side] for m, ab in F.pair.items()} == functor.mor_map
        assert all(mor_map[m] == functor.mor_map[m] for m in functor.mor_map)
    same_category(F.category, full)
    same_category(F.category_op, full_op)
    assert F.pair == {m: (over[0][2][m], over[1][2][m]) for m in full.morphisms}
    assert F.dom.mor_map == over[0][2] and F.cod.mor_map == over[1][2]
    F.cod._check()
    F.dom._check()
    return F


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
    checked, lazy = check_views(seen)
    assert checked > 100 and lazy > checked // 2


def test_categories_of_elements_of_the_fixture_presheaves(monkeypatch):
    seen = views_of(monkeypatch)
    for make in fixtures.DSETS.values():
        _, proj, _ = elements_with_parts(make())
        proj._check()
    # union-two names its elements "0:x" and "1:y", so it lists at construction
    assert check_views(seen) == (len(fixtures.DSETS), len(fixtures.DSETS) - 1)


def test_factorizations_of_the_fixture_categories():
    assert len(fixtures.CATEGORIES) == 11
    for make in fixtures.CATEGORIES.values():
        for C in (make(), opposite(make())):
            assert check_factorization(C).category._parse


def bz(n):
    G = cyclic_group(n)
    return from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)


def test_certify_ladder_inputs(monkeypatch):
    seen = views_of(monkeypatch)
    for n in (4, 5, 6):
        F = check_factorization(bz(n))
        _, proj, _ = comma_left_fibre(F.cod, "*")
        proj._check()
    B5 = from_poset(["m%d" % m for m in range(32)], lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)
    S = identity_functor(B5)
    for d in B5.objects:
        comma_coslice(S, d)
        comma_left_fibre(S, d)
    assert check_views(seen) == (3 + 64, 3 + 64)


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


def certify_a_redirected_table(view, over, redirected):
    """Run the certificate on a copy of the view with one composite of its
    table redirected, recording the redirection in ``redirected`` first."""
    ends = {m: (view.dom[m], view.cod[m]) for m in view.morphisms if not view.is_identity(m)}
    entries, hit = redirect_one(((g, f, h) for (g, f), h in view.comp.items()), ends)
    redirected.append(hit)
    copy = FinCat(view.objects, view.morphisms, view.dom, view.cod, view.identity,
                  {(g, f): h for g, f, h in entries}, _validate=False)
    certify_over(copy, over)


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
    # no derived category is certified when it is built, so the oracle's
    # certificate runs on a copy of its table with one composite redirected
    given = base()
    seen = views_of(monkeypatch)
    built = build(given)
    if build is factorization:
        C = given
        targets = [(built.category, [(opposite(C), built.dom.obj_map, built.dom.mor_map),
                                     (C, built.cod.obj_map, built.cod.mor_map)])]
    else:
        targets = [(view, [(C, {o: p[0] for o, p in parts.items()}, over)])
                   for C, parts, _, _, view, over in seen]
    redirected = []
    with pytest.raises(CategoryError, match="does not lie over the base composite"):
        for view, over in targets:
            certify_a_redirected_table(view, over, redirected)
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
        certify_over(validate_category(["a", "b"], [("u", "a", "b"), ("v", "a", "b")], []),
                     [(base, obj, mor)])
    with pytest.raises(CategoryError, match="does not lie over its endpoints"):
        certify_over(validate_category(["a", "b"], [("u", "a", "b")], []),
                     [(base, {"a": "b", "b": "a"}, mor)])


# -- names that make two ids coincide -------------------------------------------------


def zero_monoid(names):
    """The monoid on 1 and ``names`` in which every product of two of them
    is "0" (the last name), as a one-object category."""
    elements = ["1"] + names
    table = {(a, b): b if a == "1" else a if b == "1" else "0" for a in elements for b in elements}
    return from_monoid(elements, "1", table, name="zero")


def test_factorization_ids_that_coincide_are_refused_at_construction():
    # [x,y,z:f->0] names both (alpha, beta) = (x,y ; z) and (x ; y,z), first
    # for f = id_*
    C = zero_monoid(["x,y", "z", "x", "y,z", "0"])
    assert not fincat._ids_parse(C)
    with pytest.raises(DanglingId, match=r"morphism id \[x,y,z:id_\*->0\] duplicates another"):
        factorization(C)
    # the same monoid under plain names builds lazily
    F = factorization(zero_monoid(["xy", "z", "x", "yz", "0"]))
    assert F.category._parse and not listed(F.category)


def colliding_presheaf():
    """A presheaf over a -u-> b whose elements hold separators, so that
    [u:(a|p)->(b|q)->(b|r)] names two morphisms of its category of
    elements: (a|p) -> (b|q)->(b|r) and (a|p)->(b|q) -> (b|r)."""
    base = validate_category(["a", "b"], [("u", "a", "b")], [])
    return DSet(base, {"a": ["p", "p)->(b|q"], "b": ["q)->(b|r", "r"]},
                {"u": {"q)->(b|r": "p", "r": "p)->(b|q"}})


def test_comma_ids_that_coincide_are_refused_at_construction():
    X = colliding_presheaf()
    with pytest.raises(DanglingId, match=r"morphism id \[u:\(a\|p\)->\(b\|q\)->\(b\|r\)\] dup"):
        elements_with_parts(X)
    # one separator in one element is enough to list at construction
    Y = DSet(X.base, {"a": ["p", "p2"], "b": ["q:", "r"]}, {"u": {"q:": "p", "r": "p2"}})
    E, _, _ = elements_with_parts(Y)
    assert not E._parse and listed(E) and len(E.morphisms) == 6
