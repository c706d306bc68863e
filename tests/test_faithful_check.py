"""Derived categories are validated by a faithful-projection certificate
in place of the associativity scan over composable triples; the full scan
stays here as the oracle, run on every derived category of the fixtures
and of the certify-ladder inputs, and mutated builders must fail the
certificate."""

import pytest

from hocofin import fincat, fixtures
from hocofin.fincat import (
    CategoryError,
    DanglingId,
    Functor,
    comma_coslice,
    comma_left_fibre,
    factor_slice,
    factorization,
    from_monoid,
    from_poset,
    identity_functor,
    objects_over,
    validate_category,
)
from hocofin.groups import cyclic_group
from hocofin.presheaf import constant_singleton, elements_with_parts


def triple_scan(cat):
    """The raw-input validation, associativity on every composable triple."""
    cat._check()


def fixture_functors():
    out = [make() for make in fixtures.FUNCTORS.values()]
    return out + [fixtures.fun_cod_op(name) for name in fixtures.WEFRAC_CATEGORIES]


def test_fibres_coslices_and_factor_slices_of_the_fixture_functors():
    count = 0
    for S in fixture_functors():
        for d in S.target.objects:
            cat, proj, _ = comma_left_fibre(S, d)
            triple_scan(cat)
            proj._check()
            triple_scan(comma_coslice(S, d))
            count += 2
        for alpha in S.target.morphisms:
            triple_scan(factor_slice(S, alpha))
            count += 1
    assert count > 100


def test_categories_of_elements_of_the_fixture_presheaves():
    for make in fixtures.DSETS.values():
        cat, proj, _ = elements_with_parts(make())
        triple_scan(cat)
        proj._check()


def test_factorizations_of_the_fixture_categories():
    assert len(fixtures.CATEGORIES) == 11
    for make in fixtures.CATEGORIES.values():
        F = factorization(make())
        triple_scan(F.category)
        F.cod._check()
        F.dom._check()


def test_certify_ladder_inputs():
    for n in (4, 5, 6):
        G = cyclic_group(n)
        C = from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)
        F = factorization(C)
        triple_scan(F.category)
        fibre, proj, _ = comma_left_fibre(F.cod, "*")
        triple_scan(fibre)
        proj._check()
    B5 = from_poset(["m%d" % m for m in range(32)], lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)
    S = identity_functor(B5)
    for d in B5.objects:
        triple_scan(comma_coslice(S, d))


# -- the certificate fails on mutated builders -----------------------------------


def redirect_one_composite(monkeypatch):
    """Make ``validate_category`` send one composite of non-identities to
    another non-identity with the same endpoints."""
    original = fincat.validate_category
    redirected = []

    def mutated(objects, morphisms, composition, name="", over=None):
        ends = {m: (d, c) for m, d, c in morphisms}
        composition = list(composition)
        for k, (g, f, h) in enumerate(composition):
            others = [m for m in ends if m != h and ends[m] == ends.get(h)]
            if others and not redirected:
                composition[k] = (g, f, others[0])
                redirected.append((g, f, h, others[0]))
        return original(objects, morphisms, composition, name=name, over=over)

    monkeypatch.setattr(fincat, "validate_category", mutated)
    return redirected


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
    given = base()
    redirected = redirect_one_composite(monkeypatch)
    with pytest.raises(CategoryError, match="does not lie over the base composite"):
        build(given)
    assert redirected


def test_an_arrow_predicate_not_closed_under_composition_dangles():
    C = from_poset(["a", "b", "c"], lambda x, y: x <= y)
    parts = objects_over((o,) for o in C.objects)
    # a -> b and b -> c are kept, but their composite a -> c is not
    with pytest.raises(DanglingId):
        fincat._comma_like(C, parts, lambda alpha, p1, p2: (p1[0], p2[0]) != ("a", "c"), "bad")


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
