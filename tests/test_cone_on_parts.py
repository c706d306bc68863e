"""``certify_homotopy_cofinal`` looks for the cone of each coslice d↓S,
or of the opposite of each left fibre S↓d when coinitial, on the comma
parts (c, beta), and builds the view only where there is none.

The route it replaced, each view built and handed to
``certify_contractible`` (``oracles.view_route_cofinal``), is the oracle:
the same verdict and certificate at every object, in the same order, and
the same aggregate, both ways round, on every fixture functor and on
generated ones (monotone maps between posets, monoid homomorphisms,
full-subcategory inclusions and the codomain projections of
factorization categories).  Besides, ids that might not parse take the
view route and fail exactly as it does; a coslice with no cone is
certified on its view after one cone search, not two; of isomorphic
final objects the first in order is the cone; and an empty coslice is
refused as empty."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import view_route_cofinal
from test_cofinal_reduction import categories, posets
from test_hom_count import views_built

from hocofin import cofinal, fixtures
from hocofin.cofinal import certify_homotopy_cofinal
from hocofin.fincat import (
    CategoryError,
    Functor,
    factorization,
    from_monoid,
    full_subcategory,
    identity_functor,
    validate_category,
)


def assert_same_verdicts(S, effort=1, n_max=2):
    """Both routes on S, both ways round; returns the certificate kind of
    each verdict, else the first key of its witness, else its kind."""
    kinds = []
    for coinitial in (False, True):
        got = certify_homotopy_cofinal(S, effort=effort, n_max=n_max, coinitial=coinitial)
        want = view_route_cofinal(S, effort=effort, n_max=n_max, coinitial=coinitial)
        assert list(got["per_object"]) == list(want["per_object"])
        assert ([v.to_json() for v in got["per_object"].values()]
                == [v.to_json() for v in want["per_object"].values()])
        assert got["aggregate"] == want["aggregate"]
        kinds += [v.certificate["kind"] if v.certificate else next(iter(v.witness or {}), v.kind)
                  for v in got["per_object"].values()]
    return kinds


def fixture_functors():
    out = [make() for make in fixtures.FUNCTORS.values()]
    out += [fixtures.fun_cod_op(name) for name in fixtures.WEFRAC_CATEGORIES]
    for make in fixtures.CATEGORIES.values():
        C = make()
        out += [identity_functor(C), factorization(C).cod]
    for theorem in fixtures.THEOREM_FIXTURES:
        for name in fixtures.fixture_names(theorem):
            out += [v for v in fixtures.load_fixture(theorem, name).values()
                    if isinstance(v, Functor)]
    return out


def test_every_fixture_functor_gets_the_view_routes_verdicts():
    kinds = [k for S in fixture_functors() for k in assert_same_verdicts(S)]
    # cones, and coslices without one: collapses, empty ones, several
    # components and homology witnesses
    assert kinds.count("cone") > len(kinds) // 2
    assert {"collapse", "empty", "components", "degree"} <= set(kinds)


def test_effort_and_degree_reach_the_fallback():
    S = fixtures.fun_cod_op("par")
    for effort, n_max in ((1, 0), (2, 1), (3, 3)):
        assert_same_verdicts(S, effort=effort, n_max=n_max)


# -- generated functors ------------------------------------------------------------------


@st.composite
def monotone_maps(draw):
    """A monotone map between two posets of ``posets``: an arrow v_i ->
    v_j there has i <= j, so each point is sent, in index order, to a
    point above the images of the points below it."""
    P, Q = draw(posets()), draw(posets())
    index = sorted(P.objects, key=lambda v: int(v[1:]))
    image = {}
    for x in index:
        below = [image[y] for y in image if P.hom_count(y, x)]
        above = [q for q in Q.objects if all(Q.hom_count(b, q) for b in below)]
        assume(above)
        image[x] = draw(st.sampled_from(above))
    return Functor(P, Q, image, {f: Q.hom(image[P.dom[f]], image[P.cod[f]])[0]
                                 for f in P.morphisms})


def cyclic(n):
    names = ["z%d" % k for k in range(n)]
    return from_monoid(names, "z0", {(a, b): "z%d" % ((int(a[1:]) + int(b[1:])) % n)
                                     for a in names for b in names}, name="Z%d" % n)


def closure(gens):
    """The maps of {0, 1, 2} generated by ``gens`` under composition."""
    elements = {(0, 1, 2)}
    frontier = list(elements)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[f[i]] for i in range(3))
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    return elements


def transformations(elements):
    names = {f: "".join(map(str, f)) for f in sorted(elements)}
    table = {(names[g], names[f]): names[tuple(g[f[i]] for i in range(3))]
             for g in elements for f in elements}
    return from_monoid(sorted(names.values()), "012", table)


def by_name(M, N, h):
    """The functor BM -> BN of a monoid homomorphism given on names."""
    unit = N.identity["*"]
    return Functor(M, N, {"*": "*"}, {f: h(f) if h(f) in N.dom else unit
                                      for f in M.morphisms if not M.is_identity(f)})


@st.composite
def monoid_homomorphisms(draw):
    """Z/n -> Z/m with 1 -> a, n*a = 0 mod m; the inclusion of a
    transformation monoid's submonoid generated by some of its
    generators; or a monoid's map to the trivial one."""
    kind = draw(st.sampled_from(["cyclic", "submonoid", "trivial"]))
    if kind == "cyclic":
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        a = draw(st.sampled_from([a for a in range(m) if n * a % m == 0]))
        return by_name(cyclic(n), cyclic(m), lambda f: "z%d" % (int(f[1:]) * a % m))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=2))
    whole = closure(gens)
    assume(len(whole) <= 8)
    M = transformations(whole)
    if kind == "trivial":
        return by_name(M, cyclic(1), lambda f: "z0")
    sub = transformations(closure(gens[: draw(st.integers(0, len(gens)))]))
    return by_name(sub, M, lambda f: f)


@st.composite
def inclusions(draw):
    C = draw(categories)
    objs = draw(st.lists(st.sampled_from(C.objects), min_size=1, unique=True))
    sub = full_subcategory(C, objs)
    return Functor(sub, C, {o: o for o in sub.objects}, {f: f for f in sub.morphisms})


functors = st.one_of(
    monotone_maps(),
    monoid_homomorphisms(),
    inclusions(),
    # a category of 27 arrows (the factorization category of a three-element
    # monoid) gives coslices whose views take seconds to list, on both routes
    categories.filter(lambda C: len(C.morphisms) <= 12).map(lambda C: factorization(C).cod),
)


@settings(max_examples=80, deadline=None)
@given(functors)
def test_generated_functors_get_the_view_routes_verdicts(S):
    assert_same_verdicts(S)


# -- the cases the parts route must keep ---------------------------------------------------


def test_ids_that_do_not_parse_fail_as_on_the_view_route():
    # "(u|f|g)" names both (u, f|g) and (u|f, g) in o↓id
    C = validate_category(["o", "u", "u|f"], [("f|g", "o", "u"), ("g", "o", "u|f")], [])
    S = identity_functor(C)
    with pytest.raises(CategoryError, match="^duplicate object ids$"):
        view_route_cofinal(S)
    with pytest.raises(CategoryError, match="^duplicate object ids$"):
        certify_homotopy_cofinal(S)
    # without u|f the ids are distinct, and both routes certify them
    assert assert_same_verdicts(identity_functor(full_subcategory(C, ["o", "u"])))


def counted_cone_searches(monkeypatch):
    calls = []
    search = cofinal._cone

    def counting(objects, count):
        calls.append(len(objects))
        return search(objects, count)

    monkeypatch.setattr(cofinal, "_cone", counting)
    return calls


def test_a_coslice_without_a_cone_is_searched_once(monkeypatch):
    # S includes the ends of the span l <- c -> r: l↓S and r↓S have a
    # cone, c↓S is two points, S↓l and S↓r have a cone, S↓c is empty
    C = fixtures.cat_span()
    S = Functor(full_subcategory(C, ["l", "r"]), C, {"l": "l", "r": "r"}, {})
    for coinitial, witness in ((False, {"components": 2}), (True, {"empty": True})):
        calls = counted_cone_searches(monkeypatch)
        built = views_built(monkeypatch)
        rep = certify_homotopy_cofinal(S, coinitial=coinitial)
        monkeypatch.undo()
        assert rep["per_object"]["c"].to_json() == {"verdict": "NONCONTRACTIBLE",
                                                    "witness": witness}
        assert [v.certificate["kind"] for d, v in rep["per_object"].items() if d != "c"] == \
               ["cone", "cone"]
        # one search per object of C; one view, the one of c, and its
        # opposite when coinitial
        assert len(calls) == len(C.objects)
        assert len(built) == 1 + coinitial
    assert_same_verdicts(S)


def test_the_first_of_isomorphic_final_objects_is_the_cone():
    S = identity_functor(fixtures.cat_iso2())
    rep = certify_homotopy_cofinal(S)
    assert [v.certificate for v in rep["per_object"].values()] == [
        {"kind": "cone", "object": "(a|id_a)", "side": "final"},
        {"kind": "cone", "object": "(a|%s)" % S.target.hom("b", "a")[0], "side": "final"},
    ]
    # every object of the opposite of the fibre of cod on z2 is final, and
    # the first wins
    F = factorization(fixtures.cat_z2())
    rep = certify_homotopy_cofinal(F.cod, coinitial=True)
    assert rep["per_object"]["*"].certificate["object"] == "(id_*|id_*)"
    assert_same_verdicts(S)
    assert_same_verdicts(F.cod)


def test_an_empty_coslice_is_refused_as_empty():
    S = fixtures.fun_noncofinal_a_in_two()
    rep = certify_homotopy_cofinal(S)
    assert rep["per_object"]["b"].to_json() == {"verdict": "NONCONTRACTIBLE",
                                                "witness": {"empty": True}}
    assert rep["aggregate"] == "NONCONTRACTIBLE"
    assert "empty" in assert_same_verdicts(S)
