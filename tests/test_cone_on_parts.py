"""Every certificate over a base looks for the cone on the parts of the
objects, and builds the view only where there is none
(``cofinal.certify_over``): ``certify_homotopy_cofinal`` on each coslice
d↓S, or on the opposite of each left fibre S↓d when coinitial,
``gz.certify_slices`` on each factorization slice S<alpha>, and
``gz.certify_fibres`` on the category of elements of each inverse fibre.

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
refused as empty.

The slices and inverse fibres are held to their view routes in the same
way (``oracles.view_route_slices``, ``oracles.view_route_fibres``): on
every ``confhomolBW`` and ``dhiso`` fixture, on the slices of the
generated functors, on every built-in presheaf morphism and on the map
of every built-in presheaf to the point; ids that do not parse fail as
on the view route, a slice or fibre with no cone is searched once, and
an empty fibre is refused as empty."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import view_route_cofinal, view_route_fibres, view_route_slices
from test_cofinal_reduction import categories, posets
from test_hom_count import views_built

from hocofin import cofinal, fixtures
from hocofin.cofinal import certify_homotopy_cofinal
from hocofin.fincat import (
    CategoryError,
    DanglingId,
    Functor,
    factorization,
    from_monoid,
    full_subcategory,
    identity_functor,
    slice_parts,
    validate_category,
)
from hocofin.gz import certify_fibres, certify_slices
from hocofin.presheaf import DSet, DSetMorphism, constant_singleton


def verdicts(got, want):
    """Checks that two routes give the same verdicts under the same keys,
    in the same order; returns the certificate kind of each verdict, else
    the first key of its witness, else its kind."""
    assert list(got) == list(want)
    assert [v.to_json() for v in got.values()] == [v.to_json() for v in want.values()]
    return [v.certificate["kind"] if v.certificate else next(iter(v.witness or {}), v.kind)
            for v in got.values()]


def assert_same_verdicts(S, effort=1, n_max=2):
    """Both routes on S, both ways round; returns ``verdicts``' kinds."""
    kinds = []
    for coinitial in (False, True):
        got = certify_homotopy_cofinal(S, effort=effort, n_max=n_max, coinitial=coinitial)
        want = view_route_cofinal(S, effort=effort, n_max=n_max, coinitial=coinitial)
        kinds += verdicts(got["per_object"], want["per_object"])
        assert got["aggregate"] == want["aggregate"]
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


# -- factorization slices and inverse fibres ------------------------------------------------


def assert_same_slice_verdicts(S, effort=1, n_max=2):
    return verdicts(certify_slices(S, n_max, effort=effort),
                    view_route_slices(S, n_max, effort=effort))


def assert_same_fibre_verdicts(f, effort=1, n_max=2):
    return verdicts(certify_fibres(f, n_max, effort=effort),
                    view_route_fibres(f, n_max, effort=effort))


def to_point(X):
    """The map of a presheaf to the point."""
    pt = constant_singleton(X.base)
    return DSetMorphism(X, pt, {o: {x: "*" for x in X.sets[o]} for o in X.base.objects})


def presheaf_morphisms():
    out = [make() for make in fixtures.DSETMAPS.values()]
    out += [to_point(make()) for make in fixtures.DSETS.values()]
    out += [fixtures.load_fixture("dhiso", name)["dset_morphism"]
            for name in fixtures.fixture_names("dhiso")]
    return out


def test_every_bw_fixture_gets_the_view_routes_slice_verdicts():
    kinds = []
    for name in fixtures.fixture_names("confhomolBW"):
        S = fixtures.load_fixture("confhomolBW", name)["functor"]
        for effort, n_max in ((1, 2), (2, 1)):
            kinds += assert_same_slice_verdicts(S, effort, n_max)
    assert {"cone", "empty"} <= set(kinds)


def test_every_presheaf_morphism_gets_the_view_routes_fibre_verdicts():
    kinds = []
    for f in presheaf_morphisms():
        for effort, n_max in ((1, 2), (2, 1)):
            kinds += assert_same_fibre_verdicts(f, effort, n_max)
    assert {"cone", "empty", "components"} <= set(kinds)


def test_slices_of_fixture_functors_get_the_view_routes_verdicts():
    kinds = [k for S in fixture_functors() for k in assert_same_slice_verdicts(S)]
    # cones, and slices without one: collapses, empty ones and several
    # components
    assert kinds.count("cone") > len(kinds) // 2
    assert {"collapse", "empty", "components"} <= set(kinds)


# a slice of 32 objects with no cone (of the codomain projection of the
# factorization category of a three-element monoid) can keep the collapse
# search busy for minutes before its state cap, on both routes
small_slices = functors.filter(
    lambda S: all(len(slice_parts(S, alpha)[0]) <= 16 for alpha in S.target.morphisms))


@settings(max_examples=60, deadline=None)
@given(small_slices)
def test_slices_of_generated_functors_get_the_view_routes_verdicts(S):
    assert_same_slice_verdicts(S)


def test_slice_ids_that_do_not_parse_fail_as_on_the_view_route():
    # a = (q|r)∘p through m and a = r∘q through m|p: "(m|p|q|r)" names both
    C = validate_category(["s", "t", "m", "m|p"],
                         [("a", "s", "t"), ("p", "s", "m"), ("q|r", "m", "t"),
                          ("q", "s", "m|p"), ("r", "m|p", "t")],
                         [("q|r", "p", "a"), ("r", "q", "a")])
    S = identity_functor(C)
    with pytest.raises(CategoryError, match="^duplicate object ids$"):
        view_route_slices(S, 2)
    with pytest.raises(CategoryError, match="^duplicate object ids$"):
        certify_slices(S, 2)
    # without m|p the ids are distinct, and both routes certify them
    assert_same_slice_verdicts(identity_functor(full_subcategory(C, ["s", "t", "m"])))


def test_fibre_ids_that_do_not_parse_fail_as_on_the_view_route():
    # in the fibre of X -> pt over (b, *), u names two morphisms
    # "[u:(a|(p|u))->(b|(q|u))->(b|(r|id_b))]": from (a|(p|u)) and from
    # (a|(p|u))->(b|(q|u)), as in the elements category of test_cli's
    # ELEMENTS_THAT_COLLIDE
    C = fixtures.cat_two()
    X = DSet(C, {"a": ["p", "p|u))->(b|(q"], "b": ["q|u))->(b|(r", "r"]},
             {"u": {"q|u))->(b|(r": "p", "r": "p|u))->(b|(q"}})
    message = r"^morphism id \[u:\(a\|\(p\|u\)\)->\(b\|\(q\|u\)\)->\(b\|\(r\|id_b\)\)\] duplicates"
    with pytest.raises(DanglingId, match=message):
        view_route_fibres(to_point(X), 2)
    with pytest.raises(DanglingId, match=message):
        certify_fibres(to_point(X), 2)
    # names that are not terms but do not collide: both routes certify them
    Y = DSet(C, {"a": ["p|q"], "b": ["(r"]}, {"u": {"(r": "p|q"}})
    assert assert_same_fibre_verdicts(to_point(Y)) == ["cone", "cone"]


def test_a_slice_or_fibre_without_a_cone_is_searched_once(monkeypatch):
    # two-cells-to-point: every fibre is two components; final-in-two:
    # the slice at id_a is empty, the others have a cone
    f = fixtures.dmor_two_cells_to_point()
    S = fixtures.load_fixture("confhomolBW", "final-in-two")["functor"]
    for certify, arg, keys, coneless in ((certify_fibres, f, 3, 3), (certify_slices, S, 3, 1)):
        calls = counted_cone_searches(monkeypatch)
        built = views_built(monkeypatch)
        got = certify(arg, 2)
        monkeypatch.undo()
        assert len(got) == keys
        assert sum(v.kind == "NONCONTRACTIBLE" for v in got.values()) == coneless
        # one search per slice or fibre, and a view only where it found no cone
        assert len(calls) == keys and len(built) == coneless


def test_an_empty_fibre_is_refused_as_empty():
    f = fixtures.dmor_incl_hb_union()
    got = certify_fibres(f, 2)
    assert got[("a", "0:id_a")].to_json() == {"verdict": "NONCONTRACTIBLE",
                                              "witness": {"empty": True}}
    assert "empty" in assert_same_fibre_verdicts(f)
