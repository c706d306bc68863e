"""Derived colimits over the reflective core against the unreduced
simplicial replacement.

``ab_colim_derived`` assembles its complex over the full subcategory that
``reflective_core`` keeps.  The oracle here is ``srep_ab_complex`` run on
the whole index category; every step (x, r, u) that the core records is
replayed by a hom-set check that does not use ``_Neighbours``."""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocofin import cli, fixtures, gz
from hocofin.cofinal import reflective_core
from hocofin.diagrams import (
    AbDiagram,
    GroupDiagram,
    ab_colim_derived,
    abelianize_diagram,
    constant_ab_diagram,
    srep_ab_complex,
)
from hocofin.fincat import (
    factorization,
    from_monoid,
    from_poset,
    full_subcategory,
    opposite,
    validate_category,
)
from hocofin.groups import cyclic_group
from hocofin.homalg import AbMap, FGAb

Z, Z2, ZERO = FGAb.free(1), FGAb.cyclic(2), FGAb.free(0)


def unreduced(C, M, n_max):
    complex_ = srep_ab_complex(C, M, n_max)
    return [complex_.homology(n) for n in range(n_max + 1)]


def replay(C, kept, steps):
    """Remove each recorded x in turn, checking from C's hom-sets that u
    is a universal arrow from x into the objects left; the objects left
    at the end must be the kept ones, in C's order."""
    left = list(C.objects)
    for x, r, u in steps:
        assert x in left and r in left and r != x
        left.remove(x)
        assert u in C.hom(x, r)
        for y in left:
            images = [C.comp[(g, u)] for g in C.hom(r, y)]
            assert sorted(images) == sorted(C.hom(x, y)), (x, r, u, y)
    assert left == kept


def assert_reduction_sound(C, M, n_max):
    kept, steps = reflective_core(C)
    replay(C, kept, steps)
    assert ab_colim_derived(C, M, n_max) == unreduced(C, M, n_max)
    return kept


# -- variance and no-op cases ---------------------------------------------------


def walking_arrow():
    return from_poset(["a", "b"], lambda x, y: (x, y) == ("a", "b"))


def cyclic_category(order):
    G = cyclic_group(order)
    return from_monoid(G.elements, G.unit, G.table)


def test_colimits_keep_the_target_of_the_universal_arrow():
    """On a <= b with M(a) = 0 and M(b) = Z the colimit is M(b) = Z; the
    core must keep b, the end of the universal arrow out of a.  Keeping a,
    as a coreflection would, gives 0."""
    P = walking_arrow()
    M = AbDiagram(P, {"a": ZERO, "b": Z}, {"a<=b": AbMap(ZERO, Z, [])})
    assert reflective_core(P) == (["b"], [("a", "b", "a<=b")])
    assert ab_colim_derived(P, M, 2) == [Z, ZERO, ZERO]
    assert unreduced(P, M, 2) == [Z, ZERO, ZERO]


def maximal_ends_fence(k):
    """p0 > p1 < p2 > ... < p2k: every minimum has two arrows into
    incomparable maxima, and a maximum has no arrow out."""
    points = ["p%d" % i for i in range(2 * k + 1)]
    return from_poset(points, lambda x, y: abs(int(x[1:]) - int(y[1:])) == 1 and int(x[1:]) % 2 == 1)


def crown(n):
    mins = ["a%d" % i for i in range(n)]
    maxs = ["b%d" % i for i in range(n)]
    above = {"a%d" % i: {"b%d" % i, "b%d" % ((i + 1) % n)} for i in range(n)}
    return from_poset(mins + maxs, lambda x, y: y in above.get(x, ()))


@pytest.mark.parametrize("C", [
    cyclic_category(3),
    fixtures.cat_one(),
    maximal_ends_fence(1),
    maximal_ends_fence(3),
    crown(3),
    crown(4),
], ids=["BZ3", "one", "fence-2", "fence-6", "crown-3", "crown-4"])
def test_without_universal_arrows_every_object_is_kept_in_order(C):
    assert reflective_core(C) == (list(C.objects), [])
    assert_reduction_sound(C, constant_ab_diagram(C, Z), 2)


def test_a_connected_groupoid_keeps_one_object():
    F = opposite(factorization(cyclic_category(4)).category)
    kept, steps = reflective_core(F)
    assert kept == [F.objects[-1]] and len(steps) == len(F.objects) - 1
    replay(F, kept, steps)


# -- fixtures ---------------------------------------------------------------------


def _abelian(diagram):
    return diagram if isinstance(diagram, AbDiagram) else abelianize_diagram(diagram)


def fixture_diagrams():
    out = []
    for section in ("abdiagrams", "diagrams", "systems"):
        out += [(name, build()) for name, build in fixtures.BUILTINS[section].items()]
    for theorem in fixtures.THEOREM_FIXTURES:
        for name in fixtures.fixture_names(theorem):
            for key, value in fixtures.load_fixture(theorem, name).items():
                if isinstance(value, (AbDiagram, GroupDiagram)):
                    out.append(("%s/%s/%s" % (theorem, name, key), value))
    return out


def test_every_fixture_diagram_and_system_matches_the_unreduced_complex():
    reduced = 0
    cases = fixture_diagrams()
    for name, diagram in cases:
        M = _abelian(diagram)
        kept = assert_reduction_sound(M.base, M, 3)
        reduced += len(kept) < len(M.base.objects)
    assert len(cases) > 40 and reduced > 10


def test_a_core_table_is_the_base_table_on_the_kept_arrows():
    # full_subcategory reads its table pair by pair; the oracle filters
    # the base's whole table
    cases = 0
    for _, diagram in fixture_diagrams():
        C = diagram.base
        kept, _ = reflective_core(C)
        if len(kept) == len(C.objects):
            continue
        A = full_subcategory(C, kept)
        arrows = set(A.morphisms)
        assert A.comp == {k: h for k, h in C.comp.items() if k[0] in arrows and k[1] in arrows}
        cases += 1
    assert cases > 10


def test_every_verify_fixture_matches_the_unreduced_complex(monkeypatch):
    """Each derived colimit that a theorem check computes, on every
    fixture, equals the unreduced one."""
    seen = []

    def checked(C, M, n_max):
        got = ab_colim_derived(C, M, n_max)
        kept = assert_reduction_sound(C, M, n_max)
        seen.append(len(kept) < len(C.objects))
        return got

    for module in (cli, gz):
        monkeypatch.setattr(module, "ab_colim_derived", checked)
    for theorem in cli.THEOREMS:
        for name in fixtures.fixture_names(theorem):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["verify", "--theorem", theorem, "--fixture", name]) in (0, 2, 3)
    assert len(seen) > 80 and sum(seen) > 20, (len(seen), sum(seen))


# -- generated categories ---------------------------------------------------------


@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    points = ["v%d" % i for i in range(n)]
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    up = {i: {i} | {j for a, j in pairs if a == i and j > i} for i in range(n)}
    for i in reversed(range(n)):
        for j in sorted(up[i]):
            up[i] |= up[j]
    order = draw(st.permutations(range(n)))
    return from_poset([points[i] for i in order], lambda x, y: int(y[1:]) in up[int(x[1:])])


@st.composite
def monoids(draw, most):
    """A one-object category of at most ``most`` maps of {0, 1, 2}, closed
    under composition, from one or two random generators."""
    gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=2))
    elements = {(0, 1, 2)}
    frontier = list(elements)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[f[i]] for i in range(3))
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    assume(len(elements) <= most)
    names = {f: "".join(map(str, f)) for f in sorted(elements)}
    table = {(names[g], names[f]): names[tuple(g[f[i]] for i in range(3))]
             for g in elements for f in elements}
    return from_monoid(sorted(names.values()), "012", table)


def disjoint_union(A, B):
    tag = {0: "l.", 1: "r."}
    objs, mors, comp = [], [], []
    for k, C in enumerate((A, B)):
        objs += [tag[k] + o for o in C.objects]
        mors += [(tag[k] + f, tag[k] + C.dom[f], tag[k] + C.cod[f])
                 for f in C.morphisms if not C.is_identity(f)]
        comp += [(tag[k] + g, tag[k] + f, "id_" + tag[k] + C.cod[g] if C.is_identity(h) else tag[k] + h)
                 for (g, f), h in C.comp.items() if not C.is_identity(g) and not C.is_identity(f)]
    return validate_category(objs, mors, comp)


# factorization categories of monoids: their coslices have initial
# objects whenever the monoid has invertible elements
categories = st.one_of(
    posets(),
    monoids(6),
    monoids(3).map(lambda C: opposite(factorization(C).category)),
    st.tuples(posets(), posets() | monoids(4)).map(lambda p: disjoint_union(*p)),
    posets().map(opposite),
)


@st.composite
def diagrams_over(draw, C):
    """The constant diagram with value Z or Z/2, or, over a poset, the
    one that is Z on an upward-closed set of objects and 0 elsewhere."""
    value = draw(st.sampled_from([Z, Z2]))
    if draw(st.booleans()) or any(C.hom(x, x) != [C.identity[x]] for x in C.objects):
        return constant_ab_diagram(C, value)
    seeds = draw(st.sets(st.sampled_from(C.objects), max_size=3))
    upper = {y for x in seeds for y in C.objects if C.hom(x, y)}
    values = {o: value if o in upper else ZERO for o in C.objects}
    actions = {}
    for f in C.morphisms:
        src, dst = values[C.dom[f]], values[C.cod[f]]
        actions[f] = AbMap(src, dst, [{0: 1}] if src.gens else [])
    return AbDiagram(C, values, actions)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generated_categories_match_the_unreduced_complex(data):
    C = data.draw(categories)
    M = data.draw(diagrams_over(C))
    assert_reduction_sound(C, M, 2)


# -- reach --------------------------------------------------------------------------


@pytest.mark.parametrize("order, coeff, n_max, expected", [
    (5, Z, 2, ["Z", "Z/5", "0"]),
    (6, Z, 3, ["Z", "Z/6", "0", "Z/6"]),
    (5, Z2, 3, ["Z/2", "0", "0", "0"]),
])
def test_bw_of_a_cyclic_group_is_its_group_homology(order, coeff, n_max, expected):
    """H_n(Z/m; Z) is Z, Z/m, 0, Z/m, ...; H_n(Z/m; Z/2) for odd m is Z/2
    in degree 0 only.  Both routes must give it."""
    C = cyclic_category(order)
    res = gz.bw_homology(C, fixtures.const_ab_nsys(C, coeff), n_max)
    assert res["routes_agree"] and [str(h) for h in res["abelian"]] == expected
