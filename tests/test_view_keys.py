"""Derived views compared by their construction.

``opposite``, ``factorization`` and the category of elements key their
view by the builder and what it reads; ``FinCat.__eq__`` answers from the
keys when both are set and equal, and compares in full otherwise.  The
full comparison (``oracles.same_tables``) is the oracle: ``==`` agrees
with it on views of equal and of unequal bases, and two views with equal
keys are neither listed nor tabulated to say so."""

import contextlib
import io

from hypothesis import given, settings

from hocofin import cli, fixtures, gz
from hocofin.diagrams import constant_ab_diagram
from hocofin.fincat import factorization, from_monoid, opposite
from hocofin.groups import cyclic_group
from hocofin.homalg import FGAb
from hocofin.presheaf import elements_with_parts, representable
from oracles import same_tables
from test_cofinal import stages_built
from test_cofinal_reduction import categories


def bz(n):
    G = cyclic_group(n)
    return lambda: from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)


CATEGORY_MAKERS = list(fixtures.CATEGORIES.values()) + [bz(4), bz(5), bz(6)]


def keyed_views(C):
    """One of each keyed view over C, and views whose keys differ from
    those of views equal to them."""
    F = factorization(C)
    return [opposite(C), F.category, F.category_op, opposite(F.category_op), opposite(opposite(C))]


def elements(X):
    return elements_with_parts(X)[0]


def agree(A, B):
    """``A == B``, checked against the full comparison."""
    assert (A == B) == same_tables(A, B), (A, B)
    return A == B


def equal_unread(A, B, monkeypatch):
    """Fresh views with equal keys compare equal without being listed or
    tabulated; then the oracle agrees."""
    built = stages_built(monkeypatch)
    assert A._key == B._key and A == B
    assert built == []
    monkeypatch.undo()
    assert same_tables(A, B)


def test_views_of_equal_bases_are_equal_unread(monkeypatch):
    for make in CATEGORY_MAKERS:
        # two bases built apart, compared in full inside the key
        C, D = make(), make()
        assert C is not D
        equal_unread(opposite(C), opposite(D), monkeypatch)
        equal_unread(factorization(C).category, factorization(D).category, monkeypatch)
        equal_unread(factorization(C).category_op, factorization(D).category_op, monkeypatch)


def test_views_of_unequal_bases_agree_with_the_oracle():
    views = [V for make in CATEGORY_MAKERS for V in [make()] + keyed_views(make())]
    for A in views:
        for B in views:
            agree(A, B)


def test_unequal_keys_do_not_make_unequal_categories():
    for make in CATEGORY_MAKERS:
        C = make()
        F = factorization(C)
        for A, B in ((opposite(opposite(C)), C), (opposite(F.category_op), F.category)):
            assert A._key != B._key and agree(A, B)


@settings(max_examples=40, deadline=None)
@given(categories)
def test_views_of_generated_categories_agree_with_the_oracle(C):
    views = [C] + keyed_views(C)
    for A in views:
        for B in views:
            agree(A, B)
    for A, B in zip(keyed_views(C), keyed_views(C)):
        assert A == B


def presheaf_makers():
    makers = list(fixtures.DSETS.values())
    for make in CATEGORY_MAKERS:
        makers += [lambda make=make, d=d: representable(make(), d) for d in make().objects]
    return makers


def test_elements_of_equal_presheaves_are_equal_unread(monkeypatch):
    for make in presheaf_makers():
        # two built-in copies of one presheaf, over bases built apart
        X, Y = make(), make()
        equal_unread(elements(X), elements(Y), monkeypatch)
        equal_unread(opposite(elements(X)), opposite(elements(Y)), monkeypatch)


def test_elements_of_unequal_presheaves_agree_with_the_oracle():
    views = [elements(make()) for make in presheaf_makers()]
    assert sum(agree(A, B) for A in views for B in views if A is not B) > 0


def test_a_representable_and_the_fixture_that_builds_it_give_equal_elements(monkeypatch):
    equal_unread(elements(fixtures.dset_hb_two()), elements(representable(fixtures.cat_two(), "b")),
                 monkeypatch)


def tabulated(built, *views):
    """Those of ``views`` that built their composition table."""
    return [V for V, stage in built if stage == "table" and any(V is W for W in views)]


def test_homology_builds_no_table_for_a_system_over_a_separate_base(monkeypatch):
    F = factorization(fixtures.cat_z2())
    nsys = constant_ab_diagram(F.category_op, FGAb.free(1))
    E = elements(fixtures.dset_interval_span())
    psys = constant_ab_diagram(opposite(E), FGAb.free(1))
    built = stages_built(monkeypatch)
    assert gz.bw_homology(fixtures.cat_z2(), nsys, 2)["routes_agree"]
    assert gz.gz_homology(fixtures.dset_interval_span(), psys, 2)["routes_agree"]
    assert tabulated(built, nsys.base, F.category, psys.base, E) == []


def test_the_base_checks_of_bw_and_gz_build_no_table_for_the_system(monkeypatch):
    systems = []
    for name in ("bw_homology", "gz_homology"):
        def spy(base, system, n_max, real=getattr(cli, name)):
            systems.append(system)
            return real(base, system, n_max)
        monkeypatch.setattr(cli, name, spy)
    built = stages_built(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main("bw --category z2cat --system z-nsys-z2cat --nmax 2".split()) == 0
        assert cli.main("gz --dset interval-span --system z-el-interval --nmax 2".split()) == 0
    assert len(systems) == 2
    assert tabulated(built, *(system.base for system in systems)) == []
    # nor the factorization category or the category of elements under it
    assert tabulated(built, *(system.base._key[1] for system in systems)) == []
