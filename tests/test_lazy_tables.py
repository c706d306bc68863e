"""``presheaf.simplicial_set`` builds each face and degeneracy table on its
first read.  The builder that built every table at construction,
``oracles.eager_simplicial_set``, is the oracle: every table of a lazily
built set, once read, equals the eager one, for the nerves of the fixture
categories and of generated categories and for the pointed and unpointed
diagonals of the fixture pointed diagrams at levels 3 and 4.  The
fundamental group and homology read only the degrees they need."""

from unittest import mock

import pytest
from hypothesis import given, settings
from oracles import eager_simplicial_set
from test_cofinal_reduction import categories
from test_sset_oracle import fixture_pointed_diagrams

from hocofin import fixtures, hocolim, presheaf
from hocofin.hocolim import hocolim_pointed, hocolim_unpointed
from hocofin.presheaf import edge_path_group, homology_ss, nerve


def eagerly(build):
    """``build()`` with every simplicial set it makes built eagerly."""
    with mock.patch.object(presheaf, "simplicial_set", eager_simplicial_set), \
            mock.patch.object(hocolim, "simplicial_set", eager_simplicial_set):
        return build()


def every_key(X):
    N = X.level
    return ({(n, i) for n in range(1, N + 1) for i in range(n + 1)},
            {(n, i) for n in range(N) for i in range(n + 1)})


def assert_tables_agree(lazy, eager):
    assert type(eager.faces) is dict and type(eager.degeneracies) is dict
    assert not lazy.faces and not lazy.degeneracies
    face_keys, degeneracy_keys = every_key(lazy)
    assert set(eager.faces) == face_keys and set(eager.degeneracies) == degeneracy_keys
    assert lazy.simplices == eager.simplices and lazy.basepoint == eager.basepoint
    for key in face_keys:
        assert lazy.faces[key] == eager.faces[key]
    for key in degeneracy_keys:
        assert lazy.degeneracies[key] == eager.degeneracies[key]
    assert dict(lazy.faces) == eager.faces and dict(lazy.degeneracies) == eager.degeneracies
    N = lazy.level
    assert ([lazy.degenerate_set(n) for n in range(N + 1)]
            == [eager.degenerate_set(n) for n in range(N + 1)])
    for tables, bad in ((lazy.faces, [(0, 0), (1, 2), (N + 1, 0), (2, -1)]),
                        (lazy.degeneracies, [(N, 0), (0, 1), (-1, 0)])):
        for key in bad:
            with pytest.raises(KeyError):
                tables[key]


def test_the_nerves_of_the_fixture_categories():
    for make in fixtures.CATEGORIES.values():
        C = make()
        assert_tables_agree(nerve(C, 3), eagerly(lambda: nerve(C, 3)))
        assert_tables_agree(nerve(C, 2, basepoint=C.objects[0]),
                            eagerly(lambda: nerve(C, 2, basepoint=C.objects[0])))


@settings(max_examples=40, deadline=None)
@given(categories)
def test_the_nerves_of_generated_categories(C):
    assert_tables_agree(nerve(C, 3, basepoint=C.objects[0]),
                        eagerly(lambda: nerve(C, 3, basepoint=C.objects[0])))


@pytest.mark.parametrize("level", [3, 4])
def test_the_diagonals_of_the_fixture_pointed_diagrams(level):
    eager_diagrams = eagerly(lambda: fixture_pointed_diagrams(level))
    for PD, eager_PD in zip(fixture_pointed_diagrams(level), eager_diagrams):
        for diagonal in (hocolim_pointed, hocolim_unpointed):
            assert_tables_agree(diagonal(PD, level), eagerly(lambda: diagonal(eager_PD, level)))


def test_check_reads_every_table():
    X = nerve(fixtures.CATEGORIES["span"](), 3, basepoint="l")
    X._check()
    assert (set(X.faces), set(X.degeneracies)) == every_key(X)


def built_degrees(X):
    """The top degree of a built face table and of a built degeneracy
    table."""
    return (max((n for n, _ in X.faces), default=0),
            max((n for n, _ in X.degeneracies), default=-1))


@pytest.mark.parametrize("name", sorted(fixtures.POINTED_DIAGRAMS))
def test_pi1_of_a_level_4_diagonal_builds_only_degrees_up_to_2(name, monkeypatch):
    monkeypatch.setattr(fixtures, "POINTED_LEVEL", 4)
    P = hocolim_pointed(fixtures.POINTED_DIAGRAMS[name](), 4)
    edge_path_group(P)
    faces, degeneracies = built_degrees(P)
    assert faces <= 2 and degeneracies <= 1


def test_pi1_of_a_level_3_nerve_builds_only_degrees_up_to_2():
    X = fixtures.SSETS["bz2-l3"]()
    edge_path_group(X)
    assert built_degrees(X) == (2, 1)


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_homology_through_degree_n_builds_only_degrees_up_to_n_plus_1(n_max, monkeypatch):
    monkeypatch.setattr(fixtures, "POINTED_LEVEL", 4)
    X = hocolim_pointed(fixtures.POINTED_DIAGRAMS["bg-span-z2-z3"](), 4)
    homology_ss(X, n_max)
    assert built_degrees(X) == (n_max + 1, n_max)
