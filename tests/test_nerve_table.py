"""Complex assembly from the indexed nerve table.

``fincat.NerveTable`` lists the nondegenerate nerve chains of a category
by index, with each chain's faces as indices into the degree below.  The
tuple-building functions it replaced in assembly, ``composable_chains``
and ``chain_face``, are the oracle: the same chains in the same order,
and a face index exactly where ``chain_face`` gives a chain without an
identity.  The chain cap is counted before any chain is built, and the
assembly of ``H(BS3;Z)/n3`` must build no face tuple and take no square
chain by chain."""

import pytest
from hypothesis import given, settings
from oracles import nondegenerate_chains
from test_cofinal_reduction import categories

from hocofin import diagrams, fincat, fixtures, groups, gz, homalg, presheaf
from hocofin.diagrams import TruncationUnsound, ab_colim_derived, constant_ab_diagram
from hocofin.fincat import NerveTable, chain_counts, chain_face, from_monoid
from hocofin.homalg import FGAb

Z = FGAb.free(1)


def one_object(G):
    return from_monoid(G.elements, G.unit, G.table, name="B" + G.name)


def assert_table_matches_the_chains(C, top):
    T = NerveTable(C, top)
    units = set(C.identity.values())
    chains = [nondegenerate_chains(C, n) for n in range(top + 1)]
    assert chain_counts(C, top) == [len(layer) for layer in chains]
    assert T.origin[0] == [ch[0] for ch in chains[0]] == C.objects
    assert T.faces[0] == [()] * len(C.objects)
    for n in range(1, top + 1):
        below = {ch: j for j, ch in enumerate(chains[n - 1])}
        # d_n drops the last arrow: the chain is its prefix, then its last arrow
        rebuilt = [chains[n - 1][fs[n]] + (l,) for l, fs in zip(T.last[n], T.faces[n])]
        assert rebuilt == chains[n]
        assert T.origin[n] == [ch[0] for ch in chains[n]]
        assert T.first[n] == [ch[1] for ch in chains[n]]
        for ch, fs in zip(chains[n], T.faces[n]):
            want = []
            for i in range(n + 1):
                face = chain_face(C, ch, i)
                want.append(None if units.intersection(face[1:]) else below[face])
            assert list(fs) == want, (ch, fs, want)


def test_the_fixture_categories():
    for make in fixtures.CATEGORIES.values():
        assert_table_matches_the_chains(make(), 4)
    for G in (groups.symmetric_group_3(), groups.cyclic_group(4)):
        C = one_object(G)
        assert_table_matches_the_chains(C, 4)
        assert_table_matches_the_chains(fincat.factorization(C).category_op, 2)


@settings(max_examples=60, deadline=None)
@given(categories)
def test_generated_categories(C):
    assert_table_matches_the_chains(C, 3)


def test_degree_zero_alone():
    C = fixtures.CATEGORIES["span"]()
    T = NerveTable(C, 0)
    assert T.origin == [C.objects] and T.faces == [[()] * len(C.objects)]


# -- the chain cap ----------------------------------------------------------------


def spy_on_building(monkeypatch):
    """Record every table built and every chain tuple listed."""
    built = []
    for module, name in ((diagrams, "NerveTable"), (fincat, "NerveTable"),
                         (fincat, "composable_chains")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    return built


@pytest.mark.parametrize("cap", [0, 3, 40])
def test_the_cap_fires_before_any_chain_is_built(cap, monkeypatch):
    # BZ3 has 1, 2, 4, 8, 16 chains in degrees 0..4: the first degree past
    # the cap is named, with its count, for both complexes over chains
    C = one_object(groups.cyclic_group(3))
    first = next((n for n, k in enumerate([1, 2, 4, 8, 16]) if k > cap), 5)
    message = "degree %d has %d chains (cap %d)" % (first, 2 ** first, cap)
    M = constant_ab_diagram(C, Z)
    fdata = fincat.factorization(C)
    system = fixtures.const_ab_nsys(C, Z)
    monkeypatch.setattr(diagrams, "DEFAULT_CHAIN_CAP", cap)
    built = spy_on_building(monkeypatch)
    for build in (lambda: diagrams.srep_ab_complex(C, M, 3),
                  lambda: gz.nerve_route_complex(C, system, 3, fdata)):
        if first > 4:
            build()
            continue
        with pytest.raises(TruncationUnsound) as err:
            build()
        assert str(err.value) == message
    assert built == (["NerveTable"] * 2 if first > 4 else [])


def test_bz8_through_degree_6_is_refused_unbuilt(monkeypatch):
    # degree 7 has 7**7 = 823543 chains; degrees 0..6 are not built first
    built = spy_on_building(monkeypatch)
    C = one_object(groups.cyclic_group(8))
    with pytest.raises(TruncationUnsound, match=r"^degree 7 has 823543 chains \(cap 200000\)$"):
        ab_colim_derived(C, constant_ab_diagram(C, Z), 6)
    assert built == []


# -- what assembly no longer does -------------------------------------------------


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name, through every hocofin module that
    binds it."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in (fincat, homalg, diagrams, gz, presheaf):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_bs3_assembly_builds_no_face_tuple_and_takes_no_square(monkeypatch):
    C = one_object(groups.symmetric_group_3())
    M = constant_ab_diagram(C, Z)
    faces = count_calls(monkeypatch, fincat, "chain_face")
    chains = count_calls(monkeypatch, fincat, "composable_chains")
    pushes = count_calls(monkeypatch, homalg, "_push")
    K = diagrams.srep_ab_complex(C, M, 3)
    assert [K.groups[n].gens for n in range(5)] == [1, 5, 25, 125, 625]
    assert faces == chains == pushes == []
    assert [str(K.homology(n)) for n in range(4)] == ["Z", "Z/2", "0", "Z/6"]


def test_the_nerve_route_and_normalized_chains_take_no_square(monkeypatch):
    C = one_object(groups.cyclic_group(3))
    X = presheaf.nerve(C, 4)
    fdata = fincat.factorization(C)
    system = fixtures.const_ab_nsys(C, FGAb.cyclic(2))
    pushes = count_calls(monkeypatch, homalg, "_push")
    faces = count_calls(monkeypatch, fincat, "chain_face")
    K = gz.nerve_route_complex(C, system, 2, fdata)
    assert faces == pushes == []
    L = presheaf.normalized_chain_complex(X, 2)
    assert pushes == []
    assert [str(K.homology(n)) for n in range(3)] == ["Z/2", "0", "0"]
    assert [str(L.homology(n)) for n in range(3)] == ["Z", "Z/3", "0"]
