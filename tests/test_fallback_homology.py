"""The homology fallback of ``certify_contractible`` reads the
nondegenerate nerve chains of ``fincat.NerveTable`` and their face
indices.  The route it replaced, the homology of the whole level-(n + 1)
nerve with its degenerate chains and degeneracy tables
(``oracles.nerve_homology``), is the oracle: the same H_0..H_n, and the
same verdict, witness and checks from ``certify_contractible`` with either
route in place, on the fixture categories, their opposites and
factorization categories, crowns, an idempotent, and the generated
categories of ``test_cofinal_reduction``.  Only nerves the cap lets
through are compared, since only those reach the fallback."""

import itertools
from unittest import mock

from hypothesis import given, settings
from oracles import nerve_homology
from test_cofinal_reduction import categories, crown

from hocofin import cofinal, fixtures
from hocofin.cofinal import (
    DEFAULT_NERVE_CAP,
    EVIDENCE,
    NONCONTRACTIBLE,
    _nerve_homology,
    _nerve_sizes,
    certify_contractible,
)
from hocofin.fincat import chain_counts, factorization, from_monoid, from_poset, opposite

# (effort, n_max): the degree checked is max(1, n_max + effort - 1)
SETTINGS = [(1, 0), (1, 2), (2, 0), (2, 1)]


def same_homology(B, top=3):
    """Both routes through each degree n <= top whose nerve the cap lets
    through; returns how many degrees were compared."""
    compared = 0
    for n in range(top + 1):
        if B.objects and max(_nerve_sizes(B, n + 1)) <= DEFAULT_NERVE_CAP:
            assert _nerve_homology(B, n) == nerve_homology(B, n), (B, n)
            compared += 1
    return compared


def same_verdicts(B):
    """The verdicts with the table route and with the whole nerve, at each
    setting; returns them."""
    got = [certify_contractible(B, effort, n_max).to_json() for effort, n_max in SETTINGS]
    with mock.patch.object(cofinal, "_nerve_homology", nerve_homology):
        want = [certify_contractible(B, effort, n_max).to_json() for effort, n_max in SETTINGS]
    assert got == want, B
    return got


def idempotent():
    """One object and one idempotent e = e∘e: no cone, no collapse, and a
    contractible nerve."""
    return from_monoid(["1", "e"], "1", {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e",
                                        ("e", "e"): "e"})


def test_the_fixture_categories_crowns_and_their_opposites():
    cats = []
    for make in fixtures.CATEGORIES.values():
        C = make()
        cats += [C, opposite(C), factorization(C).category]
    cats += [crown(n) for n in (2, 3, 4)] + [idempotent()]
    compared = sum(same_homology(C) for C in cats)
    verdicts = [v for C in cats + [opposite(C) for C in cats] for v in same_verdicts(C)]
    kinds = {(v["verdict"], "degree" in v.get("witness", {})) for v in verdicts}
    # the fallback gave witnesses and evidence, and compared many degrees
    assert {(NONCONTRACTIBLE, True), (EVIDENCE, False)} <= kinds
    assert compared > 50


@settings(max_examples=80, deadline=None)
@given(categories)
def test_generated_categories(C):
    same_homology(C)
    same_verdicts(C)


def test_the_degree_checked_is_n_max_plus_effort_minus_one():
    # one-object Z/2: no cone and no collapse, H_1 = Z/2
    B = fixtures.CATEGORIES["z2cat"]()
    for (effort, n_max), n in zip(SETTINGS, (1, 2, 1, 2)):
        v = certify_contractible(B, effort, n_max)
        assert v.checks["n_max"] == n and len(v.checks["homology"]) == n + 1
        assert v.witness == {"degree": 1, "homology": "Z/2"}


def test_the_cap_counts_degenerate_chains():
    # proper nonempty subsets of {0, 1, 2, 3}, a 2-sphere: the table holds
    # the nondegenerate chains, the cap reads the count with degenerate ones
    subsets = [s for r in range(1, 4) for s in itertools.combinations(range(4), r)]
    B = from_poset(["".join(map(str, s)) for s in subsets], lambda x, y: set(x) <= set(y))
    assert chain_counts(B, 3) == [14, 36, 24, 0]
    assert _nerve_sizes(B, 3) == [14, 50, 110, 194]
    assert same_homology(B) == 4
    assert [str(h) for h in _nerve_homology(B, 2)] == ["Z", "0", "Z"]
