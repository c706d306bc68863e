import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hocofin import groups
from hocofin.groups import (
    BudgetExceeded,
    FinGroup,
    FreeProduct,
    GroupHom,
    GroupPresentation,
    catalog,
    cyclic_group,
    dihedral_group_4,
    fingerprint,
    fingerprint_of_table_group,
    hom_count,
    product_group,
    quaternion_group,
    symmetric_group_3,
    tietze_simplify,
    trivial_group,
)
from hocofin.homalg import FGAb
from oracles import (
    abelianization,
    automorphisms,
    element_orders,
    enumerate_group_tables,
    invert,
    plain_backtrack,
    plain_tietze,
)


def test_cyclic_group_axioms():
    G = cyclic_group(6)
    assert G.order() == 6
    assert element_orders(G) == [1, 2, 3, 3, 6, 6]


def test_s3_element_orders():
    assert element_orders(symmetric_group_3()) == [1, 2, 2, 2, 3, 3]


def test_catalog_has_14_pairwise_distinct_groups():
    cat = catalog()
    assert len(cat) == 14
    assert sorted(G.order() for G in cat) == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]
    profiles = [(G.order(), G.is_abelian(), tuple(element_orders(G))) for G in cat]
    assert len(set(profiles)) == 14  # order profiles separate all 14 classes


def test_catalog_complete_for_small_orders():
    # brute-force enumeration of all group tables up to isomorphism
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
    for n, count in expected.items():
        assert len(enumerate_group_tables(n)) == count


def test_d4_q8_not_abelian():
    assert not dihedral_group_4().is_abelian()
    assert not quaternion_group().is_abelian()
    assert element_orders(dihedral_group_4()) != element_orders(quaternion_group())


def test_free_product_reduction():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    fp = FreeProduct([("A", z2), ("B", z3)])
    t = fp.letter("A", "1")
    r = fp.letter("B", "1")
    assert fp.multiply(t, t) == ()
    w = fp.multiply(fp.multiply(t, r), fp.multiply(r, r))  # t r r r = t
    assert w == t
    assert invert(fp, fp.multiply(t, r)) == fp.multiply(invert(fp, r), t)


def test_word_reduction_confluent():
    # reducing any bracketing of a product yields the same normal form
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    fp = FreeProduct([("A", z2), ("B", z3)])
    letters = [("A", "1"), ("B", "1"), ("B", "2"), ("A", "1"), ("A", "1"), ("B", "1")]
    full = fp.reduce(letters)
    for cut in range(len(letters) + 1):
        left = fp.reduce(letters[:cut])
        right = fp.reduce(letters[cut:])
        assert fp.multiply(left, right) == full


def test_group_hom_identity_and_compose():
    z4 = cyclic_group(4)
    fp = FreeProduct([("A", z4)])
    ident = GroupHom.identity(fp)
    w = fp.letter("A", "3")
    assert ident.apply(w) == w
    # squaring map a -> a^2 is a homomorphism on Z4
    sq = GroupHom(fp, fp, {"A": {e: fp.letter("A", z4.table[(e, e)]) for e in z4.elements}})
    assert sq.apply(fp.letter("A", "1")) == fp.letter("A", "2")
    assert sq.compose(sq).apply(fp.letter("A", "1")) == ()


def test_group_hom_rejects_non_multiplicative():
    z4 = cyclic_group(4)
    fp = FreeProduct([("A", z4)])
    bad = {"A": {"0": (), "1": fp.letter("A", "1"), "2": fp.letter("A", "1"), "3": ()}}
    with pytest.raises(Exception):
        GroupHom(fp, fp, bad)


def test_group_hom_needs_every_factor_and_element_and_the_unit_to_the_unit():
    z2 = cyclic_group(2)
    fp = FreeProduct([("A", z2)])
    with pytest.raises(groups.UnknownLabel, match="no map for factor A"):
        GroupHom(fp, fp, {})
    with pytest.raises(groups.UnknownLabel, match="factor A misses element 1"):
        GroupHom(fp, fp, {"A": {"0": ()}})
    # the unit sent to a letter breaks multiplicativity at (unit, unit)
    with pytest.raises(groups.GroupError, match=r"not multiplicative at \(0, 0\)"):
        GroupHom(fp, fp, {"A": {"0": fp.letter("A", "1"), "1": fp.letter("A", "1")}})


def test_words_with_an_unknown_label_are_refused():
    fp = FreeProduct([("A", cyclic_group(2))])
    with pytest.raises(groups.UnknownLabel, match="unknown factor label B"):
        fp.reduce((("B", "1"),))
    with pytest.raises(groups.UnknownLabel, match="unknown factor label B"):
        GroupHom.identity(fp).apply((("B", "1"),))


def test_hom_count_examples():
    x2 = GroupPresentation(["x"], [["x", "x"]])
    assert hom_count(x2, cyclic_group(2)) == 2
    assert hom_count(GroupPresentation(["x"], []), cyclic_group(3)) == 3
    # 36-case brute force oracle: pairs (a, b) in S3 x S3 with a^2 = b^3 = e
    s3 = symmetric_group_3()

    def power(g, k):
        acc = s3.unit
        for _ in range(k):
            acc = s3.table[(acc, g)]
        return acc

    oracle = sum(
        1
        for a, b in itertools.product(s3.elements, repeat=2)
        if power(a, 2) == s3.unit and power(b, 3) == s3.unit
    )
    assert oracle == 12
    P = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    assert hom_count(P, s3) == oracle


def test_hom_count_budget(monkeypatch):
    monkeypatch.setattr(groups, "HOM_COUNT_BUDGET", 10 ** 6)
    P = GroupPresentation(list("abcdefgh"), [])
    with pytest.raises(BudgetExceeded):
        hom_count(P, cyclic_group(8))


def test_fingerprint_refuses_past_the_hom_count_budget():
    # the free group on 8 generators needs 8^8 assignments into Z/8, over 10^7
    P = GroupPresentation(list("abcdefgh"), [])
    with pytest.raises(BudgetExceeded, match="^hom count needs 16777216 assignments$"):
        fingerprint(P)


def test_hom_count_budget_boundary(monkeypatch):
    # the refusal depends on |T|^k alone: 2^3 = 8 assignments
    P = GroupPresentation(["x", "y", "z"], [])
    monkeypatch.setattr(groups, "HOM_COUNT_BUDGET", 8)
    assert hom_count(P, cyclic_group(2)) == 8
    monkeypatch.setattr(groups, "HOM_COUNT_BUDGET", 7)
    with pytest.raises(BudgetExceeded):
        hom_count(P, cyclic_group(2))


def test_hom_count_long_block_into_trivial_group():
    # |T|^k = 1 is within any budget, however many generators one block has
    gens = ["g%d" % i for i in range(3000)]
    P = GroupPresentation(gens, [[a, b] for a, b in zip(gens, gens[1:])])
    assert hom_count(P, trivial_group()) == 1


def brute_force_hom_count(P, T):
    """Exhaustive oracle: test every relator on every one of the |T|^k
    assignments of generator images."""
    gidx = {g: i for i, g in enumerate(P.generators)}
    rels = [[(gidx[g], e) for g, e in rel] for rel in P.relators]
    count = 0
    for assign in itertools.product(T.elements, repeat=len(P.generators)):
        ok = True
        for rel in rels:
            acc = T.unit
            for gi, e in rel:
                x = assign[gi] if e == 1 else T.inv[assign[gi]]
                acc = T.table[(acc, x)]
            if acc != T.unit:
                ok = False
                break
        if ok:
            count += 1
    return count


ORACLE_CASES = {
    "no-generators": GroupPresentation([], []),
    "empty-relators": GroupPresentation(["x", "y"], [[], ["x", "x"], []]),
    "generator-in-no-relator": GroupPresentation(["x", "y", "z"], [["y", "y", "y"]]),
    "repeated-in-one-relator": GroupPresentation(["x", "y"], [["x", "y", "x", "y!", "x!"]]),
    "block-of-three": GroupPresentation(
        ["a", "b", "c", "d"], [["a", "b!"], ["b", "c", "b!", "c!"], ["d", "d"]]
    ),
    "two-blocks": GroupPresentation(
        ["a", "b", "c", "d"], [["a", "b", "a!", "b!"], ["c", "d", "c", "d"], ["c", "c"]]
    ),
    "chained-relators": GroupPresentation(
        ["a", "b", "c", "d"], [["a", "a"], ["a", "b", "a!", "b"], ["c", "b!"], ["c", "d", "d"]]
    ),
    "trivial-group": GroupPresentation(["x", "y"], [["x"], ["x", "y", "y"]]),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_hom_count_matches_brute_force_on_fixed_cases(case):
    P = ORACLE_CASES[case]
    for T in catalog():
        assert hom_count(P, T) == brute_force_hom_count(P, T), T.name


@st.composite
def presentations(draw):
    gens = ["g%d" % i for i in range(draw(st.integers(0, 4)))]
    # without generators the only relator is the empty word
    letters = st.tuples(st.sampled_from(gens or [None]), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letters, max_size=6 if gens else 0), max_size=4))
    # a relator through the first two or three generators makes a block of
    # at least that many, whose first generator runs over orbits
    linked = draw(st.sampled_from([k for k in (0, 2, 3) if k <= len(gens)]))
    if linked:
        through = draw(st.permutations(gens[:linked]))
        relators.append([(g, draw(st.sampled_from((1, -1)))) for g in through])
    return GroupPresentation(gens, relators)


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_hom_count_matches_brute_force(P):
    for T in catalog():
        assert hom_count(P, T) == brute_force_hom_count(P, T), (P.relators, T.name)


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_each_block_counts_as_backtracking_over_every_image(P):
    _, blocks = P.blocks()
    for checks in blocks:
        for T in catalog():
            assert groups._backtrack(checks, T) == plain_backtrack(checks, T), (checks, T.name)


def test_the_presentations_reach_blocks_of_two_and_three_generators():
    sizes = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(presentations())
    def collect(P):
        sizes.update(len(checks) for checks in P.blocks()[1])

    collect()
    assert {1, 2, 3} <= sizes


# |Aut| of each catalog group: GL(3, 2) for Z2^3, D4 for D4 and Z4xZ2, S4 for Q8
AUT_ORDERS = {"1": 1, "Z2": 1, "Z3": 2, "Z4": 2, "V4": 6, "Z5": 4, "Z6": 2, "S3": 6,
              "Z7": 6, "Z8": 4, "Z4xZ2": 8, "Z2^3": 168, "D4": 8, "Q8": 24}


@pytest.mark.parametrize("index", range(len(catalog())))
def test_orbits_are_the_automorphism_orbits(index):
    T = catalog()[index]
    autos = automorphisms(T)
    assert len(autos) == AUT_ORDERS[T.name]
    want = sorted({tuple(sorted({phi[a] for phi in autos})) for a in range(T.order())})
    assert T.orbits() == tuple(want)
    assert T.orbits() is T.orbits()


def test_hom_count_free_product_of_z2():
    P = GroupPresentation(["g%d" % i for i in range(6)], [["g%d" % i] * 2 for i in range(6)])
    for T in catalog():
        involutions = sum(1 for t in T.elements if T.table[(t, t)] == T.unit)
        assert hom_count(P, T) == involutions ** 6, T.name


def test_hom_count_commuting_pairs_in_s3():
    P = GroupPresentation(["x", "y"], [["x", "y", "x!", "y!"]])
    assert hom_count(P, symmetric_group_3()) == 18


def test_fingerprint_counts_once_per_catalog_group(monkeypatch):
    # the benchmark's per-layer hook wraps groups.hom_count
    calls = []
    real = groups.hom_count

    def spy(P, T):
        calls.append(T)
        return real(P, T)

    monkeypatch.setattr(groups, "hom_count", spy)
    P = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    assert groups.fingerprint(P) == tuple(real(P, T) for T in catalog())
    assert calls == catalog()


def test_fingerprint_examples():
    triv = GroupPresentation([], [])
    assert fingerprint(triv) == tuple(1 for _ in range(14))
    x2 = GroupPresentation(["x"], [["x", "x"]])
    # counts elements of order dividing 2 in each catalog group
    expected = tuple(
        sum(1 for e in G.elements if G.table[(e, e)] == G.unit) for G in catalog()
    )
    assert fingerprint(x2) == expected
    free1 = GroupPresentation(["x"], [])
    assert fingerprint(free1) == tuple(G.order() for G in catalog())


def test_fingerprint_multiplicative_on_products():
    # V4 = Z2 x Z2 sits in the catalog; hom counts multiply over factors
    P = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    z2 = cyclic_group(2)
    v4 = product_group(z2, z2)
    assert hom_count(P, v4) == hom_count(P, z2) ** 2


def test_abelianization_examples():
    P = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    assert abelianization(P) == FGAb.cyclic(6)
    assert abelianization(GroupPresentation(["x", "y"], [])) == FGAb.free(2)
    assert abelianization(GroupPresentation(["x"], [["x"]])) == FGAb.trivial()


def test_tietze_eliminates_generator():
    P = GroupPresentation(["x", "y"], [["y", "x!"], ["y", "y"]])
    Q = tietze_simplify(P)
    assert len(Q.generators) == 1
    assert fingerprint(Q) == fingerprint(GroupPresentation(["x"], [["x", "x"]]))


def test_tietze_keeps_fingerprint_and_abelianization():
    examples = [
        GroupPresentation(["x"], []),
        GroupPresentation(["x"], [["x", "x", "x", "x"]]),
        GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]]),
        GroupPresentation(["x", "y", "z"], [["z", "x!", "y!"], ["x", "y", "x!", "y!"]]),
    ]
    for P in examples:
        Q = tietze_simplify(P)
        assert fingerprint(Q) == fingerprint(P)
        assert abelianization(Q) == abelianization(P)


def test_tietze_identities():
    P = GroupPresentation(["x"], [["x", "x!"]])
    Q = tietze_simplify(P)
    assert Q.generators == ["x"]
    assert Q.relators == []


@st.composite
def tietze_inputs(draw):
    gens = ["g%d" % i for i in range(draw(st.integers(1, 6)))]
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letters, max_size=8), max_size=6))
    # a rotation of a relator or of its inverse states the same relation
    if relators and draw(st.booleans()):
        r = draw(st.sampled_from(relators))
        i = draw(st.integers(0, len(r)))
        r = r[i:] + r[:i]
        relators.append(r if draw(st.booleans()) else [(g, -e) for g, e in reversed(r)])
    return GroupPresentation(gens, relators)


@pytest.mark.parametrize("budget", [None, 0, 1, 5, 40])
def test_tietze_rewrites_as_every_relator_rewritten_each_round(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(groups, "TIETZE_BUDGET", budget)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tietze_inputs())
    def same(P):
        got, want = tietze_simplify(P), plain_tietze(P)
        assert (got.generators, got.relators) == (want.generators, want.relators), P.relators

    same()


def test_tietze_budget_stops_between_rounds(monkeypatch):
    # round 1 solves a b^-1 for a and reads the 2 + 3 letters of the other
    # relators; round 2 solves b c^-1 for b; then no generator occurs once
    P = GroupPresentation(["a", "b", "c"], [["a", "b!"], ["b", "c!"], ["c", "c", "c"]])
    monkeypatch.setattr(groups, "TIETZE_BUDGET", 5)
    Q = tietze_simplify(P)
    assert (Q.generators, Q.relators) == (["c"], [(("c", 1),) * 3])
    monkeypatch.setattr(groups, "TIETZE_BUDGET", 4)
    Q = tietze_simplify(P)
    assert (Q.generators, Q.relators) == (["b", "c"], [(("b", 1), ("c", -1)), (("c", 1),) * 3])
    assert fingerprint(Q) == fingerprint(P)


@pytest.mark.parametrize("budget, generators", [(13, ["c", "d"]), (14, ["d"])])
def test_tietze_budget_reads_no_dropped_duplicate(monkeypatch, budget, generators):
    # round 1 reads 3 + 3 + 4 letters and rewrites a c c to b c c, which
    # drops the later b c c; round 2 reads only c d d d (4 letters), so
    # 14 letters are read when round 3 would solve c d d d for c
    P = GroupPresentation(["a", "b", "c", "d"],
                          [["a", "b!"], ["a", "c", "c"], ["b", "c", "c"], ["c", "d", "d", "d"]])
    monkeypatch.setattr(groups, "TIETZE_BUDGET", budget)
    assert tietze_simplify(P).generators == generators == plain_tietze(P).generators


def test_presentation_of_table_group_fingerprint():
    # the table presentation of G is fingerprint-equal to G itself:
    # hom counts from the presentation match direct counts of homs G -> T
    for G in (cyclic_group(2), cyclic_group(3), product_group(cyclic_group(2), cyclic_group(2))):
        fp = fingerprint_of_table_group(G)
        for T, got in zip(catalog(), fp):
            direct = 0
            nonunit = [e for e in G.elements if e != G.unit]
            for assign in itertools.product(T.elements, repeat=len(nonunit)):
                m = dict(zip(nonunit, assign))
                m[G.unit] = T.unit
                if all(
                    T.table[(m[a], m[b])] == m[G.table[(a, b)]]
                    for a in G.elements
                    for b in G.elements
                ):
                    direct += 1
            assert got == direct


def test_free_product_as_table_group():
    z3 = cyclic_group(3)
    fp = FreeProduct([("A", trivial_group()), ("B", z3)])
    G = fp.as_table_group()
    assert G.order() == 3
    infinite = FreeProduct([("A", cyclic_group(2)), ("B", z3)])
    assert infinite.element_count() is None
    with pytest.raises(BudgetExceeded):
        infinite.as_table_group()
