"""Homology in cohomology order with clearing, against the uncleared
reduction of each cone boundary (``oracles.uncleared_cone_invariants``)
and the dense lifted route (``oracles.lifted_homology``).

``ChainComplex._cone_invariants(n)`` reduces the transpose of d_T,n after
degree n-1 and leaves out the rows of d_T,n that degree n-1 used as +-1
pivots.  Each degree must keep the Smith invariants of the whole boundary.

Every complex checked here also has its squares d∘d taken chain by chain
(``oracles.boundary_squares``): zero where the builder proved them zero
(``diagrams.lifts_compose``), and equal to the relation combinations the
complex keeps where it took them itself.
"""

import contextlib
import io
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocofin import cli, diagrams, fixtures, groups, gz, homalg
from hocofin.diagrams import AbDiagram, GroupDiagram, abelianize_diagram, constant_ab_diagram, srep_ab_complex
from hocofin.fincat import factorization, from_monoid
from hocofin.homalg import AbMap, ChainComplex, FGAb, HomalgError, block_map
from oracles import boundary_squares, lifted_homology, uncleared_cone_invariants
from test_cofinal_reduction import monoids, posets
from test_relation_cone import random_complex_with_relations

Z, Z2, Z4 = FGAb.free(1), FGAb.cyclic(2), FGAb.cyclic(4)

# the dense route runs on complexes whose chain groups have at most this
# many generators; the uncleared route runs on every complex
DENSE_GENS = 40


def assert_squares_sound(K):
    """The squares that K keeps (none when its builder proved them zero)
    are those taken chain by chain: the same degrees, and each kept
    combination of relations gives the product column."""
    squares = boundary_squares(K)
    assert set(squares) == set(K._squares)
    for n, products in squares.items():
        rho = K._block_relations(K.groups[n - 2]).columns
        for product, coords in zip(products, K._squares[n], strict=True):
            back = {}
            for k, x in coords.items():
                for i, y in rho[k].items():
                    back[i] = back.get(i, 0) + x * y
            assert {i: y for i, y in back.items() if y} == product


def assert_cleared_route_sound(K):
    """Every cone boundary of K keeps the invariants of its uncleared
    reduction, every homology group K has equals the dense one, and its
    squares are sound."""
    assert_squares_sound(K)
    answers = [K.homology(n) for n in range(K.lo + 1, K.hi)]
    for n in range(K.lo + 1, K.hi + 1):
        assert K._cone_invariants(n) == uncleared_cone_invariants(K, n), n
    if max(g.gens for g in K.groups.values()) <= DENSE_GENS:
        assert answers == [lifted_homology(K, n) for n in range(K.lo + 1, K.hi)]


def _one_object(G):
    return from_monoid(G.elements, G.unit, G.table, name="B" + G.name)


# -- fixtures ---------------------------------------------------------------------


def _recorded(monkeypatch):
    """Patch ChainComplex.homology to record each complex it is asked of."""
    seen = {}
    real = ChainComplex.homology

    def recording(self, n):
        seen.setdefault(id(self), self)
        return real(self, n)

    monkeypatch.setattr(ChainComplex, "homology", recording)
    return seen


def test_every_verify_fixture_complex_keeps_its_invariants(monkeypatch):
    seen = _recorded(monkeypatch)
    for theorem in cli.THEOREMS:
        for name in fixtures.fixture_names(theorem):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(["verify", "--theorem", theorem, "--fixture", name]) in (0, 3)
    monkeypatch.undo()
    assert len(seen) > 100
    for K in seen.values():
        assert_cleared_route_sound(K)


def test_every_fixture_diagram_complex_keeps_its_invariants():
    cases = 0
    for section in ("abdiagrams", "diagrams", "systems"):
        for build in fixtures.BUILTINS[section].values():
            M = build()
            if isinstance(M, GroupDiagram):
                M = abelianize_diagram(M)
            assert isinstance(M, AbDiagram)
            assert_cleared_route_sound(srep_ab_complex(M.base, M, 3))
            cases += 1
    assert cases > 10


# -- generated categories ---------------------------------------------------------


coefficients = st.sampled_from([Z, Z2, Z4])


@settings(max_examples=40, deadline=None)
@given(monoids(6), coefficients)
def test_generated_monoids_keep_their_invariants(C, A):
    # the simplicial replacement, and the nerve route of bw, whose
    # coefficients are transported through the factorization category
    assert_cleared_route_sound(srep_ab_complex(C, constant_ab_diagram(C, A), 2))
    fdata = factorization(C)
    system = constant_ab_diagram(fdata.category_op, A)
    assert_cleared_route_sound(gz.nerve_route_complex(C, system, 2, fdata))


# (category, n_max): a factorization category of a monoid of three maps
# already has 1536 chains in degree 3
small_categories = st.one_of(posets().map(lambda C: (C, 3)),
                             monoids(3).map(lambda C: (factorization(C).category_op, 2)))


@settings(max_examples=40, deadline=None)
@given(small_categories, coefficients)
def test_generated_small_categories_keep_their_invariants(case, A):
    C, n_max = case
    assert_cleared_route_sound(srep_ab_complex(C, constant_ab_diagram(C, A), n_max))


@st.composite
def loose_lifts(draw, C):
    """Z/m at every object of C, m in 2..5, each arrow acting by
    multiplication by some 1 + m*r (r >= 1) and each identity by 1: a
    diagram, since all act as the identity modulo m, whose lifts do not
    compose on generators when C has an arrow besides the identities."""
    m = draw(st.integers(2, 5))
    A = FGAb.cyclic(m)
    actions = {f: AbMap(A, A, [{0: 1 + m * draw(st.integers(1, 3))}])
               for f in C.morphisms if not C.is_identity(f)}
    return AbDiagram(C, {o: A for o in C.objects}, actions)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lifts_that_compose_only_modulo_relations_take_the_chainwise_squares(data):
    # the simplicial replacement over monoids and posets, and the nerve
    # route over a monoid with such a system on its factorization category
    C = data.draw(st.one_of(monoids(4), posets()))
    # two arrows other than identities that compose: (1 + m*a)(1 + m*b)
    # = 1 + m*(a + b + m*a*b) is neither 1 nor any 1 + m*c with c <= 3, so
    # d∘d of their chain is nonzero on the free covers
    assume(any(not C.is_identity(g) and not C.is_identity(f) for g, f in C.composable_pairs()))
    M = data.draw(loose_lifts(C))
    assert not diagrams.lifts_compose(C, M)
    K = srep_ab_complex(C, M, 2)
    assert K._squares
    assert_cleared_route_sound(K)
    if len(C.objects) == 1 and len(C.morphisms) <= 3:
        fdata = factorization(C)
        system = data.draw(loose_lifts(fdata.category_op))
        assert not diagrams.lifts_compose(fdata.category_op, system)
        assert_cleared_route_sound(gz.nerve_route_complex(C, system, 2, fdata))
        assert gz.bw_homology(C, system, 1)["routes_agree"]


def test_an_identity_acting_by_other_columns_takes_the_chainwise_squares():
    # each identity acts on Z/2 by 3, the identity modulo 2: a diagram
    # equal to the constant one, whose identity lifts are no identity
    # columns, so lifts_compose refuses it before reading any pair
    C = _one_object(groups.cyclic_group(2))
    three = AbMap(Z2, Z2, [{0: 3}])
    M = AbDiagram(C, {"*": Z2}, {f: three if C.is_identity(f) else AbMap(Z2, Z2, [{0: 1}])
                                 for f in C.morphisms})
    assert not diagrams.lifts_compose(C, M)
    K = srep_ab_complex(C, M, 3)
    assert_cleared_route_sound(K)
    constant = srep_ab_complex(C, constant_ab_diagram(C, Z2), 3)
    assert [K.homology(n) for n in range(4)] == [constant.homology(n) for n in range(4)]


def test_strict_lifts_prove_their_squares_zero():
    # constant and identity-column diagrams compose on generators; so does
    # one whose arrows act by columns that compose exactly (Z/4 acting on
    # Z by -1), and its squares vanish though its transports are no
    # identities
    C = _one_object(groups.cyclic_group(4))
    sign = {f: AbMap(Z, Z, [{0: (-1) ** int(f)}]) for f in C.morphisms if not C.is_identity(f)}
    for M in (constant_ab_diagram(C, Z2), AbDiagram(C, {"*": Z}, sign)):
        assert diagrams.lifts_compose(C, M)
        K = srep_ab_complex(C, M, 3)
        assert not K._squares and not boundary_squares(K)
        assert_cleared_route_sound(K)


def _bz2_system(value, act):
    """The nerve route's data for BZ/2 = {1, t} with a system on its
    opposite factorization category: ``value`` at every object, and the
    arrow (a, b) acting by the columns ``act(a is t, b is t)``."""
    C = _one_object(groups.cyclic_group(2))
    fdata = factorization(C)
    Fop = fdata.category_op
    actions = {}
    for m in Fop.morphisms:
        if not Fop.is_identity(m):
            a, b = fdata.pair[m]
            actions[m] = AbMap(value, value, act(not C.is_identity(a), not C.is_identity(b)))
    return C, fdata, AbDiagram(Fop, {o: value for o in Fop.objects}, actions)


# A = diag(1, -1) and B = the swap act on (Z/2)^2 as involutions that
# commute modulo 2 (A is the identity there) but not on generators
_A_AFTER_B = [{1: -1}, {0: 1}]
_LOOSE = {
    # (t, id) twice composes to 3 * 3, not to the identity
    "front": (Z2, lambda a, b: [{0: 3 if a else 1}]),
    # (id, t) twice likewise
    "back": (Z2, lambda a, b: [{0: 3 if b else 1}]),
    # (t, id) and (id, t) in either order: A after B, or B after A
    "mixed": (FGAb(2, [{0: 2}, {1: 2}]),
              lambda a, b: _A_AFTER_B if a and b else [{0: 1}, {1: -1}] if a
              else [{1: 1}, {0: 1}] if b else [{0: 1}, {1: 1}]),
}


@pytest.mark.parametrize("kind", sorted(_LOOSE))
def test_the_nerve_route_checks_every_pair_of_transports_it_composes(kind):
    # each system composes strictly on two of the three kinds of pair the
    # nerve route's d∘d rests on and not on the third, so the route must
    # take its squares chain by chain, and they are nonzero
    C, fdata, system = _bz2_system(*_LOOSE[kind])
    assert not diagrams.lifts_compose(fdata.category_op, system,
                                      gz._nerve_transport_pairs(C, fdata, 3))
    K = gz.nerve_route_complex(C, system, 2, fdata)
    assert K._squares
    assert_cleared_route_sound(K)
    assert gz.bw_homology(C, system, 2)["routes_agree"]


def test_the_nerve_route_checks_only_the_pairs_of_transports_it_composes():
    # (f, id) then (h, id), (id, f) then (id, h) and both mixed orders, for
    # f, h among the 5 arrows of BS3 other than its identity: at each of
    # its 6 arrows x through degree 3, at the identity alone through
    # degree 2, none below; against 7776 composable pairs of arrows of
    # the factorization category
    C = _one_object(groups.symmetric_group_3())
    fdata = factorization(C)
    triples = list(gz._nerve_transport_pairs(C, fdata, 3))
    assert len(triples) == 4 * 6 * 5 * 5
    assert len(list(gz._nerve_transport_pairs(C, fdata, 2))) == 4 * 5 * 5
    assert list(gz._nerve_transport_pairs(C, fdata, 1)) == []
    comp = fdata.category_op.comp
    assert len(comp) == 7776
    assert all(comp[(g, f)] == gf for g, f, gf in triples)


def test_strict_lifts_on_the_factorization_category_prove_the_nerve_squares_zero():
    # Z/4 acting on Z by (a, b) -> (-1)^(a + b) composes on generators
    C = _one_object(groups.cyclic_group(4))
    fdata = factorization(C)
    Fop = fdata.category_op

    def power(f):
        return 0 if C.is_identity(f) else int(f)

    actions = {m: AbMap(Z, Z, [{0: (-1) ** (power(fdata.pair[m][0]) + power(fdata.pair[m][1]))}])
               for m in Fop.morphisms if not Fop.is_identity(m)}
    system = AbDiagram(Fop, {o: Z for o in Fop.objects}, actions)
    K = gz.nerve_route_complex(C, system, 3, fdata)
    assert not K._squares and not boundary_squares(K)
    assert_cleared_route_sound(K)
    assert gz.bw_homology(C, system, 3)["routes_agree"]


def test_random_complexes_with_relations_keep_their_invariants():
    # boundaries with relation columns added, so that d∘d is nonzero on the
    # free covers and the cone carries the correction k
    rng = random.Random(9091)
    squares = 0
    for _ in range(150):
        K = random_complex_with_relations(rng)
        assert_cleared_route_sound(K)
        squares += bool(K._squares)
    assert squares >= 20, squares


def test_degrees_asked_out_of_order_give_the_same_homology():
    C = _one_object(groups.symmetric_group_3())
    M = constant_ab_diagram(C, Z4)
    in_order = srep_ab_complex(C, M, 3)
    expected = [in_order.homology(n) for n in range(4)]
    for n in range(4):
        K = srep_ab_complex(C, M, 3)
        assert K.homology(n) == expected[n]
        assert [K.homology(k) for k in reversed(range(4))] == expected[::-1]


def test_a_boundary_off_the_relations_raises_in_every_degree_above_it():
    """d_1: Z/2 -> Z, 1 -> 1, does not carry the relation 2 into the
    (empty) relations of Z.  Every H_n that reduces d_T,2 raises, and a
    failed degree leaves nothing half reduced for the next call."""
    groups_ = {-1: FGAb.trivial(), 0: Z, 1: FGAb.cyclic(2), 2: FGAb.trivial(), 3: FGAb.trivial()}
    boundaries = {n: AbMap.zero(groups_[n], groups_[n - 1]) for n in (0, 2, 3)}
    boundaries[1] = block_map(groups_[1], groups_[0], [(0, 0, 1, 1)])
    K = ChainComplex(groups_, boundaries)
    assert K.homology(0) == FGAb.trivial()
    for n in (1, 1, 2):
        with pytest.raises(HomalgError, match="respect the relations in degree 1"):
            K.homology(n)


# -- clearing is kept ---------------------------------------------------------------


def test_each_reduction_leaves_out_the_rows_paired_below(monkeypatch):
    """H(BS3;Z)/n3 reduces d_0..d_4 of the normalized bar complex, with
    1, 5, 25, 125, 625 generators in degrees 0..4.  The ranks of d_1..d_3
    are 0, 5 and 20; d_2 pairs one row by its invariant 2 (H_1 = Z/2) and
    4 by +-1 pivots, d_3 all 20 by +-1 pivots.  So the transposed d_k
    receives |T_{k-1}| minus the rows paired below: 0, 1, 5, 25 - 4 and
    125 - 20 columns, not 625 (d_4 itself) or 125 (its transpose)."""
    C = _one_object(groups.symmetric_group_3())
    K = srep_ab_complex(C, constant_ab_diagram(C, Z), 3)
    received = []
    real = homalg._column_invariants

    def spy(columns, pivots=None):
        columns = list(columns)
        if pivots is not None:  # a cone boundary, not an FGAb
            received.append(len(columns))
        return real(columns, pivots)

    monkeypatch.setattr(homalg, "_column_invariants", spy)
    answers = [str(K.homology(n)) for n in range(4)]
    assert answers == ["Z", "Z/2", "0", "Z/6"]
    assert received == [0, 1, 5, 21, 105]


# -- reach --------------------------------------------------------------------------


def test_integral_homology_of_bq8_through_degree_4():
    """H_n(Q8; Z) is periodic of period 4: Z, Q8^ab = Z/2 (+) Z/2, 0, Z/8, 0."""
    C = _one_object(groups.quaternion_group())
    got = diagrams.ab_colim_derived(C, constant_ab_diagram(C, Z), 4)
    assert [h.invariants() for h in got] == [(1, ()), (0, (2, 2)), (0, ()), (0, (8,)), (0, ())]


def test_baues_wirsching_homology_of_bq8_through_degree_3():
    """With constant Z coefficients it is the group homology of Q8, and the
    two routes of ``bw_homology`` agree."""
    C = _one_object(groups.quaternion_group())
    got = gz.bw_homology(C, fixtures.const_ab_nsys(C, Z), 3)["abelian"]
    assert [h.invariants() for h in got] == [(1, ()), (0, (2, 2)), (0, ()), (0, (8,))]
