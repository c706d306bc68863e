"""The relation cone written from the faces (``ChainComplex._cone_rows``)
against the route it replaced (``oracles.cleared_route``): the AbMap
boundaries, each relation lifted on its own, each boundary transposed.
Both must give the same H_0..H_n and, degree by degree, the same +-1
pivot rows, so the two reductions are the same elimination.

The lifts K with rho_target K = A rho_source are solved once per
transport and pair of blocks, not once per cell; a counter on the
relation solver guards that.
"""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocofin import cli, cofinal, diagrams, fixtures, groups, gz, homalg, presheaf
from hocofin.diagrams import AbDiagram, GroupDiagram, abelianize_diagram, constant_ab_diagram, srep_ab_complex
from hocofin.fincat import factorization, from_monoid, opposite
from hocofin.homalg import AbMap, FGAb, block_sum, normalized_complex
from oracles import cleared_route
from test_clearing import loose_lifts
from test_cofinal_reduction import monoids, posets
from test_sparse_assembly import bar_basis, by_index

Z, Z2 = FGAb.free(1), FGAb.cyclic(2)


def assert_routes_agree(K, top):
    """H_0..H_top of the complex K and the pivot rows of each cone
    boundary d_T,lo+1..d_T,top+1 equal those of the old route.  K must be
    fresh: its cone boundaries are reduced here, in ascending degree."""
    pivots = []
    for k in range(K.lo + 1, top + 2):
        K._cone_invariants(k)
        pivots.append(K._pivots)
    homology = [K.homology(n) for n in range(K.lo + 1, top + 1)]
    assert (homology, pivots) == cleared_route(K, top)


@contextlib.contextmanager
def recorded_complexes(monkeypatch):
    """Record the arguments of every ``normalized_complex`` call that the
    program makes, so that each complex can be built again, fresh."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return normalized_complex(*args, **kwargs)

    for module in (cofinal, diagrams, gz, presheaf):
        monkeypatch.setattr(module, "normalized_complex", recording)
    yield calls
    monkeypatch.undo()


def assert_recorded_routes_agree(calls, top):
    for args, kwargs in calls:
        assert_routes_agree(normalized_complex(*args, **kwargs), top)


def _one_object(G):
    return from_monoid(G.elements, G.unit, G.table, name="B" + G.name)


# -- fixtures ---------------------------------------------------------------------


def test_the_simplicial_replacement_of_every_fixture_diagram():
    cases = 0
    for section in ("abdiagrams", "diagrams", "systems"):
        for build in fixtures.BUILTINS[section].values():
            M = build()
            if isinstance(M, GroupDiagram):
                M = abelianize_diagram(M)
            assert_routes_agree(srep_ab_complex(M.base, M, 3), 3)
            cases += 1
    assert cases > 10


def test_both_bw_routes_of_every_fixture_system(monkeypatch):
    # the primary route over the reflective core of the factorization
    # category, and the nerve route with its transports
    with recorded_complexes(monkeypatch) as calls:
        for name in ("one", "two", "span", "z2cat"):
            C = fixtures.CATEGORIES[name]()
            for A in (Z, Z2):
                assert gz.bw_homology(C, fixtures.const_ab_nsys(C, A), 2)["routes_agree"]
        for C in (_one_object(groups.cyclic_group(3)), _one_object(groups.symmetric_group_3())):
            gz.bw_homology(C, fixtures.const_ab_nsys(C, Z2), 2)
    assert len(calls) == 2 * (4 * 2 + 2)
    assert_recorded_routes_agree(calls, 2)


def test_every_fixture_simplicial_set_and_nerve(monkeypatch):
    with recorded_complexes(monkeypatch) as calls:
        for build in fixtures.BUILTINS["ssets"].values():
            X = build()
            presheaf.homology_ss(X, X.level - 1)
        for build in fixtures.CATEGORIES.values():
            cofinal._nerve_homology(build(), 2)
    assert len(calls) > 10
    for args, kwargs in calls:
        K = normalized_complex(*args, **kwargs)
        assert_routes_agree(K, K.hi - 1)


def test_every_verify_fixture_complex(monkeypatch):
    with recorded_complexes(monkeypatch) as calls:
        for theorem in cli.THEOREMS:
            for name in fixtures.fixture_names(theorem):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(["verify", "--theorem", theorem, "--fixture", name]) in (0, 3)
    assert len(calls) > 100
    for args, kwargs in calls:
        K = normalized_complex(*args, **kwargs)
        assert_routes_agree(K, K.hi - 1)


# -- generated complexes -------------------------------------------------------------


@st.composite
def presentations(draw):
    """A group on one to three generators whose relation columns may be
    dependent, as [{0: 2}, {0: 4}] is, or spread over several generators."""
    gens = draw(st.integers(1, 3))
    entries = st.dictionaries(st.integers(0, gens - 1), st.sampled_from([2, -2, 3, 4, 6]),
                              max_size=gens)
    rels = draw(st.lists(entries, max_size=3))
    if rels and draw(st.booleans()):
        rels.append({i: 2 * x for i, x in rels[0].items()})
    return FGAb(gens, rels)


def shift_faces(k, G):
    """The faces of the normalized bar complex of Z/k acting on the sum of
    k copies of G by shifting the copies: d_0 acts by the first letter g,
    the shift by g, one columns list per g; the inner faces add neighbours
    and d_n drops the last letter, with identities.  Shifts compose
    exactly, so the squares vanish on the free covers."""
    moves = [[{(c + g) % k * G.gens + j: 1} for c in range(k) for j in range(G.gens)]
             for g in range(k)]

    def faces(n, chain):
        yield 0, chain[1:], moves[chain[0]]
        for i in range(1, n):
            yield i, chain[:i - 1] + ((chain[i - 1] + chain[i]) % k,) + chain[i + 1:], 1
        yield n, chain[:-1], 1
    return faces


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), presentations(), st.integers(2, 3))
def test_generated_shift_actions_on_multi_generator_blocks(k, G, top):
    block = block_sum([G] * k)[0]
    basis = bar_basis(k, top)
    K = normalized_complex([[block] * len(basis[n]) for n in range(top + 1)],
                           *by_index(basis, shift_faces(k, G), top))
    assert not K._squares
    assert_routes_agree(K, top - 1)


@settings(max_examples=30, deadline=None)
@given(monoids(4), presentations(), st.booleans())
def test_generated_monoids_with_torsion_coefficients(C, G, nerve_route):
    # constant coefficients with dependent relations, on the simplicial
    # replacement or on bw's nerve route through the factorization category
    if nerve_route:
        fdata = factorization(C)
        K = gz.nerve_route_complex(C, constant_ab_diagram(opposite(fdata.category), G), 2, fdata)
    else:
        K = srep_ab_complex(C, constant_ab_diagram(C, G), 2)
    assert_routes_agree(K, 2)


# finite groups of exponent 4 whose relations are dependent and spread
# over both generators: Z/2 (+) Z/4, and Z/4 (+) Z/4 given by four columns
FINITE = [FGAb(2, [{0: 2}, {1: 4}, {0: 2, 1: 4}]),
          FGAb(2, [{0: 4}, {0: 2, 1: 2}, {1: 4}, {0: 2, 1: -2}])]


@st.composite
def loose_multi_lifts(draw, C):
    """A group G of FINITE at every object of C, each arrow acting by
    multiplication by 1 + 4*r (r >= 1), the identity modulo the relations:
    a diagram whose lifts do not compose on generators."""
    G = draw(st.sampled_from(FINITE))
    actions = {f: AbMap(G, G, [{j: 1 + 4 * draw(st.integers(1, 3))} for j in range(G.gens)])
               for f in C.morphisms if not C.is_identity(f)}
    return AbDiagram(C, {o: G for o in C.objects}, actions)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_generated_actions_that_do_not_lift_take_the_fallback(data):
    # Z/m acted on by multiplication by 1 + m*r, and two-generator groups
    # acted on likewise: the k-term of the cone is solved chain by chain,
    # in the relation lattice of the whole degree, whose basis must be the
    # blocks' bases side by side
    C = data.draw(st.one_of(monoids(4), posets()))
    assume(any(not C.is_identity(g) and not C.is_identity(f) for g, f in C.composable_pairs()))
    M = data.draw(st.one_of(loose_lifts(C), loose_multi_lifts(C)))
    K = srep_ab_complex(C, M, 2)
    assert K._squares
    assert_routes_agree(K, 2)


# -- one lift per transport and pair of blocks ---------------------------------------


@pytest.fixture
def solves(monkeypatch):
    """Count the calls of the relation-lattice solver."""
    count = [0]
    real = homalg._Relations.solve

    def spy(self, v):
        count[0] += 1
        return real(self, v)

    monkeypatch.setattr(homalg._Relations, "solve", spy)
    return count


def test_constant_coefficients_solve_no_lift(solves):
    # one block, Z/2, and every transport the identity: each lift is the
    # identity, so nothing is solved; the old route solved 121 relations
    C = _one_object(groups.cyclic_group(4))
    K = srep_ab_complex(C, constant_ab_diagram(C, Z2), 4)
    assert [K.homology(n) for n in range(5)] == [Z2] * 5
    assert solves[0] == 0
    old = cleared_route(srep_ab_complex(C, constant_ab_diagram(C, Z2), 4), 4)
    assert old[0] == [Z2] * 5
    assert solves[0] == 121


def test_a_transport_is_lifted_once_per_pair_of_blocks(solves):
    # Z/2 acting on Z/4 by -1: one transport on one block, one relation,
    # so one solve, where the old route solved one per cell
    C = _one_object(groups.cyclic_group(2))
    Z4 = FGAb.cyclic(4)
    actions = {f: AbMap(Z4, Z4, [{0: -1}]) for f in C.morphisms if not C.is_identity(f)}
    M = AbDiagram(C, {"*": Z4}, actions)
    assert diagrams.lifts_compose(C, M)
    solves[0] = 0  # the action's own check solved one
    K = srep_ab_complex(C, M, 4)
    # H_n(Z/2; Z/4 twisted by -1): Z/2 in every degree
    assert [K.homology(n) for n in range(5)] == [Z2] * 5
    assert solves[0] == 1
    cleared_route(srep_ab_complex(C, M, 4), 4)
    assert solves[0] == 1 + 5  # one per cell of degrees 0..4


def test_the_boundaries_read_like_the_dict_they_replaced():
    # degrees 0..3 of the simplicial replacement of BZ/3, each AbMap built
    # on first read and kept; a missing degree is missing, as in a dict
    C = _one_object(groups.cyclic_group(3))
    K = srep_ab_complex(C, constant_ab_diagram(C, Z2), 2)
    assert len(K.boundaries) == 4 and list(K.boundaries) == [0, 1, 2, 3]
    assert 4 not in K.boundaries and K.boundaries.get(-1) is None
    d = K.boundaries[2]
    assert d is K.boundaries[2]
    assert (d.source, d.target) == (K.groups[2], K.groups[1])
    # the chain (a, b), a, b in {1, 2}, goes to (b) - (a + b) + (a), the
    # chain (0) being degenerate
    assert d.matrix.entries == [[2, 1, 1, -1], [-1, 1, 1, 2]]
