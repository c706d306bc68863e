"""Homology of complexes with relations through the relation cone, against
the dense lifted route (``oracles.lifted_homology``) as the oracle."""

import random

import pytest

from hocofin import diagrams, fincat, fixtures, groups, gz
from hocofin.homalg import AbMap, ChainComplex, FGAb, HomalgError, IntMatrix, _Relations, _sparse_columns
from oracles import (columns, from_columns, is_zero, kernel_basis, lattice_invariants,
                     lattice_member, lifted_homology, mul, relation_matrix)


def _combination(rng, columns, rows, coeffs=(0, 0, 1, -1, 2)):
    """A random integer combination of the given columns (lists of length rows)."""
    out = [0] * rows
    for col in columns:
        c = rng.choice(coeffs)
        for i, x in enumerate(col):
            out[i] += c * x
    return out


def _free_boundaries(rng, ranks):
    """Boundary columns d_1..d_3 of a free complex with d∘d = 0: each
    boundary is drawn from the kernel of the one below."""
    mats = []
    below = None
    for n in range(1, len(ranks)):
        rows, cols = ranks[n - 1], ranks[n]
        if below is None:
            M = [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(cols)]
        else:
            K = columns(kernel_basis(below))
            M = [_combination(rng, K, rows) for _ in range(cols)]
        mats.append(M)
        below = from_columns(M, rows)
    return mats


def _relation_columns(rng, rows, forced):
    """Relation columns on ``rows`` generators: the forced columns, random
    ones spread over several generators, and dependent ones (repeats, sums,
    multiples and zero columns), in random order."""
    cols = [list(c) for c in forced]
    for _ in range(rng.randint(0, 2)):
        cols.append([rng.choice((0, 0, 1, 2, -2, 3, 4)) for _ in range(rows)])
    if cols and rng.random() < 0.6:
        for _ in range(rng.randint(1, 2)):
            cols.append(_combination(rng, cols, rows, coeffs=(0, 1, -1, 2)))
    if rng.random() < 0.2:
        cols.append([0] * rows)
    rng.shuffle(cols)
    return cols


def _apply(matrix_columns, rows, v):
    """matrix (as columns) times v."""
    out = [0] * rows
    for col, x in zip(matrix_columns, v):
        if x:
            for i, y in enumerate(col):
                out[i] += x * y
    return out


def random_complex_with_relations(rng):
    """C_0 <- C_1 <- C_2 <- C_3 of finitely presented groups.

    The free covers carry a complex d_F; relations are chosen from the top
    down so that d_F carries R_n into R_{n-1}.  Then relation columns are
    added to the boundaries (d_n + rho_{n-1} M_n), which keeps them well
    defined and makes d∘d nonzero but inside the relations.
    """
    ranks = [rng.choice((0, 1, 2, 3, 3, 4)) for _ in range(4)]
    mats = _free_boundaries(rng, ranks)
    rels = [None] * 4
    rels[3] = _relation_columns(rng, ranks[3], [])
    for n in (2, 1, 0):
        images = [_apply(mats[n], ranks[n], r) for r in rels[n + 1]]
        rels[n] = _relation_columns(rng, ranks[n], [v for v in images if any(v)])
    for n in (1, 2, 3):
        if rels[n - 1] and rng.random() < 0.7:
            mats[n - 1] = [
                [x + y for x, y in zip(col, _combination(rng, rels[n - 1], ranks[n - 1]))]
                for col in mats[n - 1]
            ]
    chain = {-1: FGAb.trivial(), 4: FGAb.trivial()}
    for n in range(4):
        chain[n] = FGAb(ranks[n], from_columns(rels[n], ranks[n]))
    boundaries = {0: AbMap.zero(chain[0], chain[-1]), 4: AbMap.zero(chain[4], chain[3])}
    for n in (1, 2, 3):
        # check=True: the generator itself must produce well-defined maps
        boundaries[n] = AbMap(chain[n], chain[n - 1], from_columns(mats[n - 1], ranks[n - 1]))
    return ChainComplex(chain, boundaries)


def _dependent(rels):
    """True when the relation columns are linearly dependent (rho not injective)."""
    return rels.cols > lattice_invariants(rels)[0]


def _spread(rels):
    """True when some relation column involves two or more generators."""
    return any(sum(1 for x in col if x) > 1 for col in columns(rels))


def test_relation_basis_solves_like_the_dense_solver():
    # membership agrees with lattice_member; coordinates rebuild the vector
    # from an injective basis of the same lattice
    rng = random.Random(5150)
    for _ in range(300):
        rows = rng.randint(0, 5)
        cols = _relation_columns(rng, rows, [])
        L = from_columns(cols, rows)
        rel = _Relations(_sparse_columns(L), {})
        basis = from_columns([[c.get(i, 0) for i in range(rows)] for c in rel.columns], rows)
        assert basis.cols == lattice_invariants(L)[0] == lattice_invariants(basis)[0]
        for _ in range(5):
            if cols and rng.random() < 0.5:
                v = _combination(rng, cols, rows, coeffs=(0, 1, -1, 3))
            else:
                v = [rng.randint(-4, 4) for _ in range(rows)]
            x = rel.solve({i: a for i, a in enumerate(v) if a})
            assert (x is None) == (lattice_member(v, L) is None)
            if x is not None:
                assert _apply(columns(basis), rows, [x.get(j, 0) for j in range(basis.cols)]) == v


def test_cone_matches_lifted_homology_on_random_complexes_with_relations():
    rng = random.Random(9091)
    seen = {"dependent": 0, "spread": 0, "zero_gens": 0, "square": 0, "torsion": 0}
    for _ in range(150):
        K = random_complex_with_relations(rng)
        for n in range(4):
            G = K.groups[n]
            seen["dependent"] += _dependent(relation_matrix(G))
            seen["spread"] += _spread(relation_matrix(G))
            seen["zero_gens"] += G.gens == 0
        for n in (2, 3):
            square = mul(K.boundaries[n - 1].matrix, K.boundaries[n].matrix)
            seen["square"] += not is_zero(square)
        for n in range(4):
            H = K.homology(n)
            assert H == lifted_homology(K, n), (n, H)
            seen["torsion"] += bool(H.torsion)
    # every shape the cone must handle occurs many times in the sample
    assert min(seen.values()) >= 20, seen


def test_relation_components_spanning_several_generators():
    # C_1 = Z^2 / <(2, 2), (0, 4), (2, 6)>  (dependent: (2,6) = (2,2) + (0,4))
    # d_1 = (1 1): Z^2 -> Z/2, well defined since 2+2, 4 and 8 are even.
    # ker d_1 has basis a = (1,-1), b = (2,0); the relations read -2a+2b and
    # -4a+2b there, so ker d_1 / relations = Z/2 (+) Z/2
    rels1 = IntMatrix([[2, 0, 2], [2, 4, 6]])
    chain = {-1: FGAb.trivial(), 0: FGAb.cyclic(2), 1: FGAb(2, rels1), 2: FGAb.free(1)}
    z2 = FGAb.cyclic(2)
    for up, h1 in (([[1], [-1]], z2), ([[2], [0]], z2), ([[0], [0]], FGAb.from_invariants(0, (2, 2)))):
        boundaries = {
            0: AbMap.zero(chain[0], chain[-1]),
            1: AbMap(chain[1], chain[0], IntMatrix([[1, 1]])),
            2: AbMap(chain[2], chain[1], IntMatrix(up)),
        }
        K = ChainComplex(chain, boundaries)
        assert [K.homology(n) for n in (0, 1)] == [FGAb.trivial(), h1]
        assert [lifted_homology(K, n) for n in (0, 1)] == [FGAb.trivial(), h1]


def test_zero_generator_groups():
    # 0 <- Z/2 <- 0-generator group with a zero relation column <- Z/3 -> 0
    empty = FGAb(0, IntMatrix([], (0, 2)))
    chain = {-1: FGAb.trivial(), 0: FGAb.cyclic(2), 1: empty, 2: FGAb.cyclic(3), 3: FGAb.trivial()}
    boundaries = {
        0: AbMap.zero(chain[0], chain[-1]),
        1: AbMap.zero(chain[1], chain[0]),
        2: AbMap.zero(chain[2], chain[1]),
        3: AbMap.zero(chain[3], chain[2]),
    }
    K = ChainComplex(chain, boundaries)
    assert [K.homology(n) for n in range(3)] == [FGAb.cyclic(2), FGAb.trivial(), FGAb.cyclic(3)]
    assert [lifted_homology(K, n) for n in range(3)] == [K.homology(n) for n in range(3)]


@pytest.mark.parametrize("below", [FGAb.cyclic(3), FGAb.free(1), FGAb(2, IntMatrix([[4], [2]]))])
def test_boundary_that_breaks_the_relations_raises_on_both_paths(below):
    # d_1 sends the relation 2*e of Z/2 outside the relations below
    chain = {-1: FGAb.trivial(), 0: below, 1: FGAb.cyclic(2), 2: FGAb.trivial()}
    boundaries = {
        0: AbMap.zero(chain[0], chain[-1]),
        1: AbMap(chain[1], chain[0], IntMatrix([[1]] * below.gens), check=False),
        2: AbMap.zero(chain[2], chain[1]),
    }
    K = ChainComplex(chain, boundaries)
    with pytest.raises(HomalgError):
        lifted_homology(K, 1)
    with pytest.raises(HomalgError):
        K.homology(1)


def test_derived_colimit_with_torsion_coefficients_avoids_the_lifted_route():
    # the lifted route lives only in tests/oracles.py, so the program's
    # answer here comes from the relation cone
    G = groups.cyclic_group(4)
    C = fincat.from_monoid(G.elements, G.unit, G.table, name="BZ4")
    M = diagrams.constant_ab_diagram(C, FGAb.cyclic(2))
    # H_n(Z/4; Z/2) = Z/2 in every degree
    assert diagrams.ab_colim_derived(C, M, 4) == [FGAb.cyclic(2)] * 5


def test_baues_wirsching_homology_of_z3_with_z2_coefficients():
    # universal coefficients: H_n(Z/3; Z/2) is Z/2 in degree 0 and 0 above
    G = groups.cyclic_group(3)
    C = fincat.from_monoid(G.elements, G.unit, G.table, name="BZ3")
    result = gz.bw_homology(C, fixtures.const_ab_nsys(C, FGAb.cyclic(2)), 2)
    assert result["abelian"] == [FGAb.cyclic(2), FGAb.trivial(), FGAb.trivial()]
    assert result["routes_agree"]
