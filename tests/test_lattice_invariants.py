"""lattice_invariants (sparse unit pivots, dense residue) against the dense
Smith normal form, and the free-complex homology path against the lifted one."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin.homalg import (
    AbMap,
    ChainComplex,
    FGAb,
    IntMatrix,
    smith_normal_form,
)
from oracles import (
    from_columns,
    kernel_basis,
    lattice_invariants,
    lifted_homology,
    verify_smith_normal_form,
    zero_matrix,
)


def dense_invariants(A):
    U, D, V = smith_normal_form(A)
    verify_smith_normal_form(A, U, D, V)
    diag = [D.entries[i][i] for i in range(min(A.rows, A.cols))]
    return sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


def matrices(entries, max_side=7):
    return st.integers(0, max_side).flatmap(
        lambda m: st.integers(0, max_side).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(lambda rows: IntMatrix(rows, (m, n)))
        )
    )


# mostly zeros and units, as in boundary matrices, with some small torsion
unit_heavy = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3])
# entries far beyond any pivot, so the residue carries large torsion
large = st.one_of(st.integers(-3, 3), st.integers(-10**15, 10**15))


@settings(max_examples=200, deadline=None)
@given(matrices(unit_heavy, max_side=9))
def test_unit_heavy_matches_dense_snf(A):
    assert lattice_invariants(A) == dense_invariants(A)


@settings(max_examples=100, deadline=None)
@given(matrices(large, max_side=4))
def test_large_entries_match_dense_snf(A):
    assert lattice_invariants(A) == dense_invariants(A)


@settings(max_examples=100, deadline=None)
@given(matrices(unit_heavy, max_side=6), st.randoms(use_true_random=False))
def test_zero_rows_and_columns_change_nothing(A, rng):
    rows = [list(r) for r in A.entries]
    n = A.cols
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), [0] * n)
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(0, n)
        rows = [r[:j] + [0] + r[j:] for r in rows]
        n += 1
    B = IntMatrix(rows, (len(rows), n))
    assert lattice_invariants(B) == lattice_invariants(A) == dense_invariants(B)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=8), st.randoms(use_true_random=False))
def test_cyclic_summands_merge_like_dense_snf(orders, rng):
    # a permuted diagonal: every column is a cyclic summand of its own
    k = len(orders)
    perm = list(range(k))
    rng.shuffle(perm)
    A = from_columns([[d if i == perm[j] else 0 for i in range(k)]
                      for j, d in enumerate(orders)], k)
    assert lattice_invariants(A) == dense_invariants(A)


def test_shapes_without_rows_or_columns():
    assert lattice_invariants(zero_matrix(0, 5)) == (0, ())
    assert lattice_invariants(zero_matrix(5, 0)) == (0, ())
    assert FGAb(4).invariants() == (4, ())


def test_gcd_lcm_merging():
    assert lattice_invariants(IntMatrix([[2, 0], [0, 3]])) == (2, (6,))
    assert lattice_invariants(IntMatrix([[4, 0], [0, 6]])) == (2, (2, 12))
    assert FGAb.from_invariants(0, (2, 3)) == FGAb.cyclic(6)
    assert FGAb.from_invariants(1, (4, 6)).invariants() == (1, (2, 12))


def test_unit_pivot_fill_in():
    # the first pivot fills the other columns in; the residue is [[0, 2], [2, 0]]
    A = IntMatrix([[1, 1, 1], [1, 1, 3], [1, 3, 1]])
    assert lattice_invariants(A) == dense_invariants(A) == (3, (2, 2))


def random_free_complex(rng):
    """A free complex C_0 <- C_1 <- C_2 <- C_3 with d∘d = 0: each boundary
    is drawn from integer combinations of the kernel of the one below."""
    ranks = [rng.randint(0, 4)]
    mats = []
    below = None
    for _ in range(3):
        r = rng.randint(0, 5)
        if below is None:
            M = IntMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(ranks[-1])],
                          (ranks[-1], r))
        else:
            K = kernel_basis(below)
            cols = []
            for _ in range(r):
                coeffs = [rng.choice([0, 0, 1, -1, 2]) for _ in range(K.cols)]
                cols.append([sum(c * K.entries[i][j] for j, c in enumerate(coeffs))
                             for i in range(K.rows)])
            M = from_columns(cols, ranks[-1])
        mats.append(M)
        ranks.append(r)
        below = M
    groups = {-1: FGAb.trivial()}
    groups.update({n: FGAb.free(r) for n, r in enumerate(ranks)})
    groups[len(ranks)] = FGAb.trivial()
    boundaries = {0: AbMap.zero(groups[0], groups[-1]),
                  len(ranks): AbMap.zero(groups[len(ranks)], groups[len(ranks) - 1])}
    for n, M in enumerate(mats, start=1):
        boundaries[n] = AbMap(groups[n], groups[n - 1], M, check=False)
    return ChainComplex(groups, boundaries)


def test_free_homology_matches_lifted_homology():
    rng = random.Random(4711)
    for _ in range(60):
        K = random_free_complex(rng)
        for n in range(0, 4):
            assert K.homology(n) == lifted_homology(K, n)
