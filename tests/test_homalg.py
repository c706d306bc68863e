import random

import pytest

from hocofin import _jsonio, homalg
from hocofin.homalg import (
    AbMap,
    ChainComplex,
    FGAb,
    HomalgError,
    IntMatrix,
    smith_normal_form,
)
from oracles import (
    columns,
    determinant,
    direct_sum,
    from_columns,
    identity_matrix,
    is_zero,
    kernel_basis,
    lattice_member,
    lifted_homology,
    verify_smith_normal_form,
    zero_matrix,
)


def snf_diagonal(A):
    _, D, _ = smith_normal_form(A)
    return [D.entries[i][i] for i in range(min(D.rows, D.cols))]


def test_snf_worked_example():
    # gcd of entries is 2; gcd of 2x2 minors is |det| = 8, so d2 = 8/2 = 4
    A = IntMatrix([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(A)
    verify_smith_normal_form(A, U, D, V)
    assert [D.entries[0][0], D.entries[1][1]] == [2, 4]


def test_snf_identity_and_zero():
    I3 = identity_matrix(3)
    U, D, V = smith_normal_form(I3)
    verify_smith_normal_form(I3, U, D, V)
    assert D == I3
    Z = zero_matrix(2, 3)
    U, D, V = smith_normal_form(Z)
    verify_smith_normal_form(Z, U, D, V)
    assert is_zero(D)


def test_snf_random_matrices_verified():
    rng = random.Random(20240817)
    for _ in range(300):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], (m, n))
        U, D, V = smith_normal_form(A)
        verify_smith_normal_form(A, U, D, V)


def test_determinant_matches_permutation_expansion():
    # brute-force Leibniz expansion as the oracle
    from itertools import permutations

    def leibniz(M):
        n = M.rows
        total = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            # count inversions for the sign
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = 1
            for i in range(n):
                prod *= M.entries[i][perm[i]]
            total += sign * prod
        return total

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], (n, n))
        assert determinant(M) == leibniz(M)


def test_kernel_basis_spans_kernel():
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], (m, n))
        K = kernel_basis(A)
        for col in columns(K):
            assert all(x == 0 for x in A.mul_vec(col))


def test_lattice_member_trivial_cases():
    A = IntMatrix([[2, 0], [0, 3]])
    assert lattice_member([0, 0], A) == [0, 0]
    assert lattice_member([2, 0], A) == [1, 0]
    assert lattice_member([1, 0], A) is None


def test_lattice_member_against_bounded_enumeration():
    # oracle: search all integer combinations in a small box
    rng = random.Random(4242)
    for _ in range(60):
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)], (3, 3))
        x = [rng.randint(-2, 2) for _ in range(3)]
        v = A.mul_vec(x)
        got = lattice_member(v, A)
        assert got is not None
        assert A.mul_vec(got) == v
        # a vector the box search cannot reach should agree with the solver
        w = [v[0] + 1, v[1], v[2]]
        box_hit = any(
            A.mul_vec([a, b, c]) == w
            for a in range(-8, 9)
            for b in range(-8, 9)
            for c in range(-8, 9)
        )
        solver_hit = lattice_member(w, A) is not None
        if box_hit:
            assert solver_hit
        if solver_hit:
            sol = lattice_member(w, A)
            assert A.mul_vec(sol) == w


def test_fgab_canonical_forms():
    assert FGAb(2, IntMatrix([[2, 0], [0, 3]])).invariants() == (0, (6,))
    assert FGAb(2).invariants() == (2, ())
    assert FGAb(1, IntMatrix([[1]])).invariants() == (0, ())
    assert str(FGAb.trivial()) == "0"
    assert str(FGAb.from_invariants(1, (2,))) == "Z (+) Z/2"
    assert FGAb.cyclic(6) == FGAb(2, IntMatrix([[2, 0], [0, 3]]))
    # Z/0 is Z
    assert FGAb.cyclic(0) == FGAb.free(1)


def test_fgab_direct_sum():
    G = direct_sum(FGAb.cyclic(2), FGAb.cyclic(3), FGAb.free(1))
    assert G.invariants() == (1, (6,))


def test_abmap_well_definedness():
    z2 = FGAb.cyclic(2)
    z4 = FGAb.cyclic(4)
    # multiplication by 2 maps Z/2 -> Z/4 well (2*2 = 4 = 0 in Z/4)
    AbMap(z2, z4, IntMatrix([[2]]))
    with pytest.raises(HomalgError):
        AbMap(z2, z4, IntMatrix([[1]]))


def test_abmap_equality_mod_relations():
    z2 = FGAb.cyclic(2)
    a = AbMap(z2, z2, IntMatrix([[1]]))
    b = AbMap(z2, z2, IntMatrix([[3]]))
    c = AbMap(z2, z2, IntMatrix([[2]]))
    assert a.equals(b)
    assert not a.equals(c)


def _free_complex(matrices, top_rank):
    """Build a complex of free groups from boundary matrices d_1..d_k."""
    ranks = [matrices[0].rows] + [M.cols for M in matrices]
    groups = {-1: FGAb.trivial()}
    for n, r in enumerate(ranks):
        groups[n] = FGAb.free(r)
    hi = len(ranks) - 1
    boundaries = {0: AbMap.zero(groups[0], groups[-1])}
    for n, M in enumerate(matrices, start=1):
        boundaries[n] = AbMap(groups[n], groups[n - 1], M, check=False)
    return ChainComplex(groups, boundaries), hi


def test_homology_free_two_term():
    # Z --2--> Z
    K, _ = _free_complex([IntMatrix([[2]])], 1)
    assert K.homology(0) == FGAb.cyclic(2)


def test_a_complex_needs_contiguous_degrees_and_fitting_boundaries():
    Z, Z_squared = FGAb.free(1), FGAb.free(2)
    with pytest.raises(ValueError, match="empty complex"):
        ChainComplex({}, {})
    with pytest.raises(ValueError, match="degrees must be contiguous"):
        ChainComplex({0: Z, 2: Z}, {})
    with pytest.raises(ValueError, match="missing boundary in degree 1"):
        ChainComplex({0: Z, 1: Z}, {})
    with pytest.raises(ValueError, match="boundary shape mismatch in degree 1"):
        ChainComplex({0: Z, 1: Z}, {1: AbMap.zero(Z_squared, Z)})
    K = ChainComplex({0: Z, 1: Z}, {1: AbMap.zero(Z, Z)})
    with pytest.raises(homalg.DegreeMissing, match="homology in degree 1 needs degrees 0..2"):
        K.homology(1)


def test_a_matrix_needs_its_shape():
    with pytest.raises(ValueError, match="shape is required"):
        IntMatrix([])
    with pytest.raises(ValueError, match="entries do not match shape 2x2"):
        IntMatrix([[1, 2], [3]], (2, 2))
    assert IntMatrix([], (0, 3)).cols == 3


def test_a_dense_input_is_checked_like_a_sparse_one():
    # a relation on a second generator that the group does not have
    with pytest.raises(ValueError, match="row outside 0..0"):
        FGAb(1, IntMatrix([[0], [1]]))
    Z, Z_squared = FGAb.free(1), FGAb.free(2)
    with pytest.raises(ValueError, match="row outside 0..0"):
        AbMap(Z, Z, IntMatrix([[1], [1]]))
    with pytest.raises(ValueError, match="does not fit source/target generators"):
        AbMap(Z_squared, Z, IntMatrix([[1]]))
    assert FGAb(2, IntMatrix([[2, 0], [0, 0]])) == FGAb.from_invariants(1, [2])


def test_homology_zero_complex():
    groups = {-1: FGAb.trivial(), 0: FGAb.cyclic(4), 1: FGAb.free(2), 2: FGAb.trivial()}
    boundaries = {
        0: AbMap.zero(groups[0], groups[-1]),
        1: AbMap.zero(groups[1], groups[0]),
        2: AbMap.zero(groups[2], groups[1]),
    }
    K = ChainComplex(groups, boundaries)
    assert K.homology(0) == FGAb.cyclic(4)
    assert K.homology(1) == FGAb.free(2)


def test_homology_rank_matches_rational_rank_nullity():
    # for free complexes: rank H_n = dim ker d_n - rank d_{n+1}
    rng = random.Random(2718)

    def rank(M):
        _, D, _ = smith_normal_form(M)
        return sum(1 for i in range(min(D.rows, D.cols)) if D.entries[i][i])

    for _ in range(40):
        r1 = rng.randint(0, 3)
        r0 = rng.randint(1, 3)
        d1 = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r0)], (r0, r1)
        )
        # choose d2 with d1*d2 = 0 by sampling the kernel
        K = kernel_basis(d1)
        cols = []
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-2, 2) for _ in range(K.cols)]
            cols.append(
                [sum(c * K.entries[i][j] for j, c in enumerate(coeffs)) for i in range(r1)]
            )
        d2 = from_columns(cols, r1)
        groups = {
            -1: FGAb.trivial(),
            0: FGAb.free(r0),
            1: FGAb.free(r1),
            2: FGAb.free(d2.cols),
        }
        boundaries = {
            0: AbMap.zero(groups[0], groups[-1]),
            1: AbMap(groups[1], groups[0], d1, check=False),
            2: AbMap(groups[2], groups[1], d2, check=False),
        }
        Kx = ChainComplex(groups, boundaries)
        H1 = Kx.homology(1)
        assert H1.free_rank == (r1 - rank(d1)) - rank(d2)


def test_homology_with_torsion_chain_groups():
    # 0 -> Z/4 --1--> Z/2 -> 0 : H_1 = ker = 2*Z/4 = Z/2, H_0 = coker = 0
    z4 = FGAb.cyclic(4)
    z2 = FGAb.cyclic(2)
    groups = {-1: FGAb.trivial(), 0: z2, 1: z4, 2: FGAb.trivial()}
    boundaries = {
        0: AbMap.zero(groups[0], groups[-1]),
        1: AbMap(z4, z2, IntMatrix([[1]])),
        2: AbMap.zero(groups[2], groups[1]),
    }
    K = ChainComplex(groups, boundaries)
    assert K.homology(0) == FGAb.trivial()
    assert K.homology(1) == FGAb.cyclic(2)


def test_complex_rejects_nonzero_boundary_square():
    groups = {0: FGAb.free(1), 1: FGAb.free(1), 2: FGAb.free(1)}
    boundaries = {
        1: AbMap(groups[1], groups[0], IntMatrix([[1]]), check=False),
        2: AbMap(groups[2], groups[1], IntMatrix([[1]]), check=False),
    }
    with pytest.raises(HomalgError):
        ChainComplex(groups, boundaries)


def test_boundary_square_may_land_in_the_relations():
    # Z --m--> Z --k--> Z/2: the square is k*m, zero in Z/2 exactly when it
    # is even; then H_1 = ker d_1 / im d_2 = Z/m when k is even
    groups = {0: FGAb.cyclic(2), 1: FGAb.free(1), 2: FGAb.free(1)}
    for k, m, ok in ((2, 1, True), (4, 1, True), (2, 3, True), (1, 2, True),
                     (1, 1, False), (3, 1, False), (3, 3, False)):
        boundaries = {
            1: AbMap(groups[1], groups[0], IntMatrix([[k]]), check=False),
            2: AbMap(groups[2], groups[1], IntMatrix([[m]]), check=False),
        }
        if not ok:
            with pytest.raises(HomalgError):
                ChainComplex(groups, boundaries)
            continue
        K = ChainComplex(groups, boundaries)
        expected = FGAb.cyclic(m) if k % 2 == 0 else FGAb.cyclic(m // 2)
        assert K.homology(1) == lifted_homology(K, 1) == expected


def test_matrix_json_round_trip():
    data = {"rows": 2, "cols": 3, "data": ["1", "-2", "30", "0", "5", "-6"]}
    assert _jsonio.matrix_from_json(data) == IntMatrix([[1, -2, 30], [0, 5, -6]])
