"""Randomized property tests for the algebraic kernels."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin.groups import FreeProduct, cyclic_group, free_reduce, cyclic_reduce
from hocofin.homalg import FGAb, IntMatrix, smith_normal_form
from oracles import (
    columns,
    direct_sum,
    invert,
    kernel_basis,
    lattice_member,
    plain_cyclic_reduce,
    verify_smith_normal_form,
)

matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: IntMatrix(rows, (m, n)))
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(A):
    U, D, V = smith_normal_form(A)
    verify_smith_normal_form(A, U, D, V)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_kernel_columns_annihilate(A):
    K = kernel_basis(A)
    for col in columns(K):
        assert all(v == 0 for v in A.mul_vec(col))


@settings(max_examples=100, deadline=None)
@given(matrices, st.lists(st.integers(-3, 3), min_size=0, max_size=4))
def test_lattice_member_solutions_check_out(A, x):
    x = (x + [0] * A.cols)[: A.cols]
    v = A.mul_vec(x)
    got = lattice_member(v, A)
    assert got is not None
    assert A.mul_vec(got) == v


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=0, max_size=5),
       st.lists(st.integers(0, 12), min_size=0, max_size=5))
def test_direct_sum_of_canonical_forms_is_commutative(ds1, ds2):
    A = FGAb.from_invariants(0, tuple(d for d in ds1 if d > 1))
    B = FGAb.from_invariants(0, tuple(d for d in ds2 if d > 1))
    assert direct_sum(A, B) == direct_sum(B, A)


letters = st.lists(
    st.tuples(st.sampled_from(["A", "B"]), st.sampled_from(["0", "1", "2"])),
    min_size=0,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(letters, st.integers(0, 12))
def test_word_reduction_confluent_under_any_split(word, cut):
    fp = FreeProduct([("A", cyclic_group(3)), ("B", cyclic_group(3))])
    cut = min(cut, len(word))
    whole = fp.reduce(word)
    left = fp.reduce(word[:cut])
    right = fp.reduce(word[cut:])
    assert fp.multiply(left, right) == whole


@settings(max_examples=200, deadline=None)
@given(letters)
def test_word_inverse_cancels(word):
    fp = FreeProduct([("A", cyclic_group(3)), ("B", cyclic_group(3))])
    w = fp.reduce(word)
    assert fp.multiply(w, invert(fp, w)) == ()
    assert fp.multiply(invert(fp, w), w) == ()


free_words = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.sampled_from([1, -1])),
    min_size=0,
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(free_words)
def test_free_reduction_idempotent_and_shorter(word):
    word = tuple(word)
    red = free_reduce(word)
    assert free_reduce(red) == red
    assert len(red) <= len(word)
    cyc = cyclic_reduce(word)
    assert cyclic_reduce(cyc) == cyc
    assert len(cyc) <= len(red)
    # one trim at both ends, where the first version free-reduced again
    # after each inverse pair it took off
    assert cyc == plain_cyclic_reduce(word)
