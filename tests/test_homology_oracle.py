"""Brute-force oracle for homology of complexes of finite abelian groups.

A finite abelian group is determined by its multiset of element orders, so
kernels, images, and quotients can be compared against literal element
enumeration.  This is fully independent of the Smith-normal-form engine.
"""

import itertools
import random
from math import gcd

import pytest

from hocofin.homalg import AbMap, ChainComplex, FGAb, IntMatrix
from oracles import mul


def elements_of(moduli):
    return list(itertools.product(*[range(d) for d in moduli]))


def add(moduli, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, moduli))


def smul(moduli, k, x):
    return tuple((k * a) % d for a, d in zip(x, moduli))


def order_of(moduli, x):
    n = 1
    acc = x
    zero = tuple(0 for _ in moduli)
    while acc != zero:
        acc = add(moduli, acc, x)
        n += 1
    return n


def apply_matrix(matrix, tgt_moduli, x):
    return tuple(
        sum(matrix.entries[i][j] * x[j] for j in range(len(x))) % tgt_moduli[i]
        for i in range(len(tgt_moduli))
    )


def order_profile_of_invariants(torsion):
    els = elements_of(list(torsion))
    moduli = list(torsion)
    return sorted(order_of(moduli, x) for x in els)


def subgroup_order_profile(moduli, subset):
    return sorted(order_of(moduli, x) for x in subset)


def quotient_order_profile(moduli, subgroup):
    """Orders of cosets of a subgroup, by minimal multiple landing inside."""
    sub = set(subgroup)
    els = elements_of(moduli)
    seen = set()
    profile = []
    for x in els:
        coset = frozenset(add(moduli, x, s) for s in sub)
        if coset in seen:
            continue
        seen.add(coset)
        k = 1
        acc = x
        while acc not in sub:
            acc = add(moduli, acc, x)
            k += 1
        profile.append(k)
    return sorted(profile)


def random_two_term(rng):
    src = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
    tgt = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
    A = FGAb.from_invariants(0, tuple(src))
    B = FGAb.from_invariants(0, tuple(tgt))
    # entries chosen so relations are respected: column j must be killed by
    # src[j] in the target, i.e. src[j]*entry divisible by tgt[i]
    entries = []
    for i in range(len(tgt)):
        row = []
        for j in range(len(src)):
            candidates = [
                v for v in range(tgt[i]) if (src[j] * v) % tgt[i] == 0
            ]
            row.append(rng.choice(candidates))
        entries.append(row)
    M = AbMap(A, B, IntMatrix(entries, (len(tgt), len(src))))
    return src, tgt, M


def test_two_term_homology_against_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        src, tgt, M = random_two_term(rng)
        groups = {
            -1: FGAb.trivial(),
            0: M.target,
            1: M.source,
            2: FGAb.trivial(),
        }
        boundaries = {
            0: AbMap.zero(groups[0], groups[-1]),
            1: M,
            2: AbMap.zero(groups[2], groups[1]),
        }
        K = ChainComplex(groups, boundaries)
        h0 = K.homology(0)
        h1 = K.homology(1)
        # brute force: kernel and image by element enumeration
        kernel = [
            x
            for x in elements_of(src)
            if apply_matrix(M.matrix, tgt, x) == tuple(0 for _ in tgt)
        ]
        image = {apply_matrix(M.matrix, tgt, x) for x in elements_of(src)}
        assert h1.free_rank == 0 and h0.free_rank == 0
        assert order_profile_of_invariants(h1.torsion) == subgroup_order_profile(src, kernel)
        assert order_profile_of_invariants(h0.torsion) == quotient_order_profile(tgt, image)


def test_three_term_middle_homology_against_enumeration():
    rng = random.Random(99)
    found = 0
    while found < 25:
        a, b, c = (
            [rng.choice((2, 4))],
            [rng.choice((2, 4)) for _ in range(rng.randint(1, 2))],
            [rng.choice((2, 4))],
        )
        A = FGAb.from_invariants(0, tuple(a))
        B = FGAb.from_invariants(0, tuple(b))
        C = FGAb.from_invariants(0, tuple(c))
        try:
            M = AbMap(A, B, IntMatrix(
                [[rng.randrange(b[i])] for i in range(len(b))], (len(b), 1)))
            N = AbMap(B, C, IntMatrix(
                [[rng.randrange(c[0]) for _ in range(len(b))]], (1, len(b))))
        except Exception:
            continue
        comp = mul(N.matrix, M.matrix)
        if comp.entries[0][0] % c[0] != 0:
            continue  # not a complex; resample
        found += 1
        groups = {-1: FGAb.trivial(), 0: C, 1: B, 2: A, 3: FGAb.trivial()}
        boundaries = {
            0: AbMap.zero(groups[0], groups[-1]),
            1: N,
            2: M,
            3: AbMap.zero(groups[3], groups[2]),
        }
        K = ChainComplex(groups, boundaries)
        h1 = K.homology(1)
        kernel = [
            x
            for x in elements_of(b)
            if apply_matrix(N.matrix, c, x) == tuple(0 for _ in c)
        ]
        image = {apply_matrix(M.matrix, b, x) for x in elements_of(a)}
        # quotient of the enumerated kernel by the enumerated image
        sub = set(image)
        seen = set()
        profile = []
        for x in kernel:
            coset = frozenset(add(b, x, s) for s in sub)
            if coset in seen:
                continue
            seen.add(coset)
            k = 1
            acc = x
            while acc not in sub:
                acc = add(b, acc, x)
                k += 1
            profile.append(k)
        assert h1.free_rank == 0
        assert order_profile_of_invariants(h1.torsion) == sorted(profile)
