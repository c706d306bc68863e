"""Sparse chain-complex assembly (``block_sum``, ``block_map``,
``normalized_complex``) against a dense assembly written here, on random
blocks: the dense views, the invariants and the homology must agree, and
no stored column may hold a zero."""

import random
from collections import Counter

import pytest

from hocofin import fincat, fixtures, groups, gz, homalg
from hocofin.homalg import (AbMap, FGAb, IntMatrix, _sparse_columns, block_map, block_sum,
                           normalized_complex)
from oracles import columns, from_columns, lattice_invariants, lifted_homology, relation_matrix


def random_group(rng):
    """A random presentation, given densely or sparsely; zero generators and
    zero or repeated relation columns occur."""
    gens = rng.choice((0, 0, 1, 1, 2, 3))
    cols = [[rng.choice((0, 0, 0, 1, -1, 2, 3, 4)) for _ in range(gens)]
            for _ in range(rng.randint(0, 3))]
    if cols and rng.random() < 0.3:
        cols.append(list(cols[0]))
    dense = from_columns(cols, gens)
    return FGAb(gens, dense if rng.random() < 0.5 else _sparse_columns(dense))


def dense_of(columns, rows):
    """Sparse columns as a list of dense rows, built here."""
    out = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            out[i][j] = x
    return out


def assert_zero_free(columns, rows):
    for col in columns:
        assert all(x != 0 for x in col.values()), col
        assert all(0 <= i < rows for i in col), col


def assert_invariants_match_dense_view(G):
    rank, torsion = lattice_invariants(relation_matrix(G))
    assert G.invariants() == (G.gens - rank, torsion)


class DenseBoundary:
    """A dense target x source matrix that counts, per place, how many
    entries landed there."""

    def __init__(self, rows, cols):
        self.M = [[0] * cols for _ in range(rows)]
        self.hits = Counter()

    def add(self, r0, c0, sign, coeff, block_rows, block_cols):
        if isinstance(coeff, int):
            block = [[int(r == c) for c in range(coeff)] for r in range(coeff)]
        else:
            block = dense_of(coeff, block_rows)
        for r in range(block_rows):
            for c in range(block_cols):
                if block[r][c]:
                    self.M[r0 + r][c0 + c] += sign * block[r][c]
                    self.hits[(r0 + r, c0 + c)] += 1

    def count(self, seen):
        for (r, c), k in self.hits.items():
            if k > 1:
                seen["same place"] += 1
                seen["cancelled"] += self.M[r][c] == 0


def test_block_sum_matches_the_dense_direct_sum():
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(300):
        blocks = [random_group(rng) for _ in range(rng.randint(0, 5))]
        G, offsets = block_sum(blocks)
        total = sum(b.gens for b in blocks)
        ref_offsets, ref_cols, at = [], [], 0
        for b in blocks:
            ref_offsets.append(at)
            for col in columns(relation_matrix(b)):
                ref_cols.append([0] * at + col + [0] * (total - at - b.gens))
            at += b.gens
        seen["zero-generator block"] += any(b.gens == 0 for b in blocks)
        assert offsets == ref_offsets
        assert G.gens == total
        assert relation_matrix(G) == from_columns(ref_cols, total)
        assert_zero_free(G.relations, total)
        assert_invariants_match_dense_view(G)
    assert seen["zero-generator block"] >= 50, seen


def random_entries(rng, source_blocks, target_blocks, s_off, t_off):
    """block_map entries between random block pairs, each with its block
    shape: sparse coefficients or int identities, some repeated with the
    same or the opposite sign."""
    entries = []
    for _ in range(rng.randint(0, 6)):
        si = rng.randrange(len(source_blocks))
        ti = rng.randrange(len(target_blocks))
        rows, cols = target_blocks[ti].gens, source_blocks[si].gens
        if rows == cols and rng.random() < 0.4:
            coeff = rows
        else:
            coeff = _sparse_columns(IntMatrix(
                [[rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)],
                (rows, cols)))
        for _ in range(rng.choice((1, 1, 2))):
            entries.append((t_off[ti], s_off[si], rng.choice((1, -1)), coeff, rows, cols))
    return entries


def test_block_map_matches_the_dense_assembly():
    rng = random.Random(31415)
    seen = Counter()
    for _ in range(300):
        source_blocks = [random_group(rng) for _ in range(rng.randint(1, 4))]
        target_blocks = [random_group(rng) for _ in range(rng.randint(1, 4))]
        S, s_off = block_sum(source_blocks)
        T, t_off = block_sum(target_blocks)
        entries = random_entries(rng, source_blocks, target_blocks, s_off, t_off)
        f = block_map(S, T, [e[:4] for e in entries])
        ref = DenseBoundary(T.gens, S.gens)
        for entry in entries:
            ref.add(*entry)
            seen["int"] += isinstance(entry[3], int)
        ref.count(seen)
        assert f.matrix == IntMatrix(ref.M, (T.gens, S.gens))
        assert len(f.columns) == S.gens
        assert_zero_free(f.columns, T.gens)
    assert seen["int"] >= 50 and seen["same place"] >= 50 and seen["cancelled"] >= 20, seen


def bar_faces(k, u, G):
    """Faces of the normalized bar complex of Z/k acting on G through
    multiplication by u**g: chains are tuples of nonzero residues mod k,
    d_0 acts by the first letter, inner faces add neighbours (a zero sum
    is degenerate and leaves the basis), d_n drops the last letter.  A
    trivial action is an int (identity) on chains of odd letter sum and
    sparse columns on the others."""
    def faces(n, chain):
        s = u ** chain[0]
        if s == 1 and sum(chain) % 2:
            yield 0, chain[1:], G.gens
        else:
            yield 0, chain[1:], [{j: s} for j in range(G.gens)]
        for i in range(1, n):
            yield i, chain[:i - 1] + ((chain[i - 1] + chain[i]) % k,) + chain[i + 1:], G.gens
        yield n, chain[:-1], G.gens
    return faces


def bar_basis(k, top):
    basis = {0: [()]}
    for n in range(1, top + 1):
        basis[n] = [c + (g,) for c in basis[n - 1] for g in range(1, k)]
    return basis


def by_index(basis, faces, top):
    """The faces ``faces(n, x)`` of the basis elements as
    ``normalized_complex`` takes them: indices into degree n-1, None for a
    chain outside the basis, and per element the faces given by columns."""
    indexed, transport = [[()] * len(basis[0])], [None]
    for n in range(1, top + 1):
        index = {x: j for j, x in enumerate(basis[n - 1])}
        fs, moves = [], []
        for x in basis[n]:
            got = list(faces(n, x))
            assert [i for i, _, _ in got] == list(range(n + 1))
            fs.append(tuple(index.get(y) for _, y, _ in got))
            moves.append({i: coeff for i, _, coeff in got if not isinstance(coeff, int)})
        indexed.append(fs)
        transport.append(moves)
    return indexed, transport


def test_normalized_complex_matches_the_dense_assembly_and_lifted_homology():
    rng = random.Random(1618)
    seen = Counter()
    for _ in range(60):
        k = rng.choice((2, 3, 4))
        u = rng.choice((1, -1)) if k % 2 == 0 else 1
        G = random_group(rng)
        top = rng.choice((2, 3))
        basis, faces = bar_basis(k, top), bar_faces(k, u, G)
        K = normalized_complex([[G] * len(basis[n]) for n in range(top + 1)],
                               *by_index(basis, faces, top))
        for n in range(top + 1):
            index = {x: j for j, x in enumerate(basis[n])}
            size = G.gens * len(basis[n])
            rel_cols = [[0] * (j * G.gens) + col + [0] * (size - (j + 1) * G.gens)
                        for j in range(len(basis[n])) for col in columns(relation_matrix(G))]
            assert relation_matrix(K.groups[n]) == from_columns(rel_cols, size)
            assert_zero_free(K.groups[n].relations, size)
            assert_invariants_match_dense_view(K.groups[n])
            if n == 0:
                continue
            below = {x: j for j, x in enumerate(basis[n - 1])}
            ref = DenseBoundary(G.gens * len(below), size)
            for x, j in index.items():
                for i, y, coeff in faces(n, x):
                    if y in below:
                        ref.add(below[y] * G.gens, j * G.gens, -1 if i % 2 else 1, coeff,
                                G.gens, G.gens)
            ref.count(seen)
            d = K.boundaries[n]
            assert d.matrix == IntMatrix(ref.M, (G.gens * len(below), size))
            assert_zero_free(d.columns, G.gens * len(below))
        for n in range(top):
            assert K.homology(n) == lifted_homology(K, n), (k, u, G, n)
        seen["zero generators"] += G.gens == 0
        seen["relations"] += bool(G.relations)
    assert seen["cancelled"] >= 20 and seen["zero generators"] >= 5 and seen["relations"] >= 20, seen


def test_a_stored_zero_is_refused():
    # a stored zero would count as a pivot: rank 1 for the zero column
    with pytest.raises(ValueError):
        FGAb(1, [{0: 0}])
    with pytest.raises(ValueError):
        FGAb(1, [{1: 2}])
    with pytest.raises(ValueError):
        AbMap(FGAb(1), FGAb(1), [{0: 0}])
    with pytest.raises(ValueError):
        AbMap(FGAb(2), FGAb(1), [{0: 1}])
    assert FGAb(1, [{}]) == FGAb.free(1)


def one_object(n):
    G = groups.cyclic_group(n)
    return fincat.from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)


def test_baues_wirsching_homology_of_z4_with_z2_coefficients():
    # universal coefficients: H_n(Z/4; Z/2) = Z/2 in every degree; degree 3
    # of the nerve route has 16384 generators
    C = one_object(4)
    result = gz.bw_homology(C, fixtures.const_ab_nsys(C, FGAb.cyclic(2)), 2)
    assert result["abelian"] == [FGAb.cyclic(2)] * 3
    assert result["routes_agree"]


def test_bw_builds_no_large_dense_matrix(monkeypatch):
    largest = [0]
    init = IntMatrix.__init__

    def spy(self, entries, shape=None):
        init(self, entries, shape)
        largest[0] = max(largest[0], self.rows * self.cols)

    monkeypatch.setattr(homalg.IntMatrix, "__init__", spy)
    C = one_object(3)
    result = gz.bw_homology(C, fixtures.const_ab_nsys(C, FGAb.cyclic(2)), 2)
    assert result["abelian"] == [FGAb.cyclic(2), FGAb.trivial(), FGAb.trivial()]
    assert largest[0] <= 10 ** 4, largest[0]
