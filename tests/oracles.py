"""Reference implementations that the tests compare hocofin against.

None of this is reached by a command.  The dense routes work on
``homalg.IntMatrix`` through its full transforms: Smith normal form
checking, integer kernels and lattice membership through U and V, and
homology lifted to the free covers.  The others recount or recheck what
the program builds: the nondegenerate nerve chains as tuples, the
squares of each boundary taken chain by chain, the relation cone built
from the boundary maps with each relation lifted on its own, each
relation-cone boundary reduced on its own, without clearing, the
degree-0 colimit as a coequalizer, group tables enumerated up to
isomorphism, hom counts backtracked over every image of every generator,
automorphisms of a group table by trying every permutation, cyclic
reduction that free-reduces again after each trim, Tietze elimination
that rewrites and canonicalizes every relator each round,
homotopy-colimit cardinalities, simplicial sets with every face and
degeneracy table built at construction, the homology of a whole nerve,
comma objects found by scanning every source object, cofinality,
factorization slices and inverse fibres certified on views built for
each, the cone search as generator expressions, posets composed by
pairing every arrow with every arrow, categories compared table by
table, and the replay of contractibility certificates.
"""

from __future__ import annotations

import itertools

from hocofin.cofinal import _coreflection, _Neighbours, _reflection, certify_contractible, weakest
from hocofin.fincat import (
    comma_left_fibre,
    composable_chains,
    coslice_parts,
    factor_slice,
    final_objects,
    identity_id,
    objects_over,
    opposite,
    validate_category,
)
from hocofin import fincat, groups
from hocofin.groups import FinGroup, GroupPresentation, free_reduce
from hocofin.homalg import (
    DegreeMissing,
    FGAb,
    HomalgError,
    IntMatrix,
    _column_invariants,
    _push,
    _Relations,
    _sparse_columns,
    block_map,
    block_sum,
    smith_normal_form,
)
from hocofin.presheaf import TruncSSet, elements_with_parts, homology_ss, inverse_fibre, nerve


# -- dense matrices ------------------------------------------------------------


def identity_matrix(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], (n, n))


def zero_matrix(m, n):
    return IntMatrix([[0] * n for _ in range(m)], (m, n))


def from_columns(columns, rows):
    cols = [list(map(int, c)) for c in columns]
    if any(len(c) != rows for c in cols):
        raise ValueError("column of wrong length")
    return IntMatrix([[c[i] for c in cols] for i in range(rows)], (rows, len(cols)))


def columns(M):
    return [M.column(j) for j in range(M.cols)]


def transpose(M):
    return IntMatrix(
        [[M.entries[i][j] for i in range(M.rows)] for j in range(M.cols)],
        (M.cols, M.rows),
    )


def mul(A, B):
    if A.cols != B.rows:
        raise ValueError("shape mismatch in matrix product")
    bt = transpose(B).entries
    return IntMatrix(
        [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in A.entries],
        (A.rows, B.cols),
    )


def hstack(A, B):
    if A.rows != B.rows:
        raise ValueError("row count mismatch in hstack")
    return IntMatrix(
        [A.entries[i] + B.entries[i] for i in range(A.rows)],
        (A.rows, A.cols + B.cols),
    )


def is_zero(M):
    return all(x == 0 for row in M.entries for x in row)


def relation_matrix(G):
    """The relation columns of an FGAb as a dense IntMatrix, one row per
    generator."""
    return IntMatrix.from_sparse(G.relations, G.gens)


def direct_sum(*groups):
    """Block direct sum at presentation level (generator order kept)."""
    return block_sum(groups)[0]


# -- Smith normal form, kernels and lattices ------------------------------------


def determinant(M):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [row[:] for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_smith_normal_form(A, U, D, V):
    """Check U*A*V == D, diagonality, the divisibility chain, |det| = 1.

    Raises HomalgError on any failure; used on every randomised instance.
    """
    if mul(mul(U, A), V) != D:
        raise HomalgError("U*A*V != D")
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j and D.entries[i][j]:
                raise HomalgError("D is not diagonal")
    for i, d in enumerate(diag):
        if d < 0:
            raise HomalgError("negative invariant factor")
        if i + 1 < len(diag):
            nxt = diag[i + 1]
            if d == 0 and nxt != 0:
                raise HomalgError("zero before nonzero on the diagonal")
            if d != 0 and nxt % d != 0:
                raise HomalgError("divisibility chain broken")
    if abs(determinant(U)) != 1:
        raise HomalgError("U is not unimodular")
    if abs(determinant(V)) != 1:
        raise HomalgError("V is not unimodular")


def kernel_basis(A):
    """Basis for the integer kernel of A, returned as columns of a matrix."""
    return from_columns(_Solver(A).kernel(), A.cols)


class _Solver:
    """Repeated exact solving of A*x = v against a fixed A via one SNF."""

    def __init__(self, A):
        self.A = A
        self.U, self.D, self.V = smith_normal_form(A)
        self.rank_bound = min(A.rows, A.cols)

    def kernel(self):
        """Columns of V spanning the integer kernel of A."""
        r = sum(1 for i in range(self.rank_bound) if self.D.entries[i][i])
        return [self.V.column(j) for j in range(r, self.A.cols)]

    def solve(self, v):
        if len(v) != self.A.rows:
            raise ValueError("rhs length mismatch")
        w = self.U.mul_vec(v)
        z = [0] * self.A.cols
        for i in range(self.rank_bound):
            d = self.D.entries[i][i]
            if d:
                if w[i] % d:
                    return None
                z[i] = w[i] // d
            elif w[i]:
                return None
        for i in range(self.rank_bound, self.A.rows):
            if w[i]:
                return None
        return self.V.mul_vec(z)


def lattice_member(v, A):
    """Integer coordinates x with A*x == v, or None when v is outside the
    column lattice of A."""
    return _Solver(A).solve(v)


def lattice_invariants(A):
    """(rank, torsion): the number of nonzero Smith invariants of A and
    those above 1, d1 | d2 | ..., found without transforms.

    >>> lattice_invariants(IntMatrix([[4, 0, 0], [0, 6, 0]]))
    (2, (2, 12))
    """
    return _column_invariants(_sparse_columns(A))


def _relation_lattice(K, n):
    """The injective relation lattice of the whole of K's C_n, empty below lo."""
    return _Relations(K.groups[n].relations if n in K.groups else [], {})


def cone_columns(K, n):
    """Sparse columns of the relation cone boundary d_T: T_n -> T_{n-1}
    of the chain complex K (see ``ChainComplex.homology``), rows F_{n-1}
    then R_{n-2}, read from K's AbMap boundaries: each k-term and each
    column of d_R solved in the relation lattice on its own.  This is how
    ``ChainComplex`` built its cone before it wrote the cone's rows from
    the faces, with one lift per transport and pair of blocks."""
    off = K.groups[n - 1].gens
    below = _relation_lattice(K, n - 2)
    cols = [dict(col) for col in K.boundaries[n].columns]
    products = [_push(col, K.boundaries[n - 1].columns) for col in cols] if n - 1 > K.lo else ()
    if any(products):
        for col, product in zip(cols, products):
            k = below.solve(product)
            if k is None:
                raise HomalgError("boundary squared is nonzero in degree %d" % n)
            for r, x in k.items():
                col[off + r] = -x
    for rho in _relation_lattice(K, n - 1).columns:
        # d_R = 0 into R_{lo-1} = 0; otherwise rho d_R = d_F rho, solved
        d_r = below.solve(_push(rho, K.boundaries[n - 1].columns)) if n - 1 > K.lo else {}
        if d_r is None:
            raise HomalgError("boundary does not respect the relations in degree %d" % (n - 1))
        col = dict(rho)
        for r, x in d_r.items():
            col[off + r] = -x
        cols.append(col)
    return cols


def uncleared_cone_invariants(K, n):
    """(rank, torsion) of the relation cone boundary d_T,n of the chain
    complex K, reduced as it stands: its columns, every one of them, in
    any order of degrees.  ``ChainComplex._cone_invariants`` must agree.
    """
    return _column_invariants(cone_columns(K, n))


def cleared_route(K, top):
    """(H_lo+1..H_top of K, and the +-1 pivot rows of each cone boundary
    d_T,lo+1..d_T,top+1) by the route ``ChainComplex`` took before it wrote
    the cone's rows from the faces: ``cone_columns``, each boundary
    transposed, reduced in ascending degree without the rows the degree
    below paired."""
    invariants, pivots = {}, {K.lo: set()}
    for k in range(K.lo + 1, top + 2):
        cols = cone_columns(K, k)
        rows = [{} for _ in range(K.groups[k - 1].gens + len(_relation_lattice(K, k - 2).columns))]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        pivots[k] = set()
        invariants[k] = _column_invariants(
            [row for i, row in enumerate(rows) if i not in pivots[k - 1]], pivots[k])
    homology = []
    for n in range(K.lo + 1, top + 1):
        size = K.groups[n].gens + len(_relation_lattice(K, n - 1).columns)
        rank_up, torsion = invariants[n + 1]
        homology.append(FGAb.from_invariants(size - invariants[n][0] - rank_up, torsion))
    return homology, [pivots[k] for k in range(K.lo + 1, top + 2)]


def boundary_squares(K):
    """The squares d_{n-1} d_n of the chain complex K on the free covers,
    taken column by column: {n: the sparse product columns} for each
    degree n where one is nonzero.  This is the per-chain route that
    ``ChainComplex`` runs when its builder has not proven the squares zero;
    where it has, this must give {}."""
    out = {}
    for n in range(K.lo + 2, K.hi + 1):
        below = K.boundaries[n - 1].columns
        products = []
        for col in K.boundaries[n].columns:
            acc = {}
            for k, x in col.items():
                for i, y in below[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            products.append({i: y for i, y in acc.items() if y})
        if any(products):
            out[n] = products
    return out


def lifted_homology(K, n):
    """H_n of the chain complex K for finitely presented chain groups, by
    lifting everything to the free covers: a free-cover element is a cycle
    when its boundary lands in the relation lattice one degree down, and
    relation columns of C_n are folded into the divided-out sublattice.
    """
    if n - 1 < K.lo or n + 1 > K.hi:
        raise DegreeMissing("homology in degree %d needs degrees %d..%d" % (n, n - 1, n + 1))
    Cn = K.groups[n]
    if Cn.gens == 0:
        return FGAb.trivial()
    below = K.groups[n - 1]
    Dn = K.boundaries[n].matrix
    Dup = K.boundaries[n + 1].matrix
    # cycles: x in Z^gens with Dn*x in the relation lattice below
    stacked = hstack(Dn, relation_matrix(below))
    ker = kernel_basis(stacked)
    gen_mat = IntMatrix(
        [ker.entries[i] for i in range(Cn.gens)], (Cn.gens, ker.cols)
    )
    t = gen_mat.cols
    quotient_cols = columns(relation_matrix(Cn)) + columns(Dup)
    if t == 0:
        if any(any(x for x in col) for col in quotient_cols):
            raise HomalgError("boundary image escapes the cycle lattice")
        return FGAb.trivial()
    solver = _Solver(gen_mat)
    rel_cols = solver.kernel()
    for col in quotient_cols:
        coords = solver.solve(col)
        if coords is None:
            raise HomalgError("boundary image escapes the cycle lattice")
        rel_cols.append(coords)
    return FGAb(t, from_columns(rel_cols, t))


# -- colimits and groups ---------------------------------------------------------


def ab_colim0_by_coequalizer(C, M):
    """Independent degree-0 oracle: cokernel of the difference map from
    the sum over non-identity morphisms of M(dom) into the sum over
    objects of M(c)."""
    total, off = block_sum([M.value[o] for o in C.objects])
    off = dict(zip(C.objects, off))
    arrows = [a for a in C.morphisms if not C.is_identity(a)]
    domains, col_off = block_sum([M.value[C.dom[a]] for a in arrows])
    entries = []
    for a, c0 in zip(arrows, col_off):
        entries.append((off[C.dom[a]], c0, 1, M.value[C.dom[a]].gens))
        entries.append((off[C.cod[a]], c0, -1, M.action[a].columns))
    diff = block_map(domains, total, entries)
    return FGAb(total.gens, total.relations + diff.columns)


def abelianization(P):
    """The presented group made abelian, as an FGAb (exponent-sum matrix)."""
    gidx = {g: i for i, g in enumerate(P.generators)}
    cols = []
    for rel in P.relators:
        col = [0] * len(P.generators)
        for g, e in rel:
            col[gidx[g]] += e
        cols.append(col)
    return FGAb(len(P.generators), from_columns(cols, len(P.generators)))


def element_orders(G):
    out = []
    for a in G.elements:
        x, n = a, 1
        while x != G.unit:
            x = G.table[(x, a)]
            n += 1
        out.append(n)
    return sorted(out)


def plain_backtrack(checks, T):
    """``groups._backtrack`` with every element of T tried for every
    generator of the block: how blocks were counted before the first
    generator took one image per automorphism orbit."""
    rows, inverses, unit = T.indexed()
    images = [unit] * (2 * len(checks))
    last = len(checks) - 1

    def extend(d):
        total = 0
        words = checks[d]
        for a in range(len(rows)):
            images[2 * d] = a
            images[2 * d + 1] = inverses[a]
            for word in words:
                acc = unit
                for slot in word:
                    acc = rows[acc][images[slot]]
                if acc != unit:
                    break
            else:
                total += 1 if d == last else extend(d + 1)
        return total

    return extend(0)


def plain_cyclic_reduce(word):
    """``groups.cyclic_reduce`` as it was first written: trim one inverse
    pair off the ends, then free-reduce the rest again, until none is
    left."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
        w = list(free_reduce(w))
    return tuple(w)


def plain_tietze(P):
    """``groups.tietze_simplify`` as it was before a round rewrote only the
    relators that contain the eliminated generator: every round
    cyclically reduces and canonicalizes every relator again, by trying
    every rotation of it and of its inverse.  Reads
    ``groups.TIETZE_BUDGET`` at call time."""
    gens = list(P.generators)
    rels = [plain_cyclic_reduce(r) for r in P.relators]
    spent = 0

    def canon(rel):
        # canonical representative among rotations of the relator and its inverse
        best = None
        for w in (rel, tuple((g, -e) for g, e in reversed(rel))):
            for i in range(max(1, len(w))):
                rot = w[i:] + w[:i]
                if best is None or rot < best:
                    best = rot
        return best if best is not None else ()

    while True:
        rels = [plain_cyclic_reduce(r) for r in rels]
        seen = set()
        out = []
        for r in rels:
            if not r:
                continue
            c = canon(r)
            if c in seen:
                continue
            seen.add(c)
            out.append(r)
        rels = out
        # find a generator occurring exactly once in some relator,
        # scanning shortest relators first for smaller substitutions
        target = None
        for rel_idx in sorted(range(len(rels)), key=lambda i: (len(rels[i]), i)):
            rel_w = rels[rel_idx]
            counts = {}
            for g, _ in rel_w:
                counts[g] = counts.get(g, 0) + 1
            for pos, (g, e) in enumerate(rel_w):
                if counts[g] == 1:
                    target = (rel_idx, pos, g, e)
                    break
            if target:
                break
        if not target or spent > groups.TIETZE_BUDGET:
            break
        rel_idx, pos, g, e = target
        rel_w = rels[rel_idx]
        # solve the relator for g: g = replacement word
        rest = rel_w[pos + 1 :] + rel_w[:pos]
        repl = tuple((h, -x) for h, x in reversed(rest))
        if e == -1:
            repl = tuple((h, -x) for h, x in reversed(repl))
        new_rels = []
        for i, r in enumerate(rels):
            if i == rel_idx:
                continue
            w = []
            for h, x in r:
                if h == g:
                    w.extend(repl if x == 1 else [(a, -b) for a, b in reversed(repl)])
                else:
                    w.append((h, x))
                spent += 1
            new_rels.append(free_reduce(tuple(w)))
        rels = new_rels
        gens = [h for h in gens if h != g]
    return GroupPresentation(gens, rels)


def automorphisms(T):
    """Every automorphism of T on the indices of ``T.indexed()``, as a
    tuple of images, found by trying every permutation that fixes the
    unit."""
    rows, _, unit = T.indexed()
    rest = [a for a in range(len(rows)) if a != unit]
    out = []
    for perm in itertools.permutations(rest):
        phi = [unit] * len(rows)
        for a, b in zip(rest, perm):
            phi[a] = b
        if all(phi[rows[a][b]] == rows[phi[a]][phi[b]] for a in rest for b in rest):
            out.append(tuple(phi))
    return out


def invert(fp, w):
    """The inverse of the reduced word w of the free product fp."""
    return tuple((lbl, fp.fmap[lbl].inv[el]) for lbl, el in reversed(tuple(w)))


def enumerate_group_tables(n):
    """All group tables on {0..n-1} with unit 0, up to isomorphism.

    Backtracking over the multiplication table with row/column (latin
    square) constraints and incremental associativity pruning; practical
    for n <= 6.  The completeness oracle for the catalog.
    """
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    table = [[None] * n for _ in range(n)]
    for k in range(n):
        table[0][k] = k
        table[k][0] = k
    found = []

    def consistent(i, j):
        # check all triples whose products are already known
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    lhs = table[ab][c]
                    rhs = table[a][bc]
                    if lhs is not None and rhs is not None and lhs != rhs:
                        return False
        return True

    def place(k):
        if k == len(cells):
            els = [str(x) for x in range(n)]
            t = {(str(i), str(j)): str(table[i][j]) for i in range(n) for j in range(n)}
            G = FinGroup(els, "0", t)
            if not any(_tables_isomorphic(G, H) for H in found):
                found.append(G)
            return
        i, j = cells[k]
        used_row = {table[i][c] for c in range(n) if table[i][c] is not None}
        used_col = {table[r][j] for r in range(n) if table[r][j] is not None}
        for v in range(n):
            if v in used_row or v in used_col:
                continue
            table[i][j] = v
            if consistent(i, j):
                place(k + 1)
            table[i][j] = None

    place(0)
    return found


def _tables_isomorphic(G, H):
    if G.order() != H.order():
        return False
    if element_orders(G) != element_orders(H):
        return False
    g_els = [e for e in G.elements if e != G.unit]
    h_els = [e for e in H.elements if e != H.unit]

    def backtrack(k, mapping):
        if k == len(g_els):
            return True
        a = g_els[k]
        for b in h_els:
            if b in mapping.values():
                continue
            mapping[a] = b
            ok = True
            for x in list(mapping):
                xa = G.table[(x, a)]
                ax = G.table[(a, x)]
                if xa in mapping or xa == G.unit:
                    img = H.unit if xa == G.unit else mapping.get(xa)
                    if img is not None and H.table[(mapping[x], b)] != img:
                        ok = False
                        break
                if ax in mapping or ax == G.unit:
                    img = H.unit if ax == G.unit else mapping.get(ax)
                    if img is not None and H.table[(b, mapping[x])] != img:
                        ok = False
                        break
            if ok and backtrack(k + 1, mapping):
                return True
            del mapping[a]
        return False

    return backtrack(0, {})


# -- categories, homotopy colimits and certificates ------------------------------


def disjoint_union(C, D, tags=("0", "1"), name=""):
    ta, tb = tags

    def t0(x):
        return "%s:%s" % (ta, x)

    def t1(x):
        return "%s:%s" % (tb, x)

    objs = [t0(o) for o in C.objects] + [t1(o) for o in D.objects]
    mors = []
    for f in C.morphisms:
        if not C.is_identity(f):
            mors.append((t0(f), t0(C.dom[f]), t0(C.cod[f])))
    for f in D.morphisms:
        if not D.is_identity(f):
            mors.append((t1(f), t1(D.dom[f]), t1(D.cod[f])))
    comp = []
    for (g, f), h in C.comp.items():
        if not C.is_identity(g) and not C.is_identity(f) and not C.is_identity(h):
            comp.append((t0(g), t0(f), t0(h)))
        elif not C.is_identity(g) and not C.is_identity(f) and C.is_identity(h):
            comp.append((t0(g), t0(f), identity_id(t0(C.dom[h]))))
    for (g, f), h in D.comp.items():
        if not D.is_identity(g) and not D.is_identity(f) and not D.is_identity(h):
            comp.append((t1(g), t1(f), t1(h)))
        elif not D.is_identity(g) and not D.is_identity(f) and D.is_identity(h):
            comp.append((t1(g), t1(f), identity_id(t1(D.dom[h]))))
    return validate_category(objs, mors, comp, name=name)


def eager_simplicial_set(N, simplices, face, degeneracy, basepoint=None):
    """``presheaf.simplicial_set`` with every face and degeneracy table
    built at construction, as plain dicts: the oracle of the tables that
    it builds on first read."""
    def table(fn, xs, i):
        return dict(zip(xs, map(fn, xs, itertools.repeat(i))))

    faces = {(n, i): table(face, simplices[n], i) for n in range(1, N + 1) for i in range(n + 1)}
    degens = {(n, i): table(degeneracy, simplices[n], i) for n in range(N) for i in range(n + 1)}
    return TruncSSet(N, simplices, faces, degens, basepoint=basepoint, _validate=False)


def nondegenerate_chains(C, n):
    """``composable_chains(C, n)`` without the chains that have an
    identity arrow, in the same order."""
    return [ch for ch in composable_chains(C, n) if not any(map(C.is_identity, ch[1:]))]


def nerve_homology(B, n):
    """H_0..H_n of the nerve of B, from the level-(n + 1) nerve with its
    degenerate chains and degeneracy tables: the homology fallback that
    ``cofinal._nerve_homology`` replaced."""
    return homology_ss(nerve(B, n + 1, basepoint=B.objects[0]), n)


def comma_coslice(S, d):
    """The coslice d↓S as a view, from ``fincat.coslice_parts``: how the
    cofinality certifier built every coslice before it looked for a cone
    on the parts."""
    parts, arrow = coslice_parts(S, d)
    return fincat._comma_like(S.source, objects_over(parts), arrow, "comma")[0]


def view_route_cofinal(S, effort=1, n_max=2, coinitial=False):
    """``cofinal.certify_homotopy_cofinal`` as it was before it looked
    for cones on the comma parts: each coslice d↓S, or the opposite of
    each left fibre S↓d, built as a view and handed to
    ``certify_contractible``."""
    per_object = {}
    for d in S.target.objects:
        if coinitial:
            cat = opposite(comma_left_fibre(S, d)[0])
        else:
            cat = comma_coslice(S, d)
        per_object[d] = certify_contractible(cat, effort=effort, n_max=n_max)
    return {"per_object": per_object, "aggregate": weakest(per_object.values()).kind}


def view_route_slices(S, n_max, effort=1):
    """``gz.certify_slices`` as it was before it looked for cones on the
    parts: each slice S<alpha> built as a view (``factor_slice``) and
    handed to ``certify_contractible``."""
    return {alpha: certify_contractible(factor_slice(S, alpha), effort=effort, n_max=n_max)
            for alpha in S.target.morphisms}


def view_route_fibres(f, n_max, effort=1):
    """``gz.certify_fibres`` as it was before it looked for cones on the
    parts: the category of elements of each inverse fibre built as a view
    and handed to ``certify_contractible``."""
    return {(d, y): certify_contractible(elements_with_parts(inverse_fibre(f, d, y))[0],
                                         effort=effort, n_max=n_max)
            for d in f.source.base.objects for y in f.target.sets[d]}


def scanned_objects(S, d, coslice):
    """The parts (c, beta) of the coslice d↓S, or of the left fibre S↓d,
    found by scanning every source object c, in order: how the comma
    builders listed their objects before they read D's arrows out of d
    (into d)."""
    D = S.target
    return [(c, b) for c in S.source.objects
            for b in (D.hom(d, S.on_obj(c)) if coslice else D.hom(S.on_obj(c), d))]


def hocolim_cardinalities(PD, N):
    """Exact degreewise count 1 + sum over chains of (|X(origin)_n| - 1)."""
    C = PD.base
    out = []
    for n in range(N + 1):
        total = 1
        for sigma in composable_chains(C, n):
            total += len(PD.value[sigma[0]].simplices[n]) - 1
        out.append(total)
    return out


def all_pairs_listing(view):
    """(morphisms, dom, cod) of a view over a base, from its hom-sets
    alone: the identities, then each hom(o1, o2) after its identity, by o1,
    then o2, over all pairs of objects.  This is how ``_comma_like``
    listed a view before it visited only the pairs its base's arrows can
    fill."""
    mors = [view.identity[o] for o in view.objects]
    dom = {i: o for o, i in view.identity.items()}
    cod = dict(dom)
    for o1 in view.objects:
        for o2 in view.objects:
            for mid in view.hom(o1, o2)[o1 == o2:]:
                mors.append(mid)
                dom[mid] = o1
                cod[mid] = o2
    return mors, dom, cod


def same_tables(C, D):
    """Whether two categories have the same objects, morphisms, ends,
    identities and composition table, read in full; this is how
    ``FinCat.__eq__`` compared every pair of categories before derived
    views carried the key of their construction."""
    return (C.objects == D.objects and C.morphisms == D.morphisms and C.dom == D.dom
            and C.cod == D.cod and C.identity == D.identity and C.comp == D.comp)


def generated_final_objects(C, objs=None):
    """``fincat.iter_final_objects`` as a generator expression over
    ``all``: how the cone search tested its candidates before it counted
    in a plain loop."""
    objs = C.objects if objs is None else objs
    return (t for t in objs if all(C.hom_count(x, t) == 1 for x in objs))


def generated_initial_objects(C):
    return (s for s in C.objects if all(C.hom_count(s, x) == 1 for x in C.objects))


def initial_objects(C):
    return list(generated_initial_objects(C))


def paired_poset(elements, leq, name=""):
    """``fincat.from_poset`` by pairing every arrow with every arrow: how
    the composites were found before they were read from the arrows into
    each element."""
    mors = []
    for x in elements:
        for y in elements:
            if x != y and leq(x, y):
                mors.append(("%s<=%s" % (x, y), x, y))
    comp = []
    for m2, y1, z in mors:
        for m1, x, y2 in mors:
            if y2 == y1:
                comp.append((m2, m1, "%s<=%s" % (x, z)))
    return validate_category(elements, mors, comp, name=name)


def is_final(nb, t, state):
    """Whether t has exactly one arrow from each object of state."""
    doms = [nb.B.dom[f] for f in nb.into[t] if nb.B.dom[f] in state]
    return len(doms) == len(state) and len(set(doms)) == len(doms)


def is_initial(nb, t, state):
    cods = [nb.B.cod[f] for f in nb.out[t] if nb.B.cod[f] in state]
    return len(cods) == len(state) and len(set(cods)) == len(cods)


def recursive_collapse_search(B, effort, max_states=20000):
    """Search for a collapse of B onto a cone, removing one object at a
    time (two at higher effort); depth-first with memoized dead ends.

    A state's candidates are produced lazily, in this order: each object,
    in B's order, that has a reflection into the rest, else a
    coreflection; then, at effort 2 and up, each pair of objects that both
    reflect, else both coreflect, into the rest.  The first candidate whose
    state collapses wins, so the search visits the states, and spends
    ``max_states``, exactly as if every candidate had been listed first."""
    nb = _Neighbours(B)
    memo = {}
    visited = [0]

    def candidates(objs, state):
        for x in objs:
            hit = _reflection(nb, x, state, (x,))
            if hit:
                yield (x,), hit[0], "reflection"
                continue
            hit = _coreflection(nb, x, state, (x,))
            if hit:
                yield (x,), hit[0], "coreflection"
        if effort >= 2 and len(objs) > 2:
            for i, x in enumerate(objs):
                for y in objs[i + 1 :]:
                    rx = _reflection(nb, x, state, (x, y))
                    ry = rx and _reflection(nb, y, state, (x, y))
                    if ry:
                        yield (x, y), (rx[0], ry[0]), "reflection"
                        continue
                    cx = _coreflection(nb, x, state, (x, y))
                    cy = cx and _coreflection(nb, y, state, (x, y))
                    if cy:
                        yield (x, y), (cx[0], cy[0]), "coreflection"

    def dfs(state):
        if state in memo:
            return memo[state]
        visited[0] += 1
        if visited[0] > max_states:
            return None
        objs = [o for o in B.objects if o in state]
        for side, is_cone in (("final", is_final), ("initial", is_initial)):
            cone = next((t for t in objs if is_cone(nb, t, state)), None)
            if cone is not None:
                result = {"kind": "collapse", "steps": [], "cone": cone, "side": side}
                memo[state] = result
                return result
        if len(objs) <= 1:
            memo[state] = None
            return None
        for removed, via, direction in candidates(objs, state):
            result = dfs(state.difference(removed))
            if result is not None:
                step = {"removed": list(removed), "via": via, "direction": direction}
                result = {
                    "kind": "collapse",
                    "steps": [step] + result["steps"],
                    "cone": result["cone"],
                    "side": result["side"],
                }
                memo[state] = result
                return result
        memo[state] = None
        return None

    result = dfs(frozenset(B.objects))
    # dfs refers to itself; unbinding it frees the memo now, not at the
    # next cyclic garbage collection
    dfs = None
    return result


def replay_certificate(B, cert):
    """Re-verify a contractibility certificate independently."""
    if cert["kind"] == "vacuous":
        return True
    if cert["kind"] == "cone":
        pool = final_objects(B) if cert["side"] == "final" else initial_objects(B)
        return cert["object"] in pool
    if cert["kind"] != "collapse":
        return False
    nb = _Neighbours(B)
    state = set(B.objects)
    for step in cert["steps"]:
        removed = tuple(step["removed"])
        check = _reflection if step["direction"] == "reflection" else _coreflection
        for x in removed:
            if x not in state or check(nb, x, state, removed) is None:
                return False
        state.difference_update(removed)
    is_cone = is_final if cert["side"] == "final" else is_initial
    return cert["cone"] in state and is_cone(nb, cert["cone"], state)
