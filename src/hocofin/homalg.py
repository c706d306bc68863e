"""Exact integer linear algebra.

Smith normal form, finitely generated abelian groups in invariant-factor
form, and homology of bounded complexes of finitely presented abelian
groups.  All arithmetic runs on Python's arbitrary-precision integers;
nothing here is modular or floating point.

A relation lattice (``FGAb.relations``) and a map (``AbMap.columns``) are
stored as sparse columns: lists of {row: entry} dicts holding no zero
entry.  ``block_sum`` and ``block_map`` assemble direct sums and maps in
that form.  ``AbMap.matrix`` is a dense ``IntMatrix`` view, built on first
access for the callers that want a matrix.

``_column_invariants`` computes Smith invariants only, for ``FGAb`` and
for all homology: a complex with relations is first replaced by its
relation cone T, a free complex with the same homology
(``ChainComplex.homology``).  ``normalized_complex`` keeps its face table
(``_Cells``) and assembles nothing: ``ChainComplex._cone_rows`` writes the
rows of each cone boundary d_T,n, the columns of its transpose, straight
from the faces.  Each block's injective relation basis is computed once,
and each transport's relation lift K (rho_target K = A rho_source) once
per transport and pair of blocks; d_R is written from the same faces as
d_F, since rho d_R = d_F rho term by term.  A boundary AbMap is built
only when one is read.  Only the squares of actions that compose modulo
relations are solved in a lattice cell by cell.

Homology is read in cohomology order: the transpose of each cone
boundary d_T,n, the coboundary T_{n-1}* -> T_n*, is reduced in ascending
degree, without its columns at the basis elements of T_{n-1} that degree
n-1 used as +-1 pivot rows.  Those unit pivots (rows P, columns J) make
{delta e_j : j in J} and {e_k : k not in P} a basis of the cochains, and
delta delta = 0 kills the first part, so the Smith invariants stay those
of d_T,n ("clearing": Chen-Kerber 2011; de Silva-Morozov-Vejdemo-Johansson
2011).  Most columns that would reduce to zero never enter the
elimination, and a cleared row is not kept.

``smith_normal_form`` also computes the transforms U and V, for the small
relation components behind lattice membership (the cone, ``AbMap``
well-definedness).  The routes that the tests compare against (kernels,
lattice membership, homology lifted to the free covers, SNF checking, the
cone built from the boundary maps with each relation lifted on its own,
each cone boundary reduced uncleared) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from math import gcd
from operator import mul


class HomalgError(Exception):
    """Base class for errors raised by this module."""


class DegreeMissing(HomalgError):
    """Homology requested in a degree missing one of its neighbours."""


class IntMatrix:
    """Dense integer matrix, row-major.

    Entries are plain Python ints; decimal strings are accepted and
    converted, which is how matrices arrive from JSON.

    >>> IntMatrix([[1, "2"], [3, -4]]).mul_vec([1, 1])
    [3, -1]
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, shape=None):
        data = [list(map(int, row)) for row in entries]
        if shape is None:
            if not data:
                raise ValueError("shape is required for a matrix with no rows")
            shape = (len(data), len(data[0]))
        m, n = shape
        if len(data) != m or any(len(row) != n for row in data):
            raise ValueError("entries do not match shape %dx%d" % (m, n))
        self.rows = m
        self.cols = n
        self.entries = data

    @classmethod
    def from_sparse(cls, columns, rows):
        """The dense matrix with the given sparse columns ({row: entry} dicts)."""
        data = [[0] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                data[i][j] = x
        return cls(data, (rows, len(columns)))

    def column(self, j):
        return [row[j] for row in self.entries]

    def mul_vec(self, v):
        # products only where v is nonzero: rows x nnz(v) multiplications
        vals = [x for x in v if x]
        return [sum(map(mul, compress(row, v), vals)) for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "IntMatrix(%r)" % (self.entries,)


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V == D diagonal, d1 | d2 | ..., U, V unimodular.

    Pivot selection is deterministic: smallest nonzero absolute value,
    ties broken by row-major position.

    >>> U, D, V = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> [D.entries[i][i] for i in range(2)]
    [2, 4]
    """
    m, n = A.rows, A.cols
    D = [row[:] for row in A.entries]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src, mirrored on U
        if q:
            Dd, Ds = D[dst], D[src]
            for k in range(n):
                Dd[k] += q * Ds[k]
            Ud, Us = U[dst], U[src]
            for k in range(m):
                Ud[k] += q * Us[k]

    def add_col(dst, src, q):
        if q:
            for row in D:
                row[dst] += q * row[src]
            for row in V:
                row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    bound = min(m, n)
    while t < bound:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = D[i][j]
                if a and (best is None or abs(a) < best):
                    best, piv = abs(a), (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            if D[t][t] < 0:
                negate_row(t)
            p = D[t][t]
            dirty = False
            for i in range(t + 1, m):
                q = D[i][t] // p
                add_row(i, t, -q)
                if D[i][t]:
                    # nonzero remainder: strictly smaller pivot candidate
                    swap_rows(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, n):
                q = D[t][j] // p
                add_col(j, t, -q)
                if D[t][j]:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # the pivot must divide the remaining submatrix for d1 | d2 | ...
            bad_row = None
            for i in range(t + 1, m):
                if any(D[i][j] % p for j in range(t + 1, n)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            add_row(t, bad_row, 1)
        t += 1
    return (
        IntMatrix(U, (m, m)),
        IntMatrix(D, (m, n)),
        IntMatrix(V, (n, n)),
    )


def _sparse_columns(M):
    """Columns of M as {row: entry} dicts of their nonzero entries."""
    cols = [{} for _ in range(M.cols)]
    span = range(M.cols)
    for i, row in enumerate(M.entries):
        for j in compress(span, row):
            cols[j][i] = row[j]
    return cols


def _checked_columns(columns, rows):
    """Sparse columns as a list, refused unless each row index lies in
    range(rows) and no entry is zero (a stored zero would count as rank)."""
    cols = list(columns)
    for col in cols:
        if col and (not all(col.values()) or min(col) < 0 or max(col) >= rows):
            raise ValueError("sparse column %r has a zero or a row outside 0..%d" % (col, rows - 1))
    return cols


def _column_invariants(columns, pivots=None):
    """(rank, torsion) of the lattice spanned by a list of sparse columns
    (no zero entry; the list and its dicts are consumed): the number of
    nonzero Smith invariants and those above 1, d1 | d2 | ..., found
    without transforms.

    A +-1 entry is a pivot: its column clears its row from the others and
    both leave.  Short columns and sparse pivot rows go first, to keep
    fill-in low.  A column whose one entry is alone in its row is a cyclic
    summand.  The residue is diagonalized densely, and all is merged into
    invariant factors (Dumas-Heckenbach-Saunders-Welker 2003).  When
    ``pivots`` is a set, the rows used as +-1 pivots are added to it.
    """
    cols = columns
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            row = rows.get(i)
            if row is None:
                rows[i] = {j}
            else:
                row.add(j)
    rank = 0
    orders = []
    heap = [(len(c), j) for j, c in enumerate(cols) if c]
    heapify(heap)
    while heap:
        size, j = heappop(heap)
        col = cols[j]
        if col is None or len(col) != size:
            continue  # eliminated, or queued again since this entry
        pivot = None
        for i, a in col.items():
            if (a == 1 or a == -1) and (pivot is None or len(rows[i]) < len(rows[pivot])):
                pivot = i
        if pivot is None:
            if size == 1 and len(rows[i]) == 1:
                # i, a: the column's one entry, alone in its row
                orders.append(abs(a))
                rank += 1
                del rows[i]
                cols[j] = None
            continue
        a = col.pop(pivot)
        if pivots is not None:
            pivots.add(pivot)
        for i in col:
            rows[i].discard(j)
        for k in rows.pop(pivot):
            if k == j:
                continue
            other = cols[k]
            f = other.pop(pivot) * a
            for i, x in col.items():
                y = other.get(i, 0) - f * x
                if not y:
                    del other[i]
                    rows[i].discard(k)
                    continue
                if i not in other:
                    rows[i].add(k)
                other[i] = y
            if other:
                heappush(heap, (len(other), k))
        cols[j] = None
        rank += 1
    residue = [c for c in cols if c]
    row_ids = sorted({i for c in residue for i in c})
    diagonal = _dense_diagonal([[c.get(i, 0) for i in row_ids] for c in residue])
    torsion = []
    for d in sorted(orders + diagonal):
        _merge_cyclic(torsion, d)
    return rank + len(diagonal), tuple(torsion)


def _dense_diagonal(D):
    """Nonzero diagonal of a diagonal form of D (a list of rows, consumed)
    reached by unimodular row and column operations."""
    diagonal = []
    while True:
        best = None
        for i, row in enumerate(D):
            m = min(map(abs, filter(None, row)), default=0)
            if m and (best is None or m < best[0]):
                best = (m, i)
        if best is None:
            return diagonal
        pi = best[1]
        prow = D[pi]
        pj = list(map(abs, prow)).index(best[0])
        p = prow[pj]
        done = True
        for i, row in enumerate(D):
            if row is not prow and row[pj]:
                q = row[pj] // p
                D[i] = row = [y - q * x for x, y in zip(prow, row)]
                done = done and not row[pj]
        for j, x in enumerate(prow):
            if j != pj and x:
                q = x // p
                for row in D:
                    row[j] -= q * row[pj]
                done = done and not prow[j]
        if done:
            diagonal.append(abs(p))
            del D[pi]
            for row in D:
                del row[pj]


def _merge_cyclic(chain, d):
    """Add Z/d to the invariant factors ``chain`` (d1 | d2 | ..., all > 1),
    using Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b)."""
    i = len(chain)
    while i and d > 1:
        c = chain[i - 1]
        if d % c == 0:
            break
        g = gcd(c, d)
        chain[i - 1] = c // g * d
        d = g
        i -= 1
    if d > 1:
        chain.insert(i, d)


class FGAb:
    """Finitely generated abelian group presented by a generator count and
    relations.

    ``relations`` is the stored form: the relation columns as sparse
    {generator: entry} dicts.  A dense IntMatrix with one row per
    generator may be given instead, as JSON readers and fixtures do.  The
    canonical form (free rank plus invariant factors d1 | d2 | ...) is
    computed once from the sparse columns; equality and hashing use it.

    >>> print(FGAb(2, IntMatrix([[2, 0], [0, 3]])))
    Z/6
    >>> print(FGAb(3, [{0: 2}]))
    Z^2 (+) Z/2
    """

    __slots__ = ("gens", "relations", "free_rank", "torsion")

    def __init__(self, gens, rels=None):
        gens = int(gens)
        if rels is None:
            rels = ()
        if isinstance(rels, IntMatrix):
            rels = _sparse_columns(rels)
        rels = _checked_columns(rels, gens)
        self.gens = gens
        self.relations = rels
        rank, self.torsion = _column_invariants(list(map(dict, rels)))
        self.free_rank = gens - rank

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def trivial(cls):
        return cls(0)

    @classmethod
    def cyclic(cls, d):
        if d == 0:
            return cls(1)
        return cls(1, [{0: d}])

    @classmethod
    def from_invariants(cls, free_rank, torsion=()):
        ds = list(torsion)
        return cls(free_rank + len(ds), [{free_rank + j: d} for j, d in enumerate(ds)])

    def invariants(self):
        return (self.free_rank, self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __eq__(self, other):
        if not isinstance(other, FGAb):
            return NotImplemented
        return self.invariants() == other.invariants()

    def __hash__(self):
        return hash(self.invariants())

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __repr__(self):
        return "FGAb<%s>" % self


class AbMap:
    """Homomorphism of finitely presented abelian groups, given on
    generators, that must carry source relations into the target lattice.

    ``columns`` is the stored form: one sparse {target generator: entry}
    dict per source generator.  ``matrix`` is the dense IntMatrix view,
    built on first access; a dense matrix, target generators by source
    generators, may also be given.
    """

    __slots__ = ("source", "target", "columns", "_matrix")

    def __init__(self, source, target, matrix, check=True):
        if isinstance(matrix, IntMatrix):
            self._matrix = matrix
            matrix = _sparse_columns(matrix)
        else:
            self._matrix = None
        columns = _checked_columns(matrix, target.gens)
        if len(columns) != source.gens:
            raise ValueError("matrix shape does not fit source/target generators")
        self.source = source
        self.target = target
        self.columns = columns
        if check and not self._well_defined():
            raise HomalgError("matrix does not respect the source relations")

    @property
    def matrix(self):
        """The map as a dense IntMatrix (a view, built once)."""
        if self._matrix is None:
            self._matrix = IntMatrix.from_sparse(self.columns, self.target.gens)
        return self._matrix

    def _well_defined(self):
        image = [_push(col, self.columns) for col in self.source.relations]
        return _columns_in_lattice(image, self.target)

    @classmethod
    def identity(cls, group):
        return cls(group, group, [{j: 1} for j in range(group.gens)], check=False)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [{} for _ in range(source.gens)], check=False)

    def compose(self, other):
        """self after other."""
        columns = [_push(col, self.columns) for col in other.columns]
        return AbMap(other.source, self.target, columns, check=False)

    def equals(self, other):
        """Equality modulo the target relation lattice."""
        diff = []
        for a, b in zip(self.columns, other.columns):
            col = dict(a)
            for i, x in b.items():
                col[i] = col.get(i, 0) - x
            diff.append(col)
        return _columns_in_lattice(diff, self.target)


def _columns_in_lattice(columns, group):
    """True when every sparse column lies in the relation lattice of group."""
    cols = [c for c in columns if any(c.values())]
    if not cols:
        return True
    return _Relations(group.relations, {}).lift(cols) is not None


def _push(col, columns):
    """The sparse vector sum of x * columns[k] over the entries k: x of col,
    without the entries that cancel to zero."""
    acc = {}
    for k, x in col.items():
        for i, y in columns[k].items():
            acc[i] = acc.get(i, 0) + x * y
    return {i: y for i, y in acc.items() if y}


class _Relations:
    """The relation lattice of a presentation coker(rho: R -> F), with rho
    injective.

    Relation columns fall into row-connected components.  Each component A
    is replaced by a lattice basis, the nonzero columns of A*V from one
    small Smith normal form U*A*V = D, memoized by its entries in
    ``bases``; ``columns`` lists the basis as sparse columns of F.  A
    vector is solved for one component at a time through U.
    """

    __slots__ = ("columns", "_where", "_parts")

    def __init__(self, relations, bases):
        cols = [c for c in relations if c]
        root = {}

        def find(i):
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for col in cols:
            first = None
            for i in col:
                r = find(root.setdefault(i, i))
                if first is None:
                    first = r
                elif r != first:
                    root[r] = first
        parts = {}
        for col in cols:
            parts.setdefault(find(next(iter(col))), []).append(col)
        self.columns = []
        self._where = {}
        self._parts = []
        for part in parts.values():
            rows = sorted({i for col in part for i in col})
            A = tuple(tuple(col.get(i, 0) for col in part) for i in rows)
            basis = bases.get(A)
            if basis is None:
                basis = bases[A] = _component_basis(A)
            U, diag, local = basis
            p = len(self._parts)
            self._parts.append((len(self.columns), U, diag))
            for li, i in enumerate(rows):
                self._where[i] = (p, li)
            self.columns.extend({rows[li]: x for li, x in b.items()} for b in local)

    def solve(self, v):
        """Coordinates {basis index: coefficient} of the sparse vector v in
        the lattice, or None when v is outside it."""
        by_part = {}
        for i, x in v.items():
            if x:
                at = self._where.get(i)
                if at is None:
                    return None
                by_part.setdefault(at[0], {})[at[1]] = x
        out = {}
        for p, w in by_part.items():
            offset, U, diag = self._parts[p]
            for k, row in enumerate(U):
                y = sum(row[li] * x for li, x in w.items())
                if k < len(diag):
                    q, rem = divmod(y, diag[k])
                    if rem:
                        return None
                    if q:
                        out[offset + k] = q
                elif y:
                    return None
        return out

    def lift(self, columns):
        """The coordinates (``solve``) of each sparse column, or None when
        one of them is outside the lattice."""
        coords = []
        for v in columns:
            x = self.solve(v)
            if x is None:
                return None
            coords.append(x)
        return coords


def _component_basis(A):
    """(U, nonzero invariants, basis) of the dense component A (a tuple of
    rows): U*A*V = D, and the basis columns A*V[:, j] as sparse dicts."""
    M = IntMatrix(A, (len(A), len(A[0])))
    U, D, V = smith_normal_form(M)
    diag = [d for d in (D.entries[i][i] for i in range(min(M.rows, M.cols))) if d]
    basis = []
    for j in range(len(diag)):
        col = M.mul_vec(V.column(j))
        basis.append({i: x for i, x in enumerate(col) if x})
    return U.entries, diag, basis


class ChainComplex:
    """Bounded complex of finitely presented abelian groups.

    ``groups[n]`` for lo <= n <= hi, ``boundaries[n]: C_n -> C_{n-1}`` for
    lo < n <= hi.  ``boundaries`` is a dict of AbMaps, or the ``_Cells``
    that ``normalized_complex`` builds, which gives each C_n as a direct
    sum of blocks with faces between them and reads each AbMap on first
    access.  A dict becomes cells of one block per degree, whose one face
    is the boundary.  Construction checks that consecutive boundaries
    compose to zero modulo the relation lattice of the target: the
    product is taken on sparse columns, and only a nonzero one is solved
    in the lattice, column by column; its coordinates are kept for the
    relation cone (see ``homology``).  With ``squares_vanish`` the builder
    has proven that every product is zero on the free covers, and none is
    taken.
    """

    def __init__(self, groups, boundaries, squares_vanish=False):
        degrees = sorted(groups)
        if not degrees:
            raise ValueError("empty complex")
        lo, hi = degrees[0], degrees[-1]
        if degrees != list(range(lo, hi + 1)):
            raise ValueError("degrees must be contiguous")
        self.lo, self.hi = lo, hi
        self.groups = dict(groups)
        if isinstance(boundaries, _Cells):
            self._cells = boundaries
        else:
            boundaries = dict(boundaries)
            for n in range(lo + 1, hi + 1):
                if n not in boundaries:
                    raise ValueError("missing boundary in degree %d" % n)
                d = boundaries[n]
                if d.source.gens != self.groups[n].gens or d.target.gens != self.groups[n - 1].gens:
                    raise ValueError("boundary shape mismatch in degree %d" % n)
            self._cells = _Cells.whole(self.groups, boundaries)
        self.boundaries = boundaries
        self._invariants = {}
        self._pivots = set()  # the +-1 pivot rows of the highest degree reduced
        self._block_bases = {}  # id(block) -> _Relations of the block
        self._starts = {}
        self._lifts = {}
        self._bases = {}
        self._squares = {}
        if squares_vanish:
            return
        below = None
        for n in range(lo + 1, hi + 1):
            here = self._cells.face_columns(n)
            products = [_push(col, below) for col in here] if below is not None else ()
            below = here
            if not any(products):
                continue
            # the relation lattice R_{n-2} of the whole of C_{n-2}: the
            # blocks' bases in block order, shifted, since a row-connected
            # component of relations lies inside one block
            relations = self._block_relations(self.groups[n - 2])
            squares = [relations.solve(acc) for acc in products]
            if None in squares:
                raise HomalgError("boundary squared is nonzero in degree %d" % n)
            self._squares[n] = squares

    def homology(self, n):
        """H_n = ker d_n / im d_{n+1}, in canonical invariant-factor form.

        Write C_k = coker(rho_k: R_k -> F_k) with rho_k injective (see
        ``_Relations``).  The relation cone T_k = F_k (+) R_{k-1}, with
        d_T(f, r) = (d_F f + rho r, -d_R r - k f), where rho d_R = d_F rho
        and rho k = d_F d_F, is a free complex mapping onto C with acyclic
        kernel, so H_n(C) = H_n(T): Z^(rank T_n - rk d_T,n - rk d_T,n+1)
        plus the torsion of coker d_T,n+1.  On a free complex T is C
        itself.  The ranks and torsion are the Smith invariants of the cone
        boundaries, each reduced once per complex, transposed and in
        ascending degree, without the columns the degree below already
        paired (``_cone_invariants``).  So H_n reduces every cone boundary
        of degree <= n+1, and a boundary d_k that does not carry R_k into
        R_{k-1}, for some k <= n, raises HomalgError.
        """
        if n - 1 < self.lo or n + 1 > self.hi:
            raise DegreeMissing("homology in degree %d needs degrees %d..%d" % (n, n - 1, n + 1))
        rank_here = self._cone_invariants(n)[0]
        rank_up, torsion = self._cone_invariants(n + 1)
        size = self.groups[n].gens + self._relation_starts(n - 1)[1]
        return FGAb.from_invariants(size - rank_here - rank_up, torsion)

    def _block_relations(self, block):
        """The injective relation lattice of one block, built once per block
        (keyed by identity: every block is held by the complex)."""
        rel = self._block_bases.get(id(block))
        if rel is None:
            rel = self._block_bases[id(block)] = _Relations(block.relations, self._bases)
        return rel

    def _relation_starts(self, n):
        """(the index in R_n of each cell's first relation, the rank of R_n)."""
        got = self._starts.get(n)
        if got is None:
            starts, total = [], 0
            for block in self._cells.blocks.get(n, ()):
                starts.append(total)
                total += len(self._block_relations(block).columns)
            got = self._starts[n] = (starts, total)
        return got

    def _lift(self, move, source, target, n):
        """K with rho_target K = A rho_source, A the transport columns
        ``move`` of a face from a block of degree n (None: the identity on
        generators), as coordinate dicts, one per relation of the source;
        None when K is the identity.  Solved once per transport and pair of
        blocks."""
        key = (id(move), id(source), id(target))
        if key in self._lifts:
            return self._lifts[key]
        if move is None and source.relations == target.relations:
            lift = None
        else:
            rho = self._block_relations(source).columns
            lift = self._block_relations(target).lift(
                rho if move is None else [_push(col, move) for col in rho])
            if lift is None:
                raise HomalgError("boundary does not respect the relations in degree %d" % n)
        self._lifts[key] = lift
        return lift

    def _cone_invariants(self, n):
        """(rank, torsion) of d_T,n, read from its transpose, the coboundary
        T_{n-1}* -> T_n*, without the columns at the rows of T_{n-1} that
        degree n-1 used as +-1 pivots (clearing: see the module docstring
        for why this keeps the Smith invariants).  Every degree below n is
        reduced first, once per complex.
        """
        for k in range(max(self._invariants, default=self.lo) + 1, n + 1):
            pivots = set()
            self._invariants[k] = _column_invariants(self._cone_rows(k), pivots)
            self._pivots = pivots
        return self._invariants[n]

    def _cone_rows(self, n):
        """The rows of d_T: T_n -> T_{n-1}, the columns of its transpose:
        sparse {column: entry} dicts, one per basis element of T_{n-1} =
        F_{n-1} (+) R_{n-2} outside ``_pivots``, with their keys ascending.
        The columns are F_n's generators, then R_{n-1}'s basis.  The d_R
        entries are written cell by cell from the faces' lifts (``_lift``,
        each solved once per transport and pair of blocks)."""
        cells = self._cells
        off = self.groups[n - 1].gens
        rows = [{} for _ in range(off + self._relation_starts(n - 2)[1])]
        # a cleared row is written to a scratch dict and left out
        scratch = {}
        for i in self._pivots:
            rows[i] = scratch
        cells.write_rows(n, rows)
        for c, k in enumerate(self._squares.get(n, ())):
            for r, x in k.items():
                rows[off + r][c] = -x
        c = self.groups[n].gens
        below = self._relation_starts(n - 2)[0]
        m = n - 1
        faces = cells.faces.get(m, ())
        signs = _signs(faces)
        blocks_below = cells.blocks.get(m - 1)
        for block, g0, fs, move in zip(cells.blocks.get(m, ()), cells.offsets.get(m, ()),
                                       faces or repeat(()), cells.moves.get(m) or repeat({})):
            rho = self._block_relations(block).columns
            if not rho:
                continue
            lifts = []
            for i, (t, sign) in enumerate(zip(fs, signs)):
                if t is not None:
                    # an identity transport within one block, the common
                    # case, lifts to the identity without a memo lookup
                    A, target = move.get(i), blocks_below[t]
                    lifts.append((off + below[t], sign, None if A is None and target is block
                                  else self._lift(A, block, target, m)))
            for li, col in enumerate(rho):
                for r, x in col.items():
                    rows[g0 + r][c] = x
                acc = {}
                for r0, sign, lift in lifts:
                    if lift is None:
                        acc[r0 + li] = acc.get(r0 + li, 0) - sign
                        continue
                    for r, y in lift[li].items():
                        acc[r0 + r] = acc.get(r0 + r, 0) - sign * y
                for r, y in acc.items():
                    if y:
                        rows[r][c] = y
                c += 1
        return [row for row in rows if row is not scratch]


class _Cells(Mapping):
    """A complex's boundaries, cell by cell: C_n is the direct sum of the
    groups ``blocks[n]``, one per cell, cell j starting at generator
    ``offsets[n][j]``.  ``faces[n][j]`` gives the faces of cell j as
    indices of cells of degree n-1, None for a face that contributes
    zero.  Face i adds (-1)^i times a map from block j to the block of the
    face: the sparse columns ``moves[n][j][i]`` when that dict holds i,
    else the identity on generators (``moves[n]`` None: every face).

    As a mapping, degree n -> the AbMap d_n, assembled on first access.
    """

    def __init__(self, groups, blocks, offsets, faces, moves):
        self.groups = groups
        self.blocks = blocks
        self.offsets = offsets
        self.faces = faces
        self.moves = moves
        self._maps = {}

    @classmethod
    def whole(cls, groups, boundaries):
        """One cell per degree, its group, whose one face is the boundary."""
        degrees = range(min(groups) + 1, max(groups) + 1)
        return cls(groups, {n: [G] for n, G in groups.items()}, dict.fromkeys(groups, [0]),
                   dict.fromkeys(degrees, [(0,)]),
                   {n: [{0: boundaries[n].columns}] for n in degrees})

    def __getitem__(self, n):
        d = self._maps.get(n)
        if d is None:
            if n not in self.faces:
                raise KeyError(n)
            d = self._maps[n] = AbMap(self.groups[n], self.groups[n - 1], self.face_columns(n),
                                      check=False)
        return d

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def face_columns(self, n):
        """The sparse columns of d_n on the free covers, one per generator
        of C_n, with no zero entry."""
        rows = [{} for _ in range(self.groups[n - 1].gens)]
        self.write_rows(n, rows)
        columns = [{} for _ in range(self.groups[n].gens)]
        for r, row in enumerate(rows):
            for c, x in row.items():
                columns[c][r] = x
        return columns

    def write_rows(self, n, rows):
        """Write d_n transposed into ``rows``, one {generator of C_n: entry}
        dict per generator of C_{n-1}: keys ascending, no zero kept."""
        below = self.offsets[n - 1]
        signs = _signs(self.faces[n])
        c = 0
        for block, fs, move in zip(self.blocks[n], self.faces[n], self.moves[n] or repeat({})):
            if block.gens == 1 and not move:
                # the common case: one generator, every face the identity
                for t, sign in zip(fs, signs):
                    if t is not None:
                        row = rows[below[t]]
                        x = row.get(c, 0) + sign
                        if x:
                            row[c] = x
                        else:
                            del row[c]
                c += 1
                continue
            cols = [{} for _ in range(block.gens)]
            for i, (t, sign) in enumerate(zip(fs, signs)):
                if t is None:
                    continue
                r0 = below[t]
                coeff = move.get(i)
                if coeff is None:
                    for r, col in enumerate(cols, r0):
                        col[r] = col.get(r, 0) + sign
                    continue
                for col, image in zip(cols, coeff):
                    for r, x in image.items():
                        r += r0
                        col[r] = col.get(r, 0) + sign * x
            for col in cols:
                for r, x in col.items():
                    if x:
                        rows[r][c] = x
                c += 1


# -- block assembly ------------------------------------------------------------


def block_sum(blocks):
    """Direct sum of a list of groups, with the generator offset of each block.

    The relation columns of the blocks are shifted by their offsets into
    sparse columns of the sum; no dense matrix is built.  The invariants
    of a direct sum are its blocks' merged, so the sum is not reduced
    again.

    >>> G, offsets = block_sum([FGAb.cyclic(2), FGAb.free(2), FGAb.cyclic(3)])
    >>> print(G, offsets)
    Z^2 (+) Z/6 [0, 1, 3]
    """
    offsets = []
    relations = []
    total = free_rank = 0
    for b in blocks:
        offsets.append(total)
        for col in b.relations:
            relations.append({total + i: x for i, x in col.items()})
        total += b.gens
        free_rank += b.free_rank
    torsion = []
    for d in sorted(d for b in blocks for d in b.torsion):
        _merge_cyclic(torsion, d)
    G = FGAb.__new__(FGAb)
    G.gens, G.relations, G.free_rank, G.torsion = total, relations, free_rank, tuple(torsion)
    return G, offsets


def block_map(source, target, entries):
    """AbMap source -> target assembled from blocks, as sparse columns.

    Each entry (row offset, column offset, sign, coeff) adds sign * coeff at
    that place; coeff is a list of sparse columns (``AbMap.columns``), or
    an int k for the k x k identity.  Entries landing on the same place add
    up, and an entry that cancels to zero is deleted.  No dense matrix is
    built.  The map is not checked against the source relations: callers
    validate what they assemble.
    """
    columns = [{} for _ in range(source.gens)]
    for r0, c0, sign, coeff in entries:
        if isinstance(coeff, int):
            for r in range(coeff):
                out = columns[c0 + r]
                out[r0 + r] = out.get(r0 + r, 0) + sign
            continue
        for c, col in enumerate(coeff, c0):
            out = columns[c]
            for r, x in col.items():
                out[r0 + r] = out.get(r0 + r, 0) + sign * x
    for c, out in enumerate(columns):
        if not all(out.values()):
            columns[c] = {i: x for i, x in out.items() if x}
    return AbMap(source, target, columns, check=False)


def _signs(faces):
    """(-1)^i for each face position i of the longest face tuple."""
    return [(-1) ** i for i in range(max(map(len, faces), default=0))]


def normalized_complex(blocks, faces, transport=None, squares_vanish=False):
    """Chain complex with C_n the direct sum of the groups ``blocks[n]``,
    for 0 <= n < len(blocks), and C_{-1} = 0.

    ``faces[n][j]`` gives the faces d_0, ..., d_n of basis element j of
    degree n as indices into degree n-1, None for a degenerate face, which
    contributes zero.  Face i adds (-1)^i times a map from block j to the
    block of the face: the identity on generators, or the map with sparse
    columns ``transport[n][j][i]`` when that dict holds i.  Nothing is
    assembled here: ``ChainComplex`` writes each relation-cone boundary
    from the faces when it reduces it (``_Cells``), and builds a boundary
    AbMap only when one is read.  ``squares_vanish`` goes to
    ``ChainComplex``: the caller has proven d∘d = 0 on the free covers.
    """
    groups = {-1: FGAb.trivial()}
    offsets = {-1: []}
    for n, layer in enumerate(blocks):
        groups[n], offsets[n] = block_sum(layer)
    cells = _Cells(groups, {-1: [], **dict(enumerate(blocks))}, offsets, dict(enumerate(faces)),
                   {n: transport[n] if transport else None for n in range(len(blocks))})
    return ChainComplex(groups, cells, squares_vanish=squares_vanish)
