"""Truncated simplicial sets and finite presheaves.

A TruncSSet stores every simplex up to a truncation level, including the
degenerate ones, with a face and a degeneracy table per degree and index;
the simplicial identities are verified wherever both sides exist.
``simplicial_set`` is the one builder of those tables from per-simplex
face and degeneracy functions, and builds each table on its first read:
nerves, standard simplices and the homotopy-colimit diagonals are built
through it, so the fundamental group of a level-4 diagonal builds only
the tables of degree <= 2.  Homology is reported
only for degrees the truncation determines exactly, and the fundamental
group needs level >= 2 -- asking for more is an error, never a silently
wrong answer.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

from . import fincat
from .homalg import FGAb, normalized_complex
from .groups import GroupPresentation


class PresheafError(Exception):
    pass


class LevelTooLow(PresheafError):
    pass


class NotConnected(PresheafError):
    pass


class NaturalityViolation(PresheafError):
    pass


class TruncSSet:
    """Level-N truncated simplicial set.

    ``simplices[n]`` lists the degree-n simplices in canonical order;
    ``faces[(n, i)]`` and ``degeneracies[(n, i)]`` are total maps on them,
    kept as given: plain dicts from a workspace, or, from
    ``simplicial_set``, tables built on first read.  Simplex ids may be any
    hashable value.
    """

    __slots__ = ("level", "simplices", "faces", "degeneracies", "basepoint", "_degenerate")

    def __init__(self, level, simplices, faces, degeneracies, basepoint=None, _validate=True):
        self.level = level
        self.simplices = [list(xs) for xs in simplices]
        if level < 0 or len(self.simplices) != level + 1:
            raise PresheafError("need one simplex list per degree 0..N, N >= 0")
        self.faces = faces
        self.degeneracies = degeneracies
        self.basepoint = basepoint
        self._degenerate = {}
        if _validate:
            self._check()

    # -- structure ------------------------------------------------------

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degeneracy(self, n, i, x):
        return self.degeneracies[(n, i)][x]

    def degenerate_set(self, n):
        """Simplices of degree n in the image of some degeneracy into
        degree n."""
        deg = self._degenerate.get(n)
        if deg is None:
            deg = self._degenerate[n] = set()
            for i in range(n):
                deg.update(self.degeneracies[(n - 1, i)].values())
        return deg

    def nondegenerate(self, n):
        deg = self.degenerate_set(n)
        return [x for x in self.simplices[n] if x not in deg]

    def base_degeneracy(self, n):
        """The degree-n degeneracy of the basepoint (the basepoint itself
        in degree 0); the set is pointed, as ``PointedDiagram`` requires
        of its values."""
        x = self.basepoint
        for m in range(n):
            x = self.degeneracies[(m, 0)][x]
        return x

    def _check(self):
        N = self.level
        sets = [set(xs) for xs in self.simplices]
        if any(len(s) != len(xs) for s, xs in zip(sets, self.simplices)):
            raise PresheafError("duplicate simplex ids in one degree")
        if self.basepoint is not None and self.basepoint not in sets[0]:
            raise PresheafError("basepoint is not a vertex")
        # reading a table by its key builds it when it is built on first read
        for what, tables, degrees, step in (("face", self.faces, range(1, N + 1), -1),
                                            ("degeneracy", self.degeneracies, range(N), 1)):
            for n in degrees:
                for i in range(n + 1):
                    try:
                        table = tables[(n, i)]
                    except KeyError:
                        table = None
                    if table is None or set(table) != sets[n]:
                        raise PresheafError("%s (%d, %d) is not total" % (what, n, i))
                    if any(v not in sets[n + step] for v in table.values()):
                        raise PresheafError("%s (%d, %d) leaves the simplicial set" % (what, n, i))
        # simplicial identities, wherever both sides are defined
        for n in range(2, N + 1):
            for j in range(n + 1):
                for i in range(j):
                    for x in self.simplices[n]:
                        lhs = self.face(n - 1, i, self.face(n, j, x))
                        rhs = self.face(n - 1, j - 1, self.face(n, i, x))
                        if lhs != rhs:
                            raise PresheafError("d_i d_j identity fails at %r" % (x,))
        for n in range(N - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for x in self.simplices[n]:
                        lhs = self.degeneracy(n + 1, i, self.degeneracy(n, j, x))
                        rhs = self.degeneracy(n + 1, j + 1, self.degeneracy(n, i, x))
                        if lhs != rhs:
                            raise PresheafError("s_i s_j identity fails at %r" % (x,))
        for n in range(N):
            for j in range(n + 1):
                for i in range(n + 2):
                    for x in self.simplices[n]:
                        sx = self.degeneracy(n, j, x)
                        got = self.face(n + 1, i, sx)
                        if i in (j, j + 1):
                            want = x
                        elif i < j:
                            # i < j forces n >= 1
                            want = self.degeneracy(n - 1, j - 1, self.face(n, i, x))
                        else:
                            # i > j + 1 forces n >= 1
                            want = self.degeneracy(n - 1, j, self.face(n, i - 1, x))
                        if got != want:
                            raise PresheafError("d_i s_j identity fails at %r" % (x,))

    def __repr__(self):
        counts = ",".join(str(len(xs)) for xs in self.simplices)
        return "TruncSSet(level %d; %s)" % (self.level, counts)


class SSetMap:
    """Simplicial map between truncated simplicial sets of the same level:
    ``mapping[n]`` sends each degree-n simplex of the source to one of the
    target, kept as given."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping, pointed=False, _validate=True):
        self.source = source
        self.target = target
        self.mapping = mapping
        if _validate:
            self._check(pointed)

    def _check(self, pointed):
        X, Y = self.source, self.target
        if X.level != Y.level or len(self.mapping) != X.level + 1:
            raise PresheafError("level mismatch in simplicial map")
        for n in range(X.level + 1):
            ys = set(Y.simplices[n])
            for x in X.simplices[n]:
                if self.mapping[n].get(x) not in ys:
                    raise PresheafError("map not total in degree %d" % n)
        for n in range(1, X.level + 1):
            for i in range(n + 1):
                for x in X.simplices[n]:
                    if self.mapping[n - 1][X.face(n, i, x)] != Y.face(n, i, self.mapping[n][x]):
                        raise PresheafError("map does not commute with d_%d" % i)
        for n in range(X.level):
            for i in range(n + 1):
                for x in X.simplices[n]:
                    if self.mapping[n + 1][X.degeneracy(n, i, x)] != Y.degeneracy(
                        n, i, self.mapping[n][x]
                    ):
                        raise PresheafError("map does not commute with s_%d" % i)
        if pointed:
            if X.basepoint is None or Y.basepoint is None:
                raise PresheafError("pointed map between unpointed simplicial sets")
            if self.mapping[0][X.basepoint] != Y.basepoint:
                raise PresheafError("map does not preserve the basepoint")

    def compose(self, other):
        return SSetMap(
            other.source,
            self.target,
            [
                {x: self.mapping[n][other.mapping[n][x]] for x in other.source.simplices[n]}
                for n in range(other.source.level + 1)
            ],
            _validate=False,
        )

    def equals(self, other):
        """Pointwise equality on the source's simplices."""
        xs = self.source.simplices
        return ([self.mapping[n][x] for n in range(len(xs)) for x in xs[n]]
                == [other.mapping[n][x] for n in range(len(xs)) for x in xs[n]])

    @classmethod
    def identity(cls, X):
        return cls(X, X, [{x: x for x in X.simplices[n]} for n in range(X.level + 1)],
                   _validate=False)


class _Tables(dict):
    """Face or degeneracy tables of a simplicial set, each built on its
    first read: table (n, i), for n in ``degrees`` and 0 <= i <= n, maps
    each x of ``simplices[n]`` to ``fn(x, i)``.  Any other key is missing,
    as in a plain dict of the same tables."""

    __slots__ = ("fn", "simplices", "degrees")

    def __init__(self, fn, simplices, degrees):
        super().__init__()
        self.fn = fn
        self.simplices = simplices
        self.degrees = degrees

    def __missing__(self, key):
        n, i = key
        if n not in self.degrees or not 0 <= i <= n:
            raise KeyError(key)
        xs = self.simplices[n]
        table = self[key] = dict(zip(xs, map(self.fn, xs, itertools.repeat(i))))
        return table


def simplicial_set(N, simplices, face, degeneracy, basepoint=None):
    """Level-N truncated simplicial set with degree-n simplices
    ``simplices[n]``, d_i x = ``face(x, i)`` and s_i x =
    ``degeneracy(x, i)``, not checked: the one builder of face and
    degeneracy tables, each built on its first read."""
    X = TruncSSet(N, simplices, None, None, basepoint=basepoint, _validate=False)
    X.faces = _Tables(face, X.simplices, range(1, N + 1))
    X.degeneracies = _Tables(degeneracy, X.simplices, range(N))
    return X


def nerve(C, N, basepoint=None):
    """Nerve of a finite category, truncated at level N.

    Degree-n simplices are the chains ``(x0, f1, ..., fn)`` of
    ``fincat.composable_chains`` (identities allowed); nondegenerate chains
    contain no identity.  A basepoint object ``o`` is the vertex ``(o,)``.
    Chain faces and degeneracies satisfy the simplicial identities
    whenever C is a category, so the set is not checked again.
    """
    return simplicial_set(N, [fincat.composable_chains(C, n) for n in range(N + 1)],
                          functools.partial(fincat.chain_face, C),
                          functools.partial(fincat.chain_degeneracy, C),
                          None if basepoint is None else (basepoint,))


def standard_simplex(k, N, basepoint=None):
    """Delta[k] truncated at level N: degree-n simplices are nondecreasing
    (n+1)-tuples in {0..k}."""
    X = simplicial_set(
        N, [list(itertools.combinations_with_replacement(range(k + 1), n + 1)) for n in range(N + 1)],
        lambda t, i: t[:i] + t[i + 1 :],
        lambda t, i: t[: i + 1] + t[i:],
        None if basepoint is None else (basepoint,))
    X._check()
    return X


# -- D-sets ----------------------------------------------------------------


class DSet:
    """Finite presheaf of sets over a finite category.

    ``sets[a]`` lists X(a), each element once, and no two elements of
    one set with the same ``str`` form, which must be a term
    (``fincat._is_term``); ``maps[alpha]`` (for alpha: b -> a) sends X(a)
    to X(b); identity maps are synthesized; contravariant functoriality is
    checked exhaustively.
    """

    __slots__ = ("base", "sets", "maps", "name")

    def __init__(self, base, sets, maps, name=""):
        self.base = base
        self.sets = {o: list(v) for o, v in sets.items()}
        self.maps = {m: dict(v) for m, v in maps.items()}
        self.name = name
        for o in base.objects:
            if o not in self.sets:
                self.sets[o] = []
        for o in base.objects:
            self.maps[base.identity[o]] = {x: x for x in self.sets[o]}
        self._check()

    def _check(self):
        B = self.base
        for o in B.objects:
            if len(set(self.sets[o])) != len(self.sets[o]):
                raise PresheafError("presheaf set at %s repeats an element" % o)
            names = set()
            for name in map(str, self.sets[o]):
                if not fincat._is_term(name):
                    raise PresheafError("presheaf element %s at %s %s"
                                        % (name, o, fincat.NOT_A_TERM))
                if name in names:
                    raise PresheafError("presheaf set at %s has two elements written %s"
                                        % (o, name))
                names.add(name)
        for f in B.morphisms:
            table = self.maps.get(f)
            if table is None:
                raise PresheafError("presheaf misses the action of %s" % f)
            src = set(self.sets[B.cod[f]])
            dst = set(self.sets[B.dom[f]])
            if set(table) != src or any(v not in dst for v in table.values()):
                raise PresheafError("action of %s is not a map X(%s) -> X(%s)" % (f, B.cod[f], B.dom[f]))
        for g, f in B.composable_pairs():
            h = B.comp[(g, f)]
            for x in self.sets[B.cod[g]]:
                if self.maps[h][x] != self.maps[f][self.maps[g][x]]:
                    raise PresheafError("contravariance fails at (%s, %s)" % (g, f))

    def apply(self, alpha, x):
        return self.maps[alpha][x]

    def __repr__(self):
        return "DSet(%s over %s)" % (self.name or "?", self.base.name or "?")


class DSetMorphism:
    """Natural transformation of presheaves over the same base."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        if source.base != target.base:
            raise PresheafError("presheaf morphism needs a common base")
        self.source = source
        self.target = target
        self.components = {o: dict(c) for o, c in components.items()}
        self._check()

    def _check(self):
        B = self.source.base
        for o in B.objects:
            comp = self.components.get(o, {})
            if set(comp) != set(self.source.sets[o]):
                raise NaturalityViolation("component at %s is not total" % o)
            if any(v not in set(self.target.sets[o]) for v in comp.values()):
                raise NaturalityViolation("component at %s leaves the target" % o)
        for alpha in B.morphisms:
            a, b = B.cod[alpha], B.dom[alpha]
            for x in self.source.sets[a]:
                lhs = self.components[b][self.source.apply(alpha, x)]
                rhs = self.target.apply(alpha, self.components[a][x])
                if lhs != rhs:
                    raise NaturalityViolation("naturality fails at %s" % alpha)

    def at(self, o, x):
        return self.components[o][x]


def representable(D, d):
    """The presheaf h_d = Hom(-, d)."""
    sets = {a: list(D.hom(a, d)) for a in D.objects}
    maps = {}
    for beta in D.morphisms:
        a, b = D.cod[beta], D.dom[beta]
        maps[beta] = {alpha: D.comp[(alpha, beta)] for alpha in sets[a]}
    return DSet(D, sets, maps, name="h_%s" % d)


def constant_singleton(D):
    sets = {a: ["*"] for a in D.objects}
    maps = {m: {"*": "*"} for m in D.morphisms}
    return DSet(D, sets, maps, name="pt")


def empty_dset(D):
    return DSet(D, {a: [] for a in D.objects}, {m: {} for m in D.morphisms}, name="empty")


def dset_disjoint_union(X, Y, name=""):
    """X + Y, with the elements of X tagged "0." and those of Y "1."."""
    B = X.base
    sets = {o: ["0.%s" % x for x in X.sets[o]] + ["1.%s" % y for y in Y.sets[o]]
            for o in B.objects}
    maps = {}
    for m in B.morphisms:
        table = {}
        for x, v in X.maps[m].items():
            table["0.%s" % x] = "0.%s" % v
        for y, v in Y.maps[m].items():
            table["1.%s" % y] = "1.%s" % v
        maps[m] = table
    return DSet(B, sets, maps, name=name or "%s+%s" % (X.name, Y.name))


def element_parts(X):
    """The parts (d, x in X(d)) of the objects of the category of elements,
    in order, and the predicate on the base's arrows that picks its
    morphisms (d, x) -> (d', x'): alpha: d -> d' with X(alpha)(x') = x."""
    parts = [(d, x) for d in X.base.objects for x in X.sets[d]]
    return parts, lambda a, p1, p2: X.apply(a, p2[1]) == p1[1]


def elements_with_parts(X):
    """Category of elements of a presheaf (``element_parts``), its
    projection and the map object id -> (d, x)."""
    D = X.base
    parts, arrow = element_parts(X)
    out = fincat.category_over(D, fincat.objects_over(parts), arrow,
                               "el(%s)" % (X.name or "?"), "Q_X")
    out[0]._key = ("elements", D, X.sets, X.maps)
    return out


def inverse_fibre(f, d, y):
    """Pullback of a presheaf morphism against the representable at d,
    taken over the element y in Y(d), for an object d of the base;
    computed elementwise."""
    X, Y = f.source, f.target
    D = X.base
    sets = {}
    parts = {}
    for a in D.objects:
        items = []
        for x in X.sets[a]:
            for alpha in D.hom(a, d):
                if f.at(a, x) == Y.apply(alpha, y):
                    eid = "(%s|%s)" % (x, alpha)
                    items.append(eid)
                    parts[(a, eid)] = (x, alpha)
        sets[a] = items
    maps = {}
    for beta in D.morphisms:
        a, b = D.cod[beta], D.dom[beta]
        table = {}
        for eid in sets[a]:
            x, alpha = parts[(a, eid)]
            table[eid] = "(%s|%s)" % (X.apply(beta, x), D.comp[(alpha, beta)])
        maps[beta] = table
    return DSet(D, sets, maps, name="fibre(%s@%s)" % (y, d))


# -- invariants -------------------------------------------------------------


def normalized_chain_complex(X, n_max):
    """Normalized chains: free abelian on the nondegenerate simplices,
    indexed once per degree; a face landing on a degenerate simplex
    contributes zero.  d∘d = 0 by the simplicial identities, which a
    workspace set passes in ``TruncSSet._check`` and nerves and diagonals
    satisfy by construction, so it is not computed again."""
    if X.level < n_max + 1:
        raise LevelTooLow("need level >= %d, have %d" % (n_max + 1, X.level))
    basis = [X.nondegenerate(n) for n in range(n_max + 2)]
    faces = [[()] * len(basis[0])]
    for n in range(1, n_max + 2):
        index = {x: j for j, x in enumerate(basis[n - 1])}
        # a face table is built on its first read: an empty degree reads none
        tables = [X.faces[(n, i)] for i in range(n + 1)] if basis[n] else ()
        faces.append(list(zip(*[[index.get(d[x]) for x in basis[n]] for d in tables])))
    Z = FGAb.free(1)
    return normalized_complex([[Z] * len(layer) for layer in basis], faces, squares_vanish=True)


def homology_ss(X, n_max):
    """H_0..H_{n_max} of the normalized chain complex."""
    K = normalized_chain_complex(X, n_max)
    return [K.homology(n) for n in range(n_max + 1)]


def edge_path_group(X):
    """Edge-path presentation of the fundamental group of a pointed,
    connected simplicial set of level >= 2.

    Generators are the nondegenerate edges; a BFS spanning tree from the
    basepoint (lexicographic edge order) is killed, and every
    nondegenerate 2-simplex sigma imposes d_1(sigma) = d_0(sigma)·d_2(sigma),
    with degenerate edges read as the unit.
    """
    if X.level < 2:
        raise LevelTooLow("fundamental group needs level >= 2")
    if X.basepoint is None:
        raise PresheafError("fundamental group needs a basepoint")
    edges = X.nondegenerate(1)
    eidx = {e: i for i, e in enumerate(edges)}
    gens = ["g%d" % i for i in range(len(edges))]
    # BFS spanning tree from the basepoint, edges scanned in canonical order;
    # X is connected exactly when it reaches every vertex
    tree = set()
    reached = {X.basepoint}
    frontier = deque([X.basepoint])
    incident = {}
    for e in edges:
        incident.setdefault(X.face(1, 1, e), []).append(e)
        incident.setdefault(X.face(1, 0, e), []).append(e)
    while frontier:
        v = frontier.popleft()
        for e in incident.get(v, []):
            a, b = X.face(1, 1, e), X.face(1, 0, e)
            other = b if a == v else a
            if other not in reached:
                reached.add(other)
                tree.add(e)
                frontier.append(other)
    if len(reached) != len(X.simplices[0]):
        raise NotConnected("simplicial set is not connected")
    relators = [((gens[eidx[e]], 1),) for e in sorted(tree, key=eidx.get)]
    degen1 = X.degenerate_set(1)

    def gen_word(e, exp):
        if e in degen1:
            return ()
        return ((gens[eidx[e]], exp),)

    for s in X.nondegenerate(2):
        d0 = X.face(2, 0, s)
        d1 = X.face(2, 1, s)
        d2 = X.face(2, 2, s)
        rel = gen_word(d1, -1) + gen_word(d0, 1) + gen_word(d2, 1)
        if rel:
            relators.append(rel)
    return GroupPresentation(gens, relators)
