"""Finite groups, free products, presentations, and fingerprints.

Isomorphism of finitely presented groups is undecidable, so comparisons
go through an isomorphism-invariant *fingerprint*: the vector of
homomorphism counts into every group of order <= 8 (14 isomorphism
classes).  Equal fingerprints are reported as "indistinguishable", never
as "isomorphic".
"""

from __future__ import annotations

import itertools


class GroupError(Exception):
    pass


class UnknownLabel(GroupError):
    pass


class BudgetExceeded(GroupError):
    pass


HOM_COUNT_BUDGET = 10 ** 7
TIETZE_BUDGET = 10 ** 5
FREE_PRODUCT_CAP = 10 ** 5


class FinGroup:
    """Finite group given by a full multiplication table.

    ``table[(a, b)]`` is the product a*b; the group axioms are verified
    exhaustively at construction.
    """

    __slots__ = ("elements", "unit", "table", "inv", "name", "_indexed", "_orbits")

    def __init__(self, elements, unit, table, name=""):
        self.elements = list(elements)
        self.unit = unit
        self.table = dict(table)
        self.name = name
        self._indexed = None
        self._orbits = None
        if unit not in self.elements:
            raise GroupError("unit is not an element")
        eset = set(self.elements)
        if len(eset) != len(self.elements):
            raise GroupError("duplicate elements")
        for a in self.elements:
            for b in self.elements:
                c = self.table.get((a, b))
                if c not in eset:
                    raise GroupError("table is not closed at (%s, %s)" % (a, b))
        for a in self.elements:
            if self.table[(self.unit, a)] != a or self.table[(a, self.unit)] != a:
                raise GroupError("unit law fails at %s" % a)
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise GroupError("associativity fails at (%s, %s, %s)" % (a, b, c))
        self.inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] == self.unit:
                    self.inv[a] = b
            if a not in self.inv:
                raise GroupError("no inverse for %s" % a)

    def indexed(self):
        """The group on indices 0..n-1 in element order, built once:
        ``(rows, inverses, unit)`` where ``rows[i][j]`` is the index of the
        product of elements i and j."""
        if self._indexed is None:
            idx = {a: i for i, a in enumerate(self.elements)}
            rows = tuple(
                tuple(idx[self.table[(a, b)]] for b in self.elements) for a in self.elements
            )
            inverses = tuple(idx[self.inv[a]] for a in self.elements)
            self._indexed = (rows, inverses, idx[self.unit])
        return self._indexed

    def orbits(self):
        """The orbits of Aut(G) on the indices of ``indexed()``, each a
        sorted tuple, in order of their least index; built once.

        An automorphism is fixed by its images of a generating set, so
        each choice of images of the same orders is carried along the
        generators from the unit, and kept when it is a well-defined
        bijection: the images of x and x*g are then related as they must
        be for every x and every generator g, which makes it a
        homomorphism."""
        if self._orbits is None:
            rows, _, unit = self.indexed()
            n = len(rows)
            # a generating set, and each element reached as (parent, generator slot)
            gens, tree, reached = [], {unit: None}, [unit]
            for a in range(n):
                if a not in tree:
                    gens.append(a)
                    for x in reached:  # the list grows while it is read
                        for i, g in enumerate(gens):
                            y = rows[x][g]
                            if y not in tree:
                                tree[y] = (x, i)
                                reached.append(y)
            order = []
            for a in range(n):
                k, acc = 1, a
                while acc != unit:
                    k, acc = k + 1, rows[acc][a]
                order.append(k)
            autos = []
            for images in itertools.product(
                    *([b for b in range(n) if order[b] == order[g]] for g in gens)):
                phi = [unit] * n
                for x, edge in tree.items():
                    if edge is not None:
                        phi[x] = rows[phi[edge[0]]][images[edge[1]]]
                if len(set(phi)) == n and all(phi[rows[x][g]] == rows[phi[x]][b]
                                              for x in range(n) for g, b in zip(gens, images)):
                    autos.append(phi)
            orbits, seen = [], set()
            for a in range(n):
                if a not in seen:
                    orbit = tuple(sorted({phi[a] for phi in autos}))
                    seen.update(orbit)
                    orbits.append(orbit)
            self._orbits = tuple(orbits)
        return self._orbits

    def order(self):
        return len(self.elements)

    def is_abelian(self):
        return all(
            self.table[(a, b)] == self.table[(b, a)]
            for a in self.elements
            for b in self.elements
        )

    def __repr__(self):
        return "FinGroup(%s, order %d)" % (self.name or "?", len(self.elements))


def cyclic_group(n, name=None):
    els = [str(i) for i in range(n)]
    table = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return FinGroup(els, "0", table, name=name or "Z%d" % n)


def trivial_group():
    return cyclic_group(1, name="1")


def product_group(G, H, name=""):
    els = ["%s,%s" % (a, b) for a in G.elements for b in H.elements]
    table = {}
    for a1 in G.elements:
        for b1 in H.elements:
            for a2 in G.elements:
                for b2 in H.elements:
                    table[("%s,%s" % (a1, b1), "%s,%s" % (a2, b2))] = "%s,%s" % (
                        G.table[(a1, a2)],
                        H.table[(b1, b2)],
                    )
    return FinGroup(els, "%s,%s" % (G.unit, H.unit), table, name=name or "%sx%s" % (G.name, H.name))


def symmetric_group_3():
    perms = list(itertools.permutations((0, 1, 2)))

    def pname(p):
        return "".join(map(str, p))

    table = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(3))  # apply q first, then p
            table[(pname(p), pname(q))] = pname(pq)
    return FinGroup([pname(p) for p in perms], "012", table, name="S3")


def dihedral_group_4():
    # symmetries of the square: r^i s^j with s r s = r^-1
    els = ["r%ds%d" % (i, j) for j in range(2) for i in range(4)]

    def mul(x, y):
        i1, j1 = int(x[1]), int(x[3])
        i2, j2 = int(y[1]), int(y[3])
        # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + i2*(-1)^j1) s^(j1+j2)
        i = (i1 + (i2 if j1 == 0 else -i2)) % 4
        return "r%ds%d" % (i, (j1 + j2) % 2)

    table = {(x, y): mul(x, y) for x in els for y in els}
    return FinGroup(els, "r0s0", table, name="D4")


def quaternion_group():
    els = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1 if x.startswith("-") else 1, x.lstrip("-"))

    def mul(x, y):
        sx, cx = split(x)
        sy, cy = split(y)
        s = sx * sy
        if cx == "1":
            s, c = s, cy
        elif cy == "1":
            s, c = s, cx
        else:
            sz, cz = split(base[(cx, cy)])
            s, c = s * sz, cz
        return ("-" if s < 0 else "") + c

    table = {(x, y): mul(x, y) for x in els for y in els}
    return FinGroup(els, "1", table, name="Q8")


_CATALOG = None


def catalog():
    """The 14 isomorphism classes of groups of order <= 8, in a fixed order.

    Order 8 has exactly five classes (three abelian, plus the dihedral and
    quaternion groups); lower orders are cyclic except for V4 and S3.
    """
    global _CATALOG
    if _CATALOG is None:
        z2 = cyclic_group(2)
        z4 = cyclic_group(4)
        _CATALOG = [
            trivial_group(),
            z2,
            cyclic_group(3),
            z4,
            product_group(z2, z2, name="V4"),
            cyclic_group(5),
            cyclic_group(6),
            symmetric_group_3(),
            cyclic_group(7),
            cyclic_group(8),
            product_group(z4, z2, name="Z4xZ2"),
            product_group(product_group(z2, z2), z2, name="Z2^3"),
            dihedral_group_4(),
            quaternion_group(),
        ]
    return _CATALOG


# -- free products ---------------------------------------------------------


def word_key(word):
    """The name of a reduced word as an element of a table group: its
    letters as ``label.element`` joined by ``|``, the unit ``1``."""
    return "|".join("%s.%s" % l for l in word) or "1"


class FreeProduct:
    """Free product of finite groups, with elements stored as reduced words.

    A word is a tuple of (label, element) letters: no unit letters, and no
    two consecutive letters with the same label.  The empty word is the
    unit, so equality is syntactic.

    >>> fp = FreeProduct([("A", cyclic_group(2))])
    >>> fp.multiply((("A", "1"),), (("A", "1"),))
    ()
    """

    __slots__ = ("factors", "fmap", "name")

    def __init__(self, factors, name=""):
        self.factors = [(str(lbl), G) for lbl, G in factors]
        self.fmap = dict(self.factors)
        if len(self.fmap) != len(self.factors):
            raise GroupError("duplicate factor labels")
        self.name = name

    @classmethod
    def from_group(cls, label, G):
        return cls([(label, G)], name=G.name)

    def letter(self, label, elem):
        G = self.fmap.get(label)
        if G is None:
            raise UnknownLabel("unknown factor label %s" % label)
        if elem not in set(G.elements):
            raise UnknownLabel("unknown element %s in factor %s" % (elem, label))
        if elem == G.unit:
            return ()
        return ((label, elem),)

    def reduce(self, letters):
        """Reduce a letter sequence to normal form.

        Reduction is confluent: adjacent same-label letters multiply in the
        factor and unit letters drop, so any reduction order gives the same
        word.
        """
        out = []
        for lbl, el in letters:
            G = self.fmap.get(lbl)
            if G is None:
                raise UnknownLabel("unknown factor label %s" % lbl)
            if el == G.unit:
                continue
            if out and out[-1][0] == lbl:
                merged = G.table[(out[-1][1], el)]
                out.pop()
                if merged != G.unit:
                    out.append((lbl, merged))
            else:
                out.append((lbl, el))
        return tuple(out)

    def multiply(self, w1, w2):
        return self.reduce(tuple(w1) + tuple(w2))

    def nontrivial_factors(self):
        return [(lbl, G) for lbl, G in self.factors if G.order() > 1]

    def element_count(self):
        """Number of reduced words, or None when infinite."""
        nt = self.nontrivial_factors()
        if not nt:
            return 1
        if len(nt) == 1:
            return nt[0][1].order()
        return None

    def elements(self):
        """All reduced words when the free product is a finite group of at
        most FREE_PRODUCT_CAP elements."""
        count = self.element_count()
        if count is None or count > FREE_PRODUCT_CAP:
            raise BudgetExceeded("free product has too many (or infinitely many) elements")
        nt = self.nontrivial_factors()
        if not nt:
            return [()]
        lbl, G = nt[0]
        return [()] + [((lbl, e),) for e in G.elements if e != G.unit]

    def as_table_group(self):
        """Convert to a FinGroup when at most one factor is nontrivial."""
        if self.element_count() is None:
            raise BudgetExceeded("free product is infinite")
        by_word = {word_key(w): w for w in self.elements()}
        table = {}
        for k1, w1 in by_word.items():
            for k2, w2 in by_word.items():
                table[(k1, k2)] = word_key(self.multiply(w1, w2))
        return FinGroup(list(by_word), "1", table, name=self.name)

    def __repr__(self):
        return "FreeProduct(%s)" % " * ".join(
            "%s:%s" % (lbl, G.name or G.order()) for lbl, G in self.factors
        ) if self.factors else "FreeProduct(1)"


class GroupHom:
    """Homomorphism between free products, given factorwise.

    ``per_factor[label][element]`` is a word of the target; each factor map
    is checked to be multiplicative on the whole (finite) factor.
    """

    __slots__ = ("source", "target", "per_factor")

    def __init__(self, source, target, per_factor, _validate=True):
        self.source = source
        self.target = target
        self.per_factor = {
            lbl: {el: target.reduce(w) for el, w in table.items()}
            for lbl, table in per_factor.items()
        }
        if _validate:
            self._check()

    def _check(self):
        for lbl, G in self.source.factors:
            table = self.per_factor.get(lbl)
            if table is None:
                raise UnknownLabel("no map for factor %s" % lbl)
            for el in G.elements:
                if el not in table:
                    raise UnknownLabel("factor %s misses element %s" % (lbl, el))
            # at (unit, unit) this also sends the unit to the empty word
            for a in G.elements:
                for b in G.elements:
                    lhs = table[G.table[(a, b)]]
                    rhs = self.target.multiply(table[a], table[b])
                    if lhs != rhs:
                        raise GroupError(
                            "factor map %s is not multiplicative at (%s, %s)" % (lbl, a, b)
                        )

    @classmethod
    def identity(cls, fp):
        return cls(
            fp,
            fp,
            {lbl: {el: fp.letter(lbl, el) for el in G.elements} for lbl, G in fp.factors},
            _validate=False,
        )

    def apply(self, word):
        letters = []
        for lbl, el in word:
            table = self.per_factor.get(lbl)
            if table is None:
                raise UnknownLabel("unknown factor label %s" % lbl)
            letters.extend(table[el])
        return self.target.reduce(letters)

    def compose(self, other):
        """self after other."""
        per = {
            lbl: {el: self.apply(w) for el, w in table.items()}
            for lbl, table in other.per_factor.items()
        }
        return GroupHom(other.source, self.target, per, _validate=False)

    def equals(self, other):
        return self.per_factor == other.per_factor


# -- presentations ---------------------------------------------------------


GEN_INVERSE_SUFFIX = "!"


class GroupPresentation:
    """Generators and relators; a relator is a tuple of (generator, ±1)."""

    __slots__ = ("generators", "relators", "_blocks")

    def __init__(self, generators, relators):
        self._blocks = None
        self.generators = list(generators)
        gset = set(self.generators)
        if len(gset) != len(self.generators):
            raise GroupError("duplicate generators")
        rels = []
        for rel in relators:
            w = []
            for item in rel:
                if isinstance(item, str):
                    if item.endswith(GEN_INVERSE_SUFFIX):
                        g, e = item[:-1], -1
                    else:
                        g, e = item, 1
                else:
                    g, e = item
                if g not in gset:
                    raise GroupError("relator references unknown generator %s" % g)
                w.append((g, e))
            rels.append(tuple(w))
        self.relators = rels

    def blocks(self):
        """The relators compiled for backtracking, built once:
        ``(free, blocks)``.

        ``free`` counts the generators in no relator.  Each block is a
        class of generators that relators connect, ordered by first
        appearance over its relators taken with the fewest distinct
        generators first, so that a short relator such as x^n is tested
        at the depth of its generator.  A block is a list with one entry
        per depth: the relators whose last generator sits at that depth,
        each a tuple of slots, where slot 2d is the image of the
        generator at depth d and slot 2d+1 its inverse.  Empty relators
        are dropped.  The result is kept, so a presentation must not be
        changed after construction.
        """
        if self._blocks is None:
            gidx = {g: i for i, g in enumerate(self.generators)}
            rels = [[(gidx[g], e) for g, e in rel] for rel in self.relators if rel]
            root = list(range(len(self.generators)))

            def find(i):
                while root[i] != i:
                    root[i] = root[root[i]]
                    i = root[i]
                return i

            for rel in rels:
                first = find(rel[0][0])
                for gi, _ in rel[1:]:
                    root[find(gi)] = first
            block_rels = {}
            for rel in rels:
                block_rels.setdefault(find(rel[0][0]), []).append(rel)
            blocks = []
            for members in block_rels.values():
                order = []
                for rel in sorted(members, key=lambda r: len({gi for gi, _ in r})):
                    for gi, _ in rel:
                        if gi not in order:
                            order.append(gi)
                depth = {gi: d for d, gi in enumerate(order)}
                checks = [[] for _ in order]
                for rel in members:
                    word = tuple(2 * depth[gi] + (e == -1) for gi, e in rel)
                    checks[max(depth[gi] for gi, _ in rel)].append(word)
                blocks.append(checks)
            used = {gi for rel in rels for gi, _ in rel}
            self._blocks = (len(self.generators) - len(used), blocks)
        return self._blocks

    def relator_strings(self):
        return [
            ["%s%s" % (g, "" if e == 1 else GEN_INVERSE_SUFFIX) for g, e in rel]
            for rel in self.relators
        ]

    def __repr__(self):
        return "GroupPresentation(<%d gens | %d rels>)" % (
            len(self.generators),
            len(self.relators),
        )


def free_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def cyclic_reduce(word):
    """The word freely reduced, with the inverse pairs at its two ends
    trimmed off.  A subword of a freely reduced word is freely reduced, so
    one pass leaves nothing to reduce."""
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
        i += 1
        j -= 1
    return w[i : j + 1]


def hom_count(P, T):
    """Number of homomorphisms from the presented group into the table
    group T.

    ``HOM_COUNT_BUDGET`` bounds the size |T|^k of the naive search space
    over the k generators, not the work done: the count is refused with
    BudgetExceeded exactly when |T|^k exceeds it, before any work.

    Generators that relators connect form blocks, and the count is the
    product over blocks because Hom(A * B, T) = Hom(A, T) x Hom(B, T); a
    generator in no relator contributes |T|.  Inside a block, generator
    images are assigned depth-first and each relator is evaluated as soon
    as its last generator has an image, so a failing partial assignment
    is never extended.

    The first generator x1 of each block takes one image per orbit of
    Aut(T) on T (``FinGroup.orbits``), and the count from that image is
    weighted by the orbit's size.  This is exact: composing with an
    automorphism s is a bijection from the homomorphisms that send x1 to
    a onto those that send x1 to s(a), so every image in one orbit has the
    same count.

    >>> z2_z3 = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    >>> hom_count(z2_z3, symmetric_group_3())
    12
    """
    k = len(P.generators)
    size = T.order()
    if size ** k > HOM_COUNT_BUDGET:
        raise BudgetExceeded("hom count needs %d assignments" % size ** k)
    if size == 1:
        # the one target the budget admits at any k; the backtracking
        # recurses once per generator of a block
        return 1
    free, blocks = P.blocks()
    count = size ** free
    for checks in blocks:
        # at least 1: the trivial homomorphism satisfies every block
        count *= _backtrack(checks, T)
    return count


def _backtrack(checks, T):
    """Assignments of one block (``GroupPresentation.blocks``) into T that
    satisfy its relators, counted depth-first from one image of the first
    generator per Aut(T)-orbit, weighted by the orbit's size
    (``hom_count``)."""
    rows, inverses, unit = T.indexed()
    images = [unit] * (2 * len(checks))
    last = len(checks) - 1
    everything = range(len(rows))

    def extend(d, choices):
        total = 0
        words = checks[d]
        for a in choices:
            images[2 * d] = a
            images[2 * d + 1] = inverses[a]
            for word in words:
                acc = unit
                for slot in word:
                    acc = rows[acc][images[slot]]
                if acc != unit:
                    break
            else:
                total += 1 if d == last else extend(d + 1, everything)
        return total

    return sum(len(orbit) * extend(0, orbit[:1]) for orbit in T.orbits())


def fingerprint(P):
    """Hom-count vector over the order-<=8 catalog.

    An isomorphism invariant: equal vectors are necessary (not sufficient)
    for isomorphism.
    """
    return tuple(hom_count(P, T) for T in catalog())


def _relator_entry(w):
    """(w, its canonical form, its letter counts, its first letter whose
    generator occurs once in w as (position, generator, exponent), or
    None) for a nonempty cyclically reduced relator w.

    The canonical form is the least rotation of w and of its inverse, read
    off the doubled words: two relators with one canonical form are
    conjugate or mutually inverse, so they state the same relation."""
    n = len(w)
    inv = tuple([(g, -e) for g, e in reversed(w)])
    ww, ii = w + w, inv + inv
    canon = min([ww[i : i + n] for i in range(n)] + [ii[i : i + n] for i in range(n)])
    counts = {}
    for g, _ in w:
        counts[g] = counts.get(g, 0) + 1
    for pos, (g, e) in enumerate(w):
        if counts[g] == 1:
            return w, canon, counts, (pos, g, e)
    return w, canon, counts, None


def tietze_simplify(P):
    """Equivalent, usually smaller, presentation.

    Moves used: free and cyclic reduction of relators, duplicate/empty
    relator removal, and elimination of a generator that occurs exactly
    once in some relator.  Each move is a Tietze transformation, so the
    isomorphism class never changes.  Each elimination round solves the
    shortest relator with such a generator (the earliest among equals)
    and adds to the letters read the length of every other relator;
    once more than TIETZE_BUDGET letters have been read, the current form
    is returned.

    The relators keep their order, and of two with one canonical form
    (``_relator_entry``) the earlier stays.  A round rewrites only the
    relators that contain the eliminated generator: a cyclically reduced
    word without it is left as it is by substitution, free and cyclic
    reduction, so every other relator keeps its canonical form and its
    letter counts.
    """
    gens = list(P.generators)
    rels = {}  # slot -> _relator_entry, slots in the order of P.relators
    owner = {}  # canonical form -> the slot of the relator kept for it
    letters = 0  # total length of the relators in rels
    for slot, r in enumerate(P.relators):
        w = cyclic_reduce(r)
        if w:
            entry = _relator_entry(w)
            if entry[1] not in owner:
                owner[entry[1]] = slot
                rels[slot] = entry
                letters += len(w)
    spent = 0
    while True:
        target, shortest = None, None
        for slot, entry in rels.items():
            if entry[3] is not None and (target is None or len(entry[0]) < shortest):
                target, shortest = slot, len(entry[0])
        if target is None or spent > TIETZE_BUDGET:
            break
        w, canon, _, (pos, g, e) = rels.pop(target)
        del owner[canon]
        letters -= len(w)
        spent += letters
        # solve the relator for g: g = repl, g^-1 = repl_inv
        rest = w[pos + 1 :] + w[:pos]
        rest_inv = tuple((h, -x) for h, x in reversed(rest))
        repl, repl_inv = (rest_inv, rest) if e == 1 else (rest, rest_inv)
        changed = [slot for slot, entry in rels.items() if g in entry[2]]
        for slot in changed:
            del owner[rels[slot][1]]
        for slot in changed:
            old = rels[slot][0]
            letters -= len(old)
            word = []
            for h, x in old:
                if h == g:
                    word.extend(repl if x == 1 else repl_inv)
                else:
                    word.append((h, x))
            word = cyclic_reduce(word)
            if not word:
                del rels[slot]
                continue
            entry = _relator_entry(word)
            other = owner.get(entry[1])
            if other is not None and other < slot:
                del rels[slot]
                continue
            if other is not None:
                # a later relator that was not rewritten: this one is kept
                letters -= len(rels.pop(other)[0])
            owner[entry[1]] = slot
            rels[slot] = entry
            letters += len(word)
        gens.remove(g)
    return GroupPresentation(gens, [entry[0] for entry in rels.values()])


def table_relators(G, names):
    """The relators a b c^-1 of the products a*b = c of the non-unit
    elements of a table group, by a, then b, in element order, with c^-1
    left out when c is the unit; ``names`` maps each non-unit element to
    its generator."""
    nonunit = [e for e in G.elements if e != G.unit]
    for a in nonunit:
        for b in nonunit:
            c = G.table[(a, b)]
            rel = ((names[a], 1), (names[b], 1))
            yield rel if c == G.unit else rel + ((names[c], -1),)


def presentation_of_table_group(G):
    """Presentation with one generator per non-unit element and the full
    multiplication table as relations."""
    names = {e: "g%d" % i for i, e in enumerate(e for e in G.elements if e != G.unit)}
    return GroupPresentation(list(names.values()), list(table_relators(G, names)))


def fingerprint_of_table_group(G):
    return fingerprint(tietze_simplify(presentation_of_table_group(G)))
