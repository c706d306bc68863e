"""Finite categories: objects, morphisms and hom-sets, with a composition
table; a category derived from a base is built in stages as it is read.

A category is a list of objects, a list of morphisms with domain and
codomain, synthesized identities ``id_<obj>``, and a total composition
table on composable pairs.  What is checked, and when:

- A category given raw (``validate_category``: the readers, monoids,
  posets, disjoint unions) is validated when it is built: endpoints, unit
  laws, a composite for every composable pair, and associativity on every
  composable triple.  A thin one, with at most one arrow between two
  objects, such as a poset, skips the associativity pass: once every
  composite has the right endpoints, both sides of each equation are the
  one arrow between the same two objects.
- Every category derived from a base is a view over it (``_View``):
  left fibres S↓d, coslices d↓S, factorization slices and categories of
  elements in ``presheaf`` (all built by ``_comma_like`` from their
  objects and a predicate on base arrows), the factorization category,
  ``opposite`` and ``full_subcategory``.  A view is built in three stages:

  1. at construction, its objects and identities;
  2. on the first read of ``hom(x, y)``, that one hom-set, from the base
     hom-sets, kept for later reads;
  3. on the first read of ``morphisms``, ``dom`` or ``cod``, the full
     listing, in the order and with the ids of the category built in full.

  Its composition table is built on the first read of ``comp``, from the
  base's, and a composite that is no morphism of the view is refused then
  (``DanglingId``).  A view needs no validation pass: its projections are
  faithful by construction (no two morphisms share endpoints and base
  arrows) and composition is the base's, so the unit laws and
  associativity hold as in the validated base.  The tests keep the
  materialize-and-certify path as the oracle.
- Two ids formatted from distinct parts can coincide only when a name
  holds a separator of the id formats outside brackets, or brackets that
  do not balance (``_ids_parse``); a view over such names lists its
  morphisms at construction, so that a repeated id is refused then, as
  for a category given raw.

Two categories are equal when their listings and composition tables
are.  ``opposite(C)``, ``factorization(C).category`` and the category of
elements of X carry a key: their builder and what it reads (C, or X's
base, sets and maps).  Views with equal keys are equal unread, the bases
in the keys compared by ``==`` again; other pairs are compared in full.

Consumers that need only hom-sets (cone objects, finally discrete
components) neither list a view nor build its table.  The objects of a
category that a certificate asks about are enumerated as parts first: a
coslice d↓S or a left fibre S↓d (``coslice_parts``, ``fibre_parts``), a
factorization slice (``slice_parts``) or a category of elements
(``presheaf.element_parts``).  The certificate counts hom-set sizes on
the parts (``parts_count``) and builds the view from them only where it
finds no cone (``cofinal.certify_over``).  Canonical ordering
is input order everywhere; derived categories enumerate their objects and
morphisms lexicographically in the constituent indices, so repeated
construction is byte-stable.

A nerve chain x0 -> x1 -> ... -> xn is the tuple ``(x0, f1, ..., fn)``:
its origin x0 followed by its arrows, so a degree-0 chain is ``(x0,)``.
Complex assembly reads the nondegenerate chains from ``NerveTable``
instead, by index, with no tuple built.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache


class CategoryError(Exception):
    """Base class for malformed categorical input."""


class MissingComposite(CategoryError):
    pass


class AssociativityViolation(CategoryError):
    pass


class IdentityViolation(CategoryError):
    pass


class DanglingId(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


class UnknownMorphism(CategoryError):
    pass


class SizeLimitExceeded(CategoryError):
    pass


def identity_id(obj):
    return "id_" + obj


class FinCat:
    """Finite category.

    ``comp[(g, f)]`` is the composite g∘f, defined exactly for pairs with
    dom(g) = cod(f).  Instances are immutable after construction and safe
    to share.

    The constructor only stores and indexes: the containers are kept as
    given, and ``validate_category`` hands over fresh ones and runs
    ``_check``.
    """

    __slots__ = ("objects", "morphisms", "dom", "cod", "identity", "comp", "name", "_hom",
                 "_out", "_into", "_homs", "_listing", "_table", "_parse", "_key")

    def __init__(self, objects, morphisms, dom, cod, identity, comp, name=""):
        self.objects = objects
        self.morphisms = morphisms
        self.dom = dom
        self.cod = cod
        self.identity = identity
        self.comp = comp
        self.name = name
        self._key = None
        self._index()

    def _index(self):
        """The hom-sets and the arrows out of each object, in morphism order."""
        self._hom = {}
        self._out = {}
        dom, cod = self.dom, self.cod
        for f in self.morphisms:
            self._hom.setdefault((dom[f], cod[f]), []).append(f)
            self._out.setdefault(dom[f], []).append(f)

    # -- structure -----------------------------------------------------

    def hom(self, x, y):
        """Morphisms x -> y, in canonical order."""
        return self._hom.get((x, y), [])

    def hom_count(self, x, y):
        """The number of morphisms x -> y."""
        return len(self._hom.get((x, y), ()))

    def successors(self, x):
        """The objects with an arrow from x, each once."""
        return list(dict.fromkeys(self.cod[f] for f in self._out.get(x, ())))

    def predecessors(self, x):
        """The objects with an arrow into x, each once; the index is built
        on the first call."""
        try:
            into = self._into
        except AttributeError:
            into = self._into = {}
            for f in self.morphisms:
                into.setdefault(self.cod[f], {})[self.dom[f]] = None
        return list(into.get(x, ()))

    def is_identity(self, f):
        return f == self.identity[self.dom[f]] and self.dom[f] == self.cod[f]

    def composable_pairs(self):
        for f in self.morphisms:
            for g in self._out.get(self.cod[f], []):
                yield g, f

    def _check(self):
        """Check that the composition entries sit on composable pairs with
        the right endpoints, that every composable pair has one, and
        associativity on every composable triple unless the category is
        thin.  ``validate_category`` has already checked the ids, the
        endpoints and the unit laws."""
        for (g, f), h in self.comp.items():
            if self.dom[g] != self.cod[f]:
                raise DanglingId("composition entry for non-composable pair (%s, %s)" % (g, f))
            if self.dom[h] != self.dom[f] or self.cod[h] != self.cod[g]:
                raise AssociativityViolation(
                    "composite %s of (%s, %s) has wrong endpoints" % (h, g, f)
                )
        # every entry is a composable pair, so all pairs are present exactly
        # when there are as many entries as composable pairs
        if len(self.comp) != sum(len(self._out.get(self.cod[f], ())) for f in self.morphisms):
            for g, f in self.composable_pairs():
                if (g, f) not in self.comp:
                    raise MissingComposite("composable pair (%s, %s) has no composite" % (g, f))
        # a thin category (one arrow per nonempty hom-set) has (hg)f and
        # h(gf) both the one arrow from dom f to cod h
        if len(self._hom) == len(self.morphisms):
            return
        # associativity on exactly the composable triples, via out-buckets
        for g, f in self.composable_pairs():
            gf = self.comp[(g, f)]
            for h in self._out.get(self.cod[g], []):
                if self.comp[(self.comp[(h, g)], f)] != self.comp[(h, gf)]:
                    raise AssociativityViolation(
                        "associativity fails on (%s, %s, %s)" % (h, g, f)
                    )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        if self._key is not None and self._key == other._key:
            return True
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.dom == other.dom
            and self.cod == other.cod
            and self.identity == other.identity
            and self.comp == other.comp
        )

    def __repr__(self):
        return "FinCat(%s: %d objects, %d morphisms)" % (
            self.name or "?",
            len(self.objects),
            len(self.morphisms),
        )


class _View(FinCat):
    """A category over a base, built in the stages of the module docstring.

    ``homs(x, y)`` gives one hom-set before the listing, kept in ``_hom``,
    and ``hom_count`` is its length; ``listing(view)`` gives ``(morphisms,
    dom, cod)`` on the first read of any of them, and ``_hom`` is then
    rebuilt from it; ``table(view)`` gives ``comp`` on its first read.
    Once both are built the instance becomes a plain FinCat, so later
    reads of any attribute are plain slot reads (a class with
    ``__getattr__`` reads every attribute on the slow path).  ``parse`` is
    ``_ids_parse`` of the view; without it the listing is built at once,
    so that a repeated id is refused here.
    """

    __slots__ = ()

    def __init__(self, objects, identity, homs, listing, table, name, parse):
        self.objects = objects
        self.identity = identity
        self.name = name
        self._hom = {}
        self._homs = homs
        self._listing = listing
        self._table = table
        self._parse = parse
        self._key = None
        if not parse:
            self.morphisms  # the listing, which refuses a repeated id

    def hom(self, x, y):
        h = self._hom.get((x, y))
        if h is None:
            if self._listing is None or x not in self.identity or y not in self.identity:
                return []
            h = self._hom[(x, y)] = self._homs(x, y)
        return h

    def hom_count(self, x, y):
        return len(self.hom(x, y))

    def successors(self, x):
        # from the hom-set sizes, so that a view over this one does not list it
        return [y for y in self.objects if self.hom_count(x, y)]

    def predecessors(self, x):
        return [y for y in self.objects if self.hom_count(y, x)]

    def __getattr__(self, name):
        # reached only for an unset slot: a stage not built yet
        if name == "comp":
            self.comp = self._table(self)
            self._table = None
        elif name in ("morphisms", "dom", "cod", "_out"):
            self.morphisms, self.dom, self.cod = self._listing(self)
            self._listing = self._homs = None
            self._index()
        else:
            raise AttributeError(name)
        if self._table is None and self._listing is None:
            self.__class__ = FinCat
        return getattr(self, name)


# what the id formats put between names (over_id's "(|)", the morphism
# ids "[alpha:o1->o2]" and "[alpha,beta:f->g]"), and brackets
_MARKS = re.compile(r"[\[\](){}:,|]|->")


# each view checks the names in its parts, which are mostly the arrows of
# one target category, met again by every fibre over it
@lru_cache(maxsize=4096)
def _is_term(name):
    """Whether ``name`` holds no separator of the id formats outside
    brackets, and its brackets balance; "{0,1}" is one."""
    name = str(name)
    if not _MARKS.search(name):
        return True
    depth = 0
    for i, ch in enumerate(name):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                return False
        elif depth == 0 and (ch in ":,|" or name.startswith("->", i)):
            return False
    return depth == 0


def _ids_parse(C):
    """Whether every id of C is a term (``_is_term``).  The id formats put
    their separators outside brackets and wrap in brackets what they
    build, so an id formatted from terms is a term, and splits back into
    its parts in one way only: distinct parts give distinct ids.  Checked
    once for a category given raw and kept on it; a view is given it at
    construction."""
    try:
        return C._parse
    except AttributeError:
        C._parse = all(map(_is_term, C.objects)) and all(map(_is_term, C.morphisms))
        return C._parse


def validate_category(objects, morphisms, composition, name=""):
    """Build a FinCat from raw parts.

    ``morphisms`` lists the non-identity morphisms as (id, dom, cod);
    identities ``id_<obj>`` are synthesized first, in object order, then
    the given morphisms in input order.  ``composition`` maps pairs of
    non-identity morphism ids (g, f) to g∘f; entries involving identities
    are allowed but must agree with the forced values.
    """
    objects = list(objects)
    known = set(objects)
    if len(known) != len(objects):
        raise CategoryError("duplicate object ids")
    ident = {o: identity_id(o) for o in objects}
    mor_ids = []
    dom = {}
    cod = {}
    for o in objects:
        i = ident[o]
        mor_ids.append(i)
        dom[i] = o
        cod[i] = o
    for mid, d, c in morphisms:
        if mid in dom:
            raise DanglingId("morphism id %s duplicates another (identities are reserved)" % mid)
        if d not in known or c not in known:
            raise DanglingId("morphism %s references unknown object" % mid)
        mor_ids.append(mid)
        dom[mid] = d
        cod[mid] = c
    comp = {}
    for g, f, h in composition:
        if g not in dom or f not in dom or h not in dom:
            raise DanglingId("composition entry (%s, %s) -> %s references unknown ids" % (g, f, h))
        key = (g, f)
        if key in comp and comp[key] != h:
            raise CategoryError("conflicting composition entries for (%s, %s)" % key)
        comp[key] = h
    # forced entries: identity laws, including identity-with-identity
    for f in mor_ids:
        for key in ((ident[cod[f]], f), (f, ident[dom[f]])):
            if comp.setdefault(key, f) != f:
                raise IdentityViolation("composition table contradicts identity law at %s" % (key,))
    cat = FinCat(objects, mor_ids, dom, cod, ident, comp, name=name)
    cat._check()
    return cat


class Functor:
    """Structure-preserving map between two finite categories, checked
    exhaustively at construction.  An internal builder that passes
    ``_validate=False`` hands over its maps, which are kept as given: the
    projections of a view share the maps that its hom-sets fill as they
    are read."""

    __slots__ = ("source", "target", "obj_map", "mor_map", "name", "_lying")

    def __init__(self, source, target, obj_map, mor_map, name="", _validate=True):
        if _validate:
            obj_map, mor_map = dict(obj_map), dict(mor_map)
        self.source = source
        self.target = target
        self.obj_map = obj_map
        self.mor_map = mor_map
        self.name = name
        for o in source.objects:
            image = target.identity.get(self.obj_map.get(o))
            if image is not None:
                self.mor_map.setdefault(source.identity[o], image)
        if _validate:
            self._check()

    def _check(self):
        S, T = self.source, self.target
        for o in S.objects:
            if self.obj_map.get(o) not in T.identity:
                raise UnknownObject("object %s has no valid image" % o)
        for f in S.morphisms:
            g = self.mor_map.get(f)
            if g not in T.dom:
                raise UnknownMorphism("morphism %s has no valid image" % f)
            if T.dom[g] != self.obj_map[S.dom[f]] or T.cod[g] != self.obj_map[S.cod[f]]:
                raise CategoryError("functor breaks dom/cod at %s" % f)
        for o in S.objects:
            if self.mor_map[S.identity[o]] != T.identity[self.obj_map[o]]:
                raise CategoryError("functor breaks identity at %s" % o)
        for g, f in S.composable_pairs():
            lhs = self.mor_map[S.comp[(g, f)]]
            rhs = T.comp[(self.mor_map[g], self.mor_map[f])]
            if lhs != rhs:
                raise CategoryError("functor breaks composition at (%s, %s)" % (g, f))

    def on_obj(self, o):
        return self.obj_map[o]

    def on_mor(self, f):
        return self.mor_map[f]

    def lying_over(self, ys):
        """The source objects that map into ``ys``, in source order; the
        index of positions over each object is built on the first call."""
        try:
            lying = self._lying
        except AttributeError:
            lying = self._lying = {}
            for k, o in enumerate(self.source.objects):
                lying.setdefault(self.obj_map[o], []).append(k)
        objs = self.source.objects
        return [objs[k] for k in sorted([k for y in ys for k in lying.get(y, ())])]

    def __repr__(self):
        return "Functor(%s -> %s)" % (self.source.name or "?", self.target.name or "?")


def identity_functor(C):
    return Functor(C, C, {o: o for o in C.objects}, {f: f for f in C.morphisms},
                   name="id", _validate=False)


def opposite(C):
    """Dual category: dom/cod swapped, comp(g, f) = comp_C(f, g).  A view:
    hom(x, y) is C's hom(y, x), and the listing shares C's, read when the
    view's is first read."""
    op = _View(C.objects, C.identity, lambda x, y: C.hom(y, x),
               lambda view: (C.morphisms, C.cod, C.dom),
               lambda view: {(f, g): h for (g, f), h in C.comp.items()},
               C.name + "^op" if C.name else "", _ids_parse(C))
    op._key = ("opposite", C)
    return op


def opposite_functor(S):
    """The same maps, viewed between the opposite categories."""
    return Functor(opposite(S.source), opposite(S.target), S.obj_map, S.mor_map,
                   name=(S.name + "^op") if S.name else "", _validate=False)


# -- categories over a base ---------------------------------------------


def over_id(p):
    """Id of the object with parts p = (base object, ...): "(p0|p1|...)"."""
    return "(%s)" % "|".join(map(str, p))


def objects_over(parts):
    """Map id -> parts for the objects with the given parts, in order;
    two objects with the same id are refused.  The parts are tuples of one
    length, so that one format string gives every id, as ``over_id``
    does."""
    parts = list(parts)
    if not parts:
        return {}
    form = "(%s)" % "|".join(["%s"] * len(parts[0]))
    out = dict(zip([form % p for p in parts], parts))
    if len(out) != len(parts):
        raise CategoryError("duplicate object ids")
    return out


def parts_count(C, arrow):
    """The number of morphisms p1 -> p2 of the category over C whose
    objects are given by their parts (``_comma_like``), as a function of
    the parts: the arrows alpha: p1[0] -> p2[0] of C with ``arrow(alpha,
    p1, p2)``, counted in one loop with no list built and no id
    formatted.  Equal parts are one object, whose identity counts once.
    A cone search on the parts counts with it, before any view is built
    (``cofinal.certify_over``)."""
    base_hom, base_identity = C.hom, C.identity

    def count(p1, p2):
        if p1 == p2:
            n, skip = 1, base_identity[p1[0]]
        else:
            n, skip = 0, None
        for alpha in base_hom(p1[0], p2[0]):
            if alpha != skip and arrow(alpha, p1, p2):
                n += 1
        return n

    return count


def _comma_like(C, parts, arrow, name):
    """The category over C with objects ``parts`` (in order), each lying
    over the object ``parts[o][0]`` of C.

    A morphism o1 -> o2 is an arrow alpha: parts[o1][0] -> parts[o2][0]
    with ``arrow(alpha, parts[o1], parts[o2])``, named
    ``[alpha:o1->o2]``; composites are those of C.  Morphisms are listed
    by o1, then o2, then ``C.hom``.  Returns the category and the map from
    each of its morphisms to its arrow of C, filled as hom-sets are read.

    The category is a view: hom(o1, o2) is read from C.hom and the
    predicate on first read, and the listing joins the hom-sets that C's
    arrows can fill, read through ``C.successors`` (from C's hom-set sizes
    when C is itself a view, so that C is not listed).  Its
    composition table is built on first read, where each composite must
    be the morphism over the composite in C between the outer endpoints,
    or ``DanglingId`` is raised (the predicate is not closed under
    composition).  It needs no validation pass, because its projection to
    C is faithful by construction (no two morphisms share endpoints and
    arrow) and composition is C's, so the unit laws and associativity
    hold as they do in C.
    """
    ident = {o: identity_id(o) for o in parts}
    over = {ident[o]: C.identity[p[0]] for o, p in parts.items()}
    base_hom, base_identity = C.hom, C.identity

    def under(o1, o2):
        """The arrows of C under the morphisms o1 -> o2 but the identity."""
        p1, p2 = parts[o1], parts[o2]
        skip = base_identity[p1[0]] if o1 == o2 else None
        return [alpha for alpha in base_hom(p1[0], p2[0]) if alpha != skip and arrow(alpha, p1, p2)]

    def homs(o1, o2):
        out = [ident[o1]] if o1 == o2 else []
        for alpha in under(o1, o2):
            mid = "[%s:%s->%s]" % (alpha, o1, o2)
            over[mid] = alpha
            out.append(mid)
        return out

    def listing(view):
        mors = list(ident.values())
        dom = {i: o for o, i in ident.items()}
        cod = dict(dom)
        # hom(o1, o2) is empty unless C has an arrow from o1's base object
        # to o2's, so o1 meets only the parts over C's successors of its
        # base object, in order
        position = {o: k for k, o in enumerate(parts)}
        lying = {}
        for o, p in parts.items():
            lying.setdefault(p[0], []).append(o)
        near = {}
        for o1, p1 in parts.items():
            c = p1[0]
            if c not in near:
                near[c] = sorted((o2 for c2 in C.successors(c) for o2 in lying.get(c2, ())),
                                 key=position.__getitem__)
            for o2 in near[c]:
                # the identity, first in hom(o1, o1), is listed above
                for mid in homs(o1, o2)[o1 == o2:]:
                    if mid in dom:
                        raise DanglingId("morphism id %s duplicates another" % mid)
                    mors.append(mid)
                    dom[mid] = o1
                    cod[mid] = o2
        return mors, dom, cod

    def table(view):
        bcomp, dom, cod, out = C.comp, view.dom, view.cod, view._out
        comp = {}
        # identities are listed first, and first in each out-list
        for m1 in view.morphisms[len(ident):]:
            s1, a1 = dom[m1], over[m1]
            for m2 in out[cod[m1]][1:]:
                t2 = cod[m2]
                a = bcomp[(over[m2], a1)]
                h = ident[s1] if s1 == t2 and C.is_identity(a) else "[%s:%s->%s]" % (a, s1, t2)
                if over.get(h) != a or dom[h] != s1 or cod[h] != t2:
                    raise DanglingId("composite of (%s, %s) is no morphism %s -> %s over %s"
                                     % (m2, m1, s1, t2, a))
                comp[(m2, m1)] = h
        for f in view.morphisms:
            comp.setdefault((ident[cod[f]], f), f)
            comp.setdefault((f, ident[dom[f]]), f)
        return comp

    parse = _ids_parse(C) and all(_is_term(x) for p in parts.values() for x in p[1:])
    return _View(list(parts), ident, homs, listing, table, name, parse), over


def category_over(C, parts, arrow, name, proj_name):
    """``_comma_like`` with its projection functor to C; returns
    (category, projection, parts).  The projection preserves composition
    by construction, so it is not checked."""
    cat, over = _comma_like(C, parts, arrow, name)
    proj = Functor(cat, C, {o: p[0] for o, p in parts.items()}, over, name=proj_name,
                   _validate=False)
    return cat, proj, parts


def fibre_parts(S, d):
    """The parts (c, beta: S(c) -> d) of the objects of the left fibre
    S↓d, by c in C's order, then by beta, and the predicate on C's arrows
    that picks its morphisms: alpha: c -> c' with b'∘S(alpha) = b.  Only
    the objects c over the sources of D's arrows into d are read."""
    D = S.target
    # without this, an unknown d would give an empty fibre, silently
    if d not in D.identity:
        raise UnknownObject("unknown object %s" % d)
    hom, obj = D.hom, S.obj_map
    parts = [(c, b) for c in S.lying_over(D.predecessors(d)) for b in hom(obj[c], d)]
    comp, mor = D.comp, S.mor_map
    return parts, lambda a, p1, p2: comp[(p2[1], mor[a])] == p1[1]


def coslice_parts(S, d):
    """The parts (c, beta: d -> S(c)) of the objects of the coslice d↓S,
    ordered as in ``fibre_parts`` and read from D's arrows out of d, and
    the predicate on C's arrows that picks its morphisms: alpha with
    S(alpha)∘beta = beta'."""
    D = S.target
    # without this, an unknown d would give an empty coslice, silently
    if d not in D.identity:
        raise UnknownObject("unknown object %s" % d)
    hom, obj = D.hom, S.obj_map
    parts = [(c, b) for c in S.lying_over(D.successors(d)) for b in hom(d, obj[c])]
    comp, mor = D.comp, S.mor_map
    return parts, lambda a, p1, p2: comp[(mor[a], p1[1])] == p2[1]


def comma_left_fibre(S, d):
    """The left fibre S↓d (``fibre_parts``), its projection to the source
    category and the map object id -> (c, beta)."""
    parts, arrow = fibre_parts(S, d)
    return category_over(S.source, objects_over(parts), arrow, "comma", "Q_%s" % d)


# -- factorization categories -------------------------------------------


def _fact_mor_id(alpha, beta, f, g):
    return "[%s,%s:%s->%s]" % (alpha, beta, f, g)


class FactorizationData:
    """Factorization category of C with its two projections.

    ``dom`` is a functor from the opposite of the factorization category
    (morphism (a, b): f -> g projects to a: dom g -> dom f), ``cod`` is a
    functor from the factorization category itself.
    """

    __slots__ = ("base", "category", "category_op", "dom", "cod", "pair")

    def __init__(self, base, category, category_op, dom, cod, pair):
        self.base = base
        self.category = category
        self.category_op = category_op
        self.dom = dom
        self.cod = cod
        self.pair = pair  # morphism id -> (alpha, beta)

    def arrow(self, alpha, beta, f):
        """The morphism (alpha, beta): f -> beta∘f∘alpha."""
        C = self.base
        if C.is_identity(alpha) and C.is_identity(beta):
            return self.category.identity[f]
        return _fact_mor_id(alpha, beta, f, C.comp[(beta, C.comp[(f, alpha)])])


def factorization(C):
    """Category whose objects are the morphisms of C and whose morphisms
    f -> g are pairs (alpha, beta) with g = beta∘f∘alpha.

    A view over C: hom(f, g) lists the pairs with alpha in C(dom g, dom f)
    and beta in C(cod f, cod g), by alpha, then beta, after ``id_f`` in
    hom(f, f); the listing goes by f, then alpha, then beta.  ``pair`` and
    the maps of the ``dom`` and ``cod`` projections are filled as hom-sets
    are read, and the projections share them.  The category lies over
    C^op x C by ``pair``, faithfully by construction, and composes there.
    """
    objs = list(C.morphisms)
    ident = {f: identity_id(f) for f in objs}
    pair = {ident[f]: (C.identity[C.dom[f]], C.identity[C.cod[f]]) for f in objs}
    dom_mor = {m: ab[0] for m, ab in pair.items()}
    cod_mor = {m: ab[1] for m, ab in pair.items()}

    def record(alpha, beta, f, g):
        mid = _fact_mor_id(alpha, beta, f, g)
        pair[mid] = (alpha, beta)
        dom_mor[mid] = alpha
        cod_mor[mid] = beta
        return mid

    def homs(f, g):
        out = [ident[f]] if f == g else []
        id_dom, id_cod = pair[ident[f]]
        for alpha in C.hom(C.dom[g], C.dom[f]):
            fa = C.comp[(f, alpha)]
            for beta in C.hom(C.cod[f], C.cod[g]):
                # (id, id): f -> f is the synthesized identity
                if C.comp[(beta, fa)] == g and (alpha != id_dom or beta != id_cod):
                    out.append(record(alpha, beta, f, g))
        return out

    def listing(view):
        mors = list(ident.values())
        dom = {i: f for f, i in ident.items()}
        cod = dict(dom)
        for f in objs:
            for alpha in C.morphisms:
                if C.cod[alpha] != C.dom[f]:
                    continue
                fa = C.comp[(f, alpha)]
                for beta in C.morphisms:
                    if C.dom[beta] != C.cod[f] or C.is_identity(alpha) and C.is_identity(beta):
                        continue
                    g = C.comp[(beta, fa)]
                    mid = record(alpha, beta, f, g)
                    if mid in dom:
                        raise DanglingId("morphism id %s duplicates another (identities are reserved)"
                                         % mid)
                    mors.append(mid)
                    dom[mid] = f
                    cod[mid] = g
        return mors, dom, cod

    def table(view):
        dom, cod, out = view.dom, view.cod, view._out
        comp = {}
        # identities are listed first, and first in each out-list
        for m1 in view.morphisms[len(objs):]:
            f1 = dom[m1]
            a1, b1 = pair[m1]
            for m2 in out[cod[m1]][1:]:
                a2, b2 = pair[m2]
                a = C.comp[(a1, a2)]
                b = C.comp[(b2, b1)]
                if C.is_identity(a) and C.is_identity(b):
                    comp[(m2, m1)] = ident[f1]
                else:
                    comp[(m2, m1)] = _fact_mor_id(a, b, f1, cod[m2])
        for f in view.morphisms:
            comp.setdefault((ident[cod[f]], f), f)
            comp.setdefault((f, ident[dom[f]]), f)
        return comp

    cat = _View(objs, ident, homs, listing, table, C.name and "F(%s)" % C.name, _ids_parse(C))
    cat._key = ("factorization", C)
    cat_op = opposite(cat)
    cod_f = Functor(cat, C, {f: C.cod[f] for f in objs}, cod_mor, name="cod", _validate=False)
    dom_f = Functor(cat_op, C, {f: C.dom[f] for f in objs}, dom_mor, name="dom", _validate=False)
    return FactorizationData(C, cat, cat_op, dom_f, cod_f, pair)


def factor_functor(S):
    """The induced functor between the factorization categories of S's
    source and of its target."""
    fc, fd = factorization(S.source), factorization(S.target)
    obj_map = {f: S.on_mor(f) for f in fc.category.objects}
    mor_map = {}
    for m in fc.category.morphisms:
        a, b = fc.pair[m]
        mor_map[m] = fd.arrow(S.on_mor(a), S.on_mor(b), S.on_mor(fc.category.dom[m]))
    return Functor(fc.category, fd.category, obj_map, mor_map, name="F(%s)" % (S.name or "S"))


def slice_parts(S, alpha):
    """The parts (c, u, v) of the objects of the slice S<alpha>, the
    factorizations v∘u = alpha through S(c), by c in C's order, then by u,
    then by v, and the predicate on C's arrows that picks its morphisms:
    beta: c -> c' with u' = S(beta)∘u and v = v'∘S(beta)."""
    C, D = S.source, S.target
    a0, a1 = D.dom[alpha], D.cod[alpha]
    parts = [(c, u, v)
             for c in C.objects
             for u in D.hom(a0, S.on_obj(c))
             for v in D.hom(S.on_obj(c), a1)
             if D.comp[(v, u)] == alpha]

    def arrow(beta, p1, p2):
        sb = S.on_mor(beta)
        return D.comp[(sb, p1[1])] == p2[1] and D.comp[(p2[2], sb)] == p1[2]

    return parts, arrow


def factor_slice(S, alpha):
    """The category of factorizations of alpha through values of S
    (``slice_parts``)."""
    parts, arrow = slice_parts(S, alpha)
    return _comma_like(S.source, objects_over(parts), arrow, "slice")[0]


# -- isomorphism search --------------------------------------------------


# the largest categories the isomorphism search takes on
ISO_MAX_OBJECTS = 24
ISO_MAX_MORPHISMS = 160


def iso_check(C, D):
    """Search for an invertible functor C -> D by deterministic backtracking.

    Returns the functor, or None when the categories are not isomorphic.
    Raises SizeLimitExceeded past ``ISO_MAX_OBJECTS`` objects or
    ``ISO_MAX_MORPHISMS`` morphisms.
    """
    if len(C.objects) > ISO_MAX_OBJECTS or len(D.objects) > ISO_MAX_OBJECTS:
        raise SizeLimitExceeded("too many objects for isomorphism search")
    if len(C.morphisms) > ISO_MAX_MORPHISMS or len(D.morphisms) > ISO_MAX_MORPHISMS:
        raise SizeLimitExceeded("too many morphisms for isomorphism search")
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None

    def profile(cat, x):
        outs = sorted(len(cat.hom(x, y)) for y in cat.objects)
        ins = sorted(len(cat.hom(y, x)) for y in cat.objects)
        return (len(cat.hom(x, x)), tuple(outs), tuple(ins))

    cprof = {x: profile(C, x) for x in C.objects}
    dprof = {y: profile(D, y) for y in D.objects}
    if sorted(cprof.values()) != sorted(dprof.values()):
        return None

    cobj = C.objects

    def assign_objects(k, omap, used):
        if k == len(cobj):
            yield dict(omap)
            return
        x = cobj[k]
        for y in D.objects:
            if y in used or cprof[x] != dprof[y]:
                continue
            ok = True
            for x2, y2 in omap.items():
                if len(C.hom(x, x2)) != len(D.hom(y, y2)) or len(C.hom(x2, x)) != len(D.hom(y2, y)):
                    ok = False
                    break
            if ok:
                omap[x] = y
                used.add(y)
                yield from assign_objects(k + 1, omap, used)
                del omap[x]
                used.discard(y)

    cmor = [f for f in C.morphisms if not C.is_identity(f)]

    def assign_morphisms(omap):
        mmap = {C.identity[x]: D.identity[omap[x]] for x in cobj}
        used = set(mmap.values())

        def backtrack(k):
            if k == len(cmor):
                return dict(mmap)
            f = cmor[k]
            for g in D.hom(omap[C.dom[f]], omap[C.cod[f]]):
                if g in used or D.is_identity(g):
                    continue
                mmap[f] = g
                used.add(g)
                if _compat(f):
                    result = backtrack(k + 1)
                    if result is not None:
                        return result
                del mmap[f]
                used.discard(g)
            return None

        def _compat(f):
            # check every composition both of whose factors are assigned
            for h in list(mmap):
                if C.dom[h] == C.cod[f]:
                    hf = C.comp[(h, f)]
                    if hf in mmap and D.comp[(mmap[h], mmap[f])] != mmap[hf]:
                        return False
                if C.dom[f] == C.cod[h]:
                    fh = C.comp[(f, h)]
                    if fh in mmap and D.comp[(mmap[f], mmap[h])] != mmap[fh]:
                        return False
            return True

        return backtrack(0)

    for omap in assign_objects(0, {}, set()):
        mmap = assign_morphisms(omap)
        if mmap is not None:
            return Functor(C, D, omap, mmap, name="iso")
    return None


# -- connectivity and (co)limits of shapes --------------------------------


def connected_components(C):
    """Partition of the objects by the undirected graph of morphisms."""
    index = {o: i for i, o in enumerate(C.objects)}
    adj = {o: set() for o in C.objects}
    for f in C.morphisms:
        adj[C.dom[f]].add(C.cod[f])
        adj[C.cod[f]].add(C.dom[f])
    seen = set()
    comps = []
    for o in C.objects:
        if o in seen:
            continue
        comp = []
        queue = deque([o])
        seen.add(o)
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in sorted(adj[x], key=index.__getitem__):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(sorted(comp, key=index.__getitem__))
    return comps


def iter_final_objects(objs, count):
    """The objects t of ``objs`` with ``count(x, t) == 1`` for every x
    in ``objs``, in order and as they are found: the final objects of the
    category on ``objs`` with ``count(x, y)`` morphisms x -> y.  A
    candidate is dropped at its first count that is not 1."""
    for t in objs:
        for x in objs:
            if count(x, t) != 1:
                break
        else:
            yield t


def final_objects(C, objs=None):
    """The final objects of C, or of its full subcategory on ``objs``."""
    return list(iter_final_objects(C.objects if objs is None else objs, C.hom_count))


def full_subcategory(C, objs):
    """Full subcategory on the given objects (order induced from C); a
    view whose hom-sets are C's and whose table is C's on the kept
    arrows' composable pairs, read from C pair by pair."""
    oset = set(objs)
    objs = [o for o in C.objects if o in oset]

    def listing(view):
        mors = [f for f in C.morphisms if C.dom[f] in oset and C.cod[f] in oset]
        return mors, {f: C.dom[f] for f in mors}, {f: C.cod[f] for f in mors}

    def table(view):
        return {pair: C.comp[pair] for pair in view.composable_pairs()}

    return _View(objs, {o: C.identity[o] for o in objs}, C.hom, listing, table,
                 C.name and C.name + "|", _ids_parse(C))


# -- builders -------------------------------------------------------------


def from_monoid(elements, unit, table, name=""):
    """One-object category from a monoid multiplication table.

    ``table[(a, b)]`` is a*b, read as the composite a∘b.
    """
    obj = "*"
    mors = [(e, obj, obj) for e in elements if e != unit]
    comp = []
    for a in elements:
        for b in elements:
            if a == unit or b == unit:
                continue
            comp.append((a, b, table[(a, b)] if table[(a, b)] != unit else identity_id(obj)))
    # non-identity composites equal to the unit must point at the identity id
    cat = validate_category([obj], mors, comp, name=name)
    return cat


def from_poset(elements, leq, name=""):
    """Poset as a category: one morphism x -> y whenever leq(x, y)."""
    mors = []
    into = {}  # y -> the arrows x -> y, as (id, x), in arrow order
    for x in elements:
        for y in elements:
            if x != y and leq(x, y):
                m = "%s<=%s" % (x, y)
                mors.append((m, x, y))
                into.setdefault(y, []).append((m, x))
    comp = [(m2, m1, "%s<=%s" % (x, z)) for m2, y, z in mors for m1, x in into.get(y, ())]
    return validate_category(elements, mors, comp, name=name)


# -- nerve chains ---------------------------------------------------------


def composable_chains(C, n):
    """Length-n chains ``(x0, f1, ..., fn)`` of composable morphisms
    x0 -> x1 -> ... -> xn, lexicographic in the canonical morphism order;
    degree 0 gives ``(x0,)`` for each object.

    A chain is degenerate when some arrow is an identity.
    """
    if n == 0:
        return [(o,) for o in C.objects]
    chains = [(C.dom[f], f) for f in C.morphisms]
    for _ in range(n - 1):
        nxt = []
        for ch in chains:
            last = ch[-1]
            for f in C.morphisms:
                if C.dom[f] == C.cod[last]:
                    nxt.append(ch + (f,))
        chains = nxt
    return chains


def chain_face(C, chain, i):
    """Nerve face d_i: d_0 starts at x1, d_n drops the last arrow, and an
    inner face composes the two arrows at x_i."""
    n = len(chain) - 1
    if i == 0:
        return (C.cod[chain[1]],) + chain[2:]
    if i == n:
        return chain[:-1]
    return chain[:i] + (C.comp[(chain[i + 1], chain[i])],) + chain[i + 2 :]


def chain_degeneracy(C, chain, i):
    """Nerve degeneracy s_i: insert the identity of x_i after x_i."""
    x = chain[0] if i == 0 else C.cod[chain[i]]
    return chain[: i + 1] + (C.identity[x],) + chain[i + 1 :]


def chain_counts(C, top):
    """The nondegenerate nerve chains of C per degree 0..top, counted by
    dynamic programming over end objects: no chain is built."""
    pool = [f for f in C.morphisms if not C.is_identity(f)]
    ending = dict.fromkeys(C.objects, 1)
    counts = [len(C.objects)]
    for _ in range(top):
        nxt = dict.fromkeys(C.objects, 0)
        for f in pool:
            nxt[C.cod[f]] += ending[C.dom[f]]
        ending = nxt
        counts.append(sum(ending.values()))
    return counts


class NerveTable:
    """The nondegenerate nerve chains of C in degrees 0..top, by index.

    Degree n lists its chains in the order of ``composable_chains(C, n)``,
    leaving out those with an identity arrow.  Chain j of degree n
    has origin ``origin[n][j]``, first and last arrows ``first[n][j]`` and
    ``last[n][j]`` (None in degree 0) and faces ``faces[n][j]``: the
    indices in degree n-1 of d_0, ..., d_n, None for a degenerate face
    (``()`` in degree 0).  No chain tuple is built.

    A chain x = y·f of degree n >= 2 extends y, whose last arrow is l, by
    f, and its faces come from y's: d_i x = d_i(y)·f for i <= n-2
    (degenerate with d_i(y)), d_{n-1} x = d_{n-1}(y)·(f∘l), degenerate
    when f∘l is an identity, and d_n x = y.  The chains extending one chain
    of degree n-1 >= 1 are consecutive, by the arrows out of its end in
    morphism order, so t·f sits at t's first extension plus f's rank among
    those arrows; in degree 1, t·f is f's place among all arrows.
    """

    __slots__ = ("origin", "first", "last", "faces")

    def __init__(self, C, top):
        objects = C.objects
        units = set(C.identity.values())
        pool = [f for f in C.morphisms if f not in units]
        dom, cod, comp = C.dom, C.cod, C.comp
        out = {o: [] for o in objects}
        for f in pool:
            out[dom[f]].append(f)
        where = {o: j for j, o in enumerate(objects)}
        self.origin = [list(objects)]
        self.first = [[None] * len(objects)]
        self.last = [[None] * len(objects)]
        self.faces = [[()] * len(objects)]
        if top < 1:
            return
        self.origin.append([dom[f] for f in pool])
        self.first.append(pool)
        self.last.append(pool)
        self.faces.append([(where[cod[f]], where[dom[f]]) for f in pool])
        # start[t] + rank[f]: the index of t·f, for t of degree n-2
        start = [0] * len(objects)
        rank = {f: k for k, f in enumerate(pool)}
        out_rank = {f: k for fs in out.values() for k, f in enumerate(fs)}
        for n in range(2, top + 1):
            origin, first, last, faces, extensions = [], [], [], [], []
            for y, (o, f0, l, fy) in enumerate(zip(self.origin[n - 1], self.first[n - 1],
                                                   self.last[n - 1], self.faces[n - 1])):
                outs = out[cod[l]]
                extensions.append(len(faces))
                origin += [o] * len(outs)
                first += [f0] * len(outs)
                last += outs
                inner, prefix = fy[:-1], start[fy[-1]]
                for f in outs:
                    k, h = rank[f], comp[(f, l)]
                    faces.append((*[None if t is None else start[t] + k for t in inner],
                                  None if h in units else prefix + rank[h], y))
            self.origin.append(origin)
            self.first.append(first)
            self.last.append(last)
            self.faces.append(faces)
            start, rank = extensions, out_rank
