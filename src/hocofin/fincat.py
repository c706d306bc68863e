"""Finite categories: objects, morphisms and hom-sets, with a composition
table; a category derived from a base is built in stages as it is read.

A category is a list of objects, a list of morphisms with domain and
codomain, synthesized identities ``id_<obj>``, and a total composition
table on composable pairs.  What is checked, and when:

- A category given raw (``validate_category``: the readers, monoids,
  posets, disjoint unions) is validated when it is built: endpoints, unit
  laws, a composite for every composable pair, and associativity on every
  composable triple.
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

Consumers that need only hom-sets (cone objects, finally discrete
components) neither list a view nor build its table.  Canonical ordering
is input order everywhere; derived categories enumerate their objects and
morphisms lexicographically in the constituent indices, so repeated
construction is byte-stable.

A nerve chain x0 -> x1 -> ... -> xn is the tuple ``(x0, f1, ..., fn)``:
its origin x0 followed by its arrows, so a degree-0 chain is ``(x0,)``.
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
    """Validated finite category.

    ``comp[(g, f)]`` is the composite g∘f, defined exactly for pairs with
    dom(g) = cod(f).  Instances are immutable after construction and safe
    to share.

    The containers are kept as given: ``validate_category`` hands over
    fresh ones, and so does a caller that passes ``_validate=False``.
    """

    __slots__ = ("objects", "morphisms", "dom", "cod", "identity", "comp", "name", "_hom",
                 "_out", "_homs", "_listing", "_table", "_parse")

    def __init__(self, objects, morphisms, dom, cod, identity, comp, name="", _validate=True):
        self.objects = objects
        self.morphisms = morphisms
        self.dom = dom
        self.cod = cod
        self.identity = identity
        self.comp = comp
        self.name = name
        self._index()
        if _validate:
            self._check()

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

    def is_identity(self, f):
        return f == self.identity[self.dom[f]] and self.dom[f] == self.cod[f]

    def compose(self, g, f):
        """g∘f; raises when the pair is not composable."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise MissingComposite("no composite for (%s, %s)" % (g, f)) from None

    def composable_pairs(self):
        for f in self.morphisms:
            for g in self._out.get(self.cod[f], []):
                yield g, f

    def _check(self):
        """Check identities, endpoints and a composite for every composable
        pair, then associativity on every composable triple."""
        objects = set(self.objects)
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or i not in self.dom:
                raise IdentityViolation("object %s has no identity morphism" % o)
            if self.dom[i] != o or self.cod[i] != o:
                raise IdentityViolation("identity of %s has wrong endpoints" % o)
        for f in self.morphisms:
            if self.dom[f] not in objects or self.cod[f] not in objects:
                raise DanglingId("morphism %s has undeclared endpoints" % f)
        for (g, f), h in self.comp.items():
            if g not in self.dom or f not in self.dom or h not in self.dom:
                raise DanglingId("composition entry (%s, %s) -> %s references unknown ids" % (g, f, h))
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
        for f in self.morphisms:
            if self.comp[(self.identity[self.cod[f]], f)] != f:
                raise IdentityViolation("id∘%s != %s" % (f, f))
            if self.comp[(f, self.identity[self.dom[f]])] != f:
                raise IdentityViolation("%s∘id != %s" % (f, f))
        # associativity on exactly the composable triples, via out-buckets
        for g, f in self.composable_pairs():
            gf = self.comp[(g, f)]
            for h in self._out.get(self.cod[g], []):
                if self.comp[(self.comp[(h, g)], f)] != self.comp[(h, gf)]:
                    raise AssociativityViolation(
                        "associativity fails on (%s, %s, %s)" % (h, g, f)
                    )

    def __eq__(self, other):
        if not isinstance(other, FinCat):
            return NotImplemented
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

    ``homs(x, y)`` gives one hom-set before the listing, kept in ``_hom``;
    ``listing(view)`` gives ``(morphisms, dom, cod)`` on the first read of
    any of them, and ``_hom`` is then rebuilt from it; ``table(view)``
    gives ``comp`` on its first read.  Once both are built the instance
    becomes a plain FinCat, so later reads of any attribute are plain slot
    reads (a class with ``__getattr__`` reads every attribute on the slow
    path).  ``parse`` is ``_ids_parse`` of the view; without it the
    listing is built at once, so that a repeated id is refused here.
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
        if not parse:
            self.morphisms  # the listing, which refuses a repeated id

    def hom(self, x, y):
        h = self._hom.get((x, y))
        if h is None:
            if self._listing is None or x not in self.identity or y not in self.identity:
                return []
            h = self._hom[(x, y)] = self._homs(x, y)
        return h

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
    if len(set(objects)) != len(objects):
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
        if d not in objects or c not in objects:
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
    return FinCat(objects, mor_ids, dom, cod, ident, comp, name=name)


class Functor:
    """Structure-preserving map between two finite categories, checked
    exhaustively at construction.  An internal builder that passes
    ``_validate=False`` hands over its maps, which are kept as given: the
    projections of a view share the maps that its hom-sets fill as they
    are read."""

    __slots__ = ("source", "target", "obj_map", "mor_map", "name")

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

    def __repr__(self):
        return "Functor(%s -> %s)" % (self.source.name or "?", self.target.name or "?")


def identity_functor(C):
    return Functor(C, C, {o: o for o in C.objects}, {f: f for f in C.morphisms},
                   name="id", _validate=False)


def opposite(C):
    """Dual category: dom/cod swapped, comp(g, f) = comp_C(f, g).  A view:
    hom(x, y) is C's hom(y, x), and the listing shares C's, read when the
    view's is first read."""
    return _View(C.objects, C.identity, lambda x, y: C.hom(y, x),
                 lambda view: (C.morphisms, C.cod, C.dom),
                 lambda view: {(f, g): h for (g, f), h in C.comp.items()},
                 C.name + "^op" if C.name else "", _ids_parse(C))


def opposite_functor(S, source_op=None, target_op=None):
    """The same maps, viewed between the opposite categories."""
    return Functor(
        source_op if source_op is not None else opposite(S.source),
        target_op if target_op is not None else opposite(S.target),
        S.obj_map,
        S.mor_map,
        name=(S.name + "^op") if S.name else "",
        _validate=False,
    )


# -- categories over a base ---------------------------------------------


def over_id(p):
    """Id of the object with parts p = (base object, ...): "(p0|p1|...)"."""
    return "(%s)" % "|".join(map(str, p))


def objects_over(parts):
    """Map id -> parts for the objects with the given parts, in order;
    two objects with the same id are refused."""
    out = {}
    for p in parts:
        oid = over_id(p)
        if oid in out:
            raise CategoryError("duplicate object ids")
        out[oid] = p
    return out


def _comma_like(C, parts, arrow, name):
    """The category over C with objects ``parts`` (in order), each lying
    over the object ``parts[o][0]`` of C.

    A morphism o1 -> o2 is an arrow alpha: parts[o1][0] -> parts[o2][0]
    with ``arrow(alpha, parts[o1], parts[o2])``, named
    ``[alpha:o1->o2]``; composites are those of C.  Morphisms are listed
    by o1, then o2, then ``C.hom``.  Returns the category and the map from
    each of its morphisms to its arrow of C, filled as hom-sets are read.

    The category is a view: hom(o1, o2) is read from C.hom and the
    predicate on first read, and the listing joins the hom-sets.  Its
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

    def homs(o1, o2):
        p1, p2 = parts[o1], parts[o2]
        if o1 == o2:
            out, skip = [ident[o1]], C.identity[p1[0]]
        else:
            out, skip = [], None
        for alpha in C.hom(p1[0], p2[0]):
            if alpha != skip and arrow(alpha, p1, p2):
                mid = "[%s:%s->%s]" % (alpha, o1, o2)
                over[mid] = alpha
                out.append(mid)
        return out

    def listing(view):
        mors = list(ident.values())
        dom = {i: o for o, i in ident.items()}
        cod = dict(dom)
        for o1 in parts:
            for o2 in parts:
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


def comma_left_fibre(S, d):
    """The left fibre S↓d, its projection to the source category and the
    map object id -> (c, beta).

    Objects are pairs (c, beta: S(c) -> d); a morphism (c, b) -> (c', b')
    is alpha: c -> c' with b'∘S(alpha) = b.
    """
    C, D = S.source, S.target
    if d not in D.identity:
        raise UnknownObject("unknown object %s" % d)
    parts = objects_over((c, b) for c in C.objects for b in D.hom(S.on_obj(c), d))
    return category_over(C, parts, lambda a, p1, p2: D.comp[(p2[1], S.on_mor(a))] == p1[1],
                         "comma", "Q_%s" % d)


def comma_coslice(S, d):
    """The coslice d↓S: objects (c, beta: d -> S(c)), morphisms alpha with
    S(alpha)∘beta = beta'."""
    C, D = S.source, S.target
    if d not in D.identity:
        raise UnknownObject("unknown object %s" % d)
    parts = objects_over((c, b) for c in C.objects for b in D.hom(d, S.on_obj(c)))
    return _comma_like(C, parts, lambda a, p1, p2: D.comp[(S.on_mor(a), p1[1])] == p2[1],
                       "comma")[0]


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
    cat_op = opposite(cat)
    cod_f = Functor(cat, C, {f: C.cod[f] for f in objs}, cod_mor, name="cod", _validate=False)
    dom_f = Functor(cat_op, C, {f: C.dom[f] for f in objs}, dom_mor, name="dom", _validate=False)
    return FactorizationData(C, cat, cat_op, dom_f, cod_f, pair)


def factor_functor(S, fc=None, fd=None):
    """The induced functor between factorization categories."""
    fc = fc or factorization(S.source)
    fd = fd or factorization(S.target)
    C, D = S.source, S.target
    obj_map = {f: S.on_mor(f) for f in fc.category.objects}
    mor_map = {}
    for m in fc.category.morphisms:
        a, b = fc.pair[m]
        f = fc.category.dom[m]
        g = fc.category.cod[m]
        sa, sb = S.on_mor(a), S.on_mor(b)
        sf, sg = S.on_mor(f), S.on_mor(g)
        if D.is_identity(sa) and D.is_identity(sb):
            mor_map[m] = fd.category.identity[sf]
        else:
            mor_map[m] = _fact_mor_id(sa, sb, sf, sg)
    return Functor(fc.category, fd.category, obj_map, mor_map, name="F(%s)" % (S.name or "S"))


def factor_slice(S, alpha):
    """The category of factorizations of alpha through values of S.

    Objects are triples (c, u, v) with u: dom alpha -> S(c),
    v: S(c) -> cod alpha and v∘u = alpha; morphisms are beta: c -> c'
    with u' = S(beta)∘u and v = v'∘S(beta).
    """
    C, D = S.source, S.target
    if alpha not in D.dom:
        raise UnknownMorphism("unknown morphism %s" % alpha)
    a0, a1 = D.dom[alpha], D.cod[alpha]
    parts = objects_over(
        (c, u, v)
        for c in C.objects
        for u in D.hom(a0, S.on_obj(c))
        for v in D.hom(S.on_obj(c), a1)
        if D.comp[(v, u)] == alpha
    )

    def arrow(beta, p1, p2):
        sb = S.on_mor(beta)
        return D.comp[(sb, p1[1])] == p2[1] and D.comp[(p2[2], sb)] == p1[2]

    return _comma_like(C, parts, arrow, "slice")[0]


# -- isomorphism search --------------------------------------------------


def iso_check(C, D, max_objects=12, max_morphisms=64):
    """Search for an invertible functor C -> D by deterministic backtracking.

    Returns the functor, or None when the categories are not isomorphic.
    Raises SizeLimitExceeded beyond the configured bounds.
    """
    if len(C.objects) > max_objects or len(D.objects) > max_objects:
        raise SizeLimitExceeded("too many objects for isomorphism search")
    if len(C.morphisms) > max_morphisms or len(D.morphisms) > max_morphisms:
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


def iter_final_objects(C, objs=None):
    """Objects t with exactly one morphism x -> t from every x, in order
    and as they are found; given ``objs``, the final objects of the full
    subcategory on them."""
    objs = C.objects if objs is None else objs
    return (t for t in objs if all(len(C.hom(x, t)) == 1 for x in objs))


def iter_initial_objects(C):
    return (s for s in C.objects if all(len(C.hom(s, x)) == 1 for x in C.objects))


def final_objects(C, objs=None):
    return list(iter_final_objects(C, objs))


def initial_objects(C):
    return list(iter_initial_objects(C))


def full_subcategory(C, objs):
    """Full subcategory on the given objects (order induced from C); a
    view whose hom-sets are C's and whose table is C's restricted."""
    oset = set(objs)
    objs = [o for o in C.objects if o in oset]

    def listing(view):
        mors = [f for f in C.morphisms if C.dom[f] in oset and C.cod[f] in oset]
        return mors, {f: C.dom[f] for f in mors}, {f: C.cod[f] for f in mors}

    def table(view):
        mset = set(view.morphisms)
        return {k: v for k, v in C.comp.items() if k[0] in mset and k[1] in mset}

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


# -- nerve chains ---------------------------------------------------------


def composable_chains(C, n, nondegenerate=False):
    """Length-n chains ``(x0, f1, ..., fn)`` of composable morphisms
    x0 -> x1 -> ... -> xn, lexicographic in the canonical morphism order;
    degree 0 gives ``(x0,)`` for each object.

    A chain is degenerate when some arrow is an identity.
    """
    if n == 0:
        return [(o,) for o in C.objects]
    pool = [f for f in C.morphisms if not (nondegenerate and C.is_identity(f))]
    chains = [(C.dom[f], f) for f in pool]
    for _ in range(n - 1):
        nxt = []
        for ch in chains:
            last = ch[-1]
            for f in pool:
                if C.dom[f] == C.cod[last]:
                    nxt.append(ch + (f,))
        chains = nxt
    return chains


def chain_face(C, chain, i):
    """Nerve face d_i: d_0 starts at x1, d_n drops the last arrow, and an
    inner face composes the two arrows at x_i."""
    n = len(chain) - 1
    if n == 0:
        raise ValueError("no faces in degree 0")
    if i == 0:
        return (C.cod[chain[1]],) + chain[2:]
    if i == n:
        return chain[:-1]
    return chain[:i] + (C.comp[(chain[i + 1], chain[i])],) + chain[i + 2 :]


def chain_degeneracy(C, chain, i):
    """Nerve degeneracy s_i: insert the identity of x_i after x_i."""
    x = chain[0] if i == 0 else C.cod[chain[i]]
    return chain[: i + 1] + (C.identity[x],) + chain[i + 1 :]
