"""Finite categories: objects, morphisms and hom-sets, with a composition
table that a view builds only when it is read.

A category is a list of objects, a list of morphisms with domain and
codomain, synthesized identities ``id_<obj>``, and a total composition
table on composable pairs.  What is checked, and when:

- A category given raw (``validate_category``: the readers, monoids,
  posets, disjoint unions) is validated when it is built: endpoints, unit
  laws, a composite for every composable pair, and associativity on every
  composable triple.
- The factorization category is built in full and certified when it is
  built: its projections to C^op and C are faithful and preserve
  composition, which is checked on the composable pairs and implies
  associativity from C's.
- Every other category over a base is a view over it, built by one
  builder, ``_comma_like``, from its objects and a predicate on base
  arrows: left fibres S↓d, coslices d↓S, factorization slices, and
  categories of elements in ``presheaf``.  Its morphisms and hom-sets are
  listed at once; its composition table is built on first read, from the
  base's, and a composite that is no morphism of the view is refused then
  (``DanglingId``).  A view needs no validation pass: its projection is
  faithful by construction and composition is the base's, so the unit
  laws and associativity hold as in the validated base.
- ``opposite`` and ``full_subcategory`` are views of the same kind: they
  share the hom-sets and build their table from their base's when read.

Consumers that need only hom-sets (cone objects, finally discrete
components) never build a table.  Canonical ordering is input order
everywhere; derived categories enumerate their objects and morphisms
lexicographically in the constituent indices, so repeated construction is
byte-stable.

A nerve chain x0 -> x1 -> ... -> xn is the tuple ``(x0, f1, ..., fn)``:
its origin x0 followed by its arrows, so a degree-0 chain is ``(x0,)``.
"""

from __future__ import annotations

from collections import deque


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

    ``comp`` may be given as a dict or as a zero-argument function that
    builds it; a view passes the function, and the table is built on the
    first read of ``comp`` (see ``_View``).

    ``over``, for a category built over validated bases, lists its
    projections ``(base, obj_map, mor_map)``; validation then certifies
    that they are jointly faithful and preserve composition instead of
    scanning every composable triple (see ``_check``).
    """

    __slots__ = ("objects", "morphisms", "dom", "cod", "identity", "comp", "_table", "_hom",
                 "_out", "name")

    def __init__(self, objects, morphisms, dom, cod, identity, comp, name="", _validate=True,
                 over=None):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        if callable(comp):
            self._table = comp
            self.__class__ = _View
        else:
            self.comp = dict(comp)
        self.name = name
        self._hom = {}
        self._out = {}
        for f in self.morphisms:
            key = (self.dom[f], self.cod[f])
            self._hom.setdefault(key, []).append(f)
            self._out.setdefault(self.dom[f], []).append(f)
        if _validate:
            self._check(over)

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

    def _check(self, over=None):
        """Check identities, endpoints and a composite for every composable
        pair, then associativity.

        Without ``over``, associativity is checked on every composable
        triple.  With it, the composable pairs carry a certificate instead:
        every morphism lies over base arrows between the images of its
        endpoints, the images of g∘f are the base composites of those of g
        and f, and no two morphisms share endpoints and images.  Then
        (h∘g)∘f and h∘(g∘f) have the same endpoints and, by associativity
        in each base, the same images, so they are the same morphism.
        """
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
        if over is not None:
            self._check_faithful(over)
            return
        # associativity on exactly the composable triples, via out-buckets
        for g, f in self.composable_pairs():
            gf = self.comp[(g, f)]
            for h in self._out.get(self.cod[g], []):
                if self.comp[(self.comp[(h, g)], f)] != self.comp[(h, gf)]:
                    raise AssociativityViolation(
                        "associativity fails on (%s, %s, %s)" % (h, g, f)
                    )

    def _check_faithful(self, over):
        """The certificate of ``_check`` for projections ``(base, obj_map,
        mor_map)`` to validated bases, in O(composable pairs)."""
        for base, obj_map, mor_map in over:
            bdom, bcod, bcomp = base.dom, base.cod, base.comp
            for f in self.morphisms:
                a = mor_map.get(f)
                if (a not in bdom or bdom[a] != obj_map.get(self.dom[f])
                        or bcod[a] != obj_map.get(self.cod[f])):
                    raise CategoryError("morphism %s does not lie over its endpoints" % f)
            for (g, f), h in self.comp.items():
                if mor_map[h] != bcomp[(mor_map[g], mor_map[f])]:
                    raise CategoryError(
                        "composite %s of (%s, %s) does not lie over the base composite" % (h, g, f)
                    )
        keys = {(self.dom[f], self.cod[f]) + tuple(m[f] for _, _, m in over)
                for f in self.morphisms}
        if len(keys) != len(self.morphisms):
            raise CategoryError("two morphisms lie over the same base arrows")

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
    """A FinCat whose composition table is not built yet.

    The first read of ``comp`` builds the table, and the instance becomes
    a plain FinCat, so later reads of any attribute are plain slot reads
    (a class with ``__getattr__`` reads every attribute on the slow path).
    """

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for an unset slot: the table, not read yet
        if name != "comp":
            raise AttributeError(name)
        self.comp = self._table()
        self._table = None
        self.__class__ = FinCat
        return self.comp


def validate_category(objects, morphisms, composition, name="", over=None):
    """Build a FinCat from raw parts.

    ``morphisms`` lists the non-identity morphisms as (id, dom, cod);
    identities ``id_<obj>`` are synthesized first, in object order, then
    the given morphisms in input order.  ``composition`` maps pairs of
    non-identity morphism ids (g, f) to g∘f; entries involving identities
    are allowed but must agree with the forced values.

    A category built over validated bases passes its projections as
    ``over``, a list of ``(base, obj_map, mor_map)`` whose ``mor_map``
    covers the identities too.  Validation then certifies that the
    projections are jointly faithful and preserve composition, in
    O(composable pairs), in place of the associativity scan over every
    composable triple; associativity follows from the bases'.
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
    return FinCat(objects, mor_ids, dom, cod, ident, comp, name=name, over=over)


class Functor:
    """Structure-preserving map between two finite categories, checked
    exhaustively at construction."""

    __slots__ = ("source", "target", "obj_map", "mor_map", "name")

    def __init__(self, source, target, obj_map, mor_map, name="", _validate=True):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
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
    the swapped table is built when it is first read."""
    return FinCat(C.objects, C.morphisms, C.cod, C.dom, C.identity,
                  lambda: {(f, g): h for (g, f), h in C.comp.items()},
                  name=C.name + "^op" if C.name else "", _validate=False)


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
    each of its morphisms to its arrow of C.

    The category is a view: its composition table is built on first read,
    where each composite must be the morphism over the composite in C
    between the outer endpoints, or ``DanglingId`` is raised (the
    predicate is not closed under composition).  It needs no validation
    pass, because its projection to C is faithful by construction (no two
    morphisms share endpoints and arrow) and composition is C's, so the
    unit laws and associativity hold as they do in C.
    """
    ident = {o: identity_id(o) for o in parts}
    over = {ident[o]: C.identity[p[0]] for o, p in parts.items()}
    mors = []
    dom = {i: o for o, i in ident.items()}
    cod = dict(dom)
    out = {o: [] for o in parts}  # morphisms leaving o
    for o1, p1 in parts.items():
        for o2, p2 in parts.items():
            for alpha in C.hom(p1[0], p2[0]):
                if o1 == o2 and C.is_identity(alpha):
                    continue
                if arrow(alpha, p1, p2):
                    mid = "[%s:%s->%s]" % (alpha, o1, o2)
                    if mid in over:
                        raise DanglingId("morphism id %s duplicates another" % mid)
                    mors.append(mid)
                    out[o1].append(mid)
                    over[mid] = alpha
                    dom[mid] = o1
                    cod[mid] = o2
    mor_ids = list(ident.values()) + mors

    def table():
        bcomp = C.comp
        comp = {}
        for m1 in mors:
            s1, a1 = dom[m1], over[m1]
            for m2 in out[cod[m1]]:
                t2 = cod[m2]
                a = bcomp[(over[m2], a1)]
                h = ident[s1] if s1 == t2 and C.is_identity(a) else "[%s:%s->%s]" % (a, s1, t2)
                if over.get(h) != a or dom[h] != s1 or cod[h] != t2:
                    raise DanglingId("composite of (%s, %s) is no morphism %s -> %s over %s"
                                     % (m2, m1, s1, t2, a))
                comp[(m2, m1)] = h
        for f in mor_ids:
            comp.setdefault((ident[cod[f]], f), f)
            comp.setdefault((f, ident[dom[f]]), f)
        return comp

    return FinCat(parts, mor_ids, dom, cod, ident, table, name=name, _validate=False), over


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
    f -> g are pairs (alpha, beta) with g = beta∘f∘alpha."""
    objs = list(C.morphisms)
    mors = []
    pair = {identity_id(f): (C.identity[C.dom[f]], C.identity[C.cod[f]]) for f in objs}
    for f in objs:
        for alpha in C.morphisms:
            if C.cod[alpha] != C.dom[f]:
                continue
            fa = C.comp[(f, alpha)]
            for beta in C.morphisms:
                if C.dom[beta] != C.cod[f]:
                    continue
                g = C.comp[(beta, fa)]
                if C.is_identity(alpha) and C.is_identity(beta):
                    continue  # the identity (id, id): f -> f is synthesized
                mid = _fact_mor_id(alpha, beta, f, g)
                mors.append((mid, f, g))
                pair[mid] = (alpha, beta)
    out = {f: [] for f in objs}  # morphisms leaving f, as (id, cod)
    for m, f, g in mors:
        out[f].append((m, g))
    comp = []
    for m1, f1, g1 in mors:
        a1, b1 = pair[m1]
        for m2, g2 in out[g1]:
            a2, b2 = pair[m2]
            a = C.comp[(a1, a2)]
            b = C.comp[(b2, b1)]
            if C.is_identity(a) and C.is_identity(b):
                comp.append((m2, m1, identity_id(f1)))
            else:
                comp.append((m2, m1, _fact_mor_id(a, b, f1, g2)))
    # the category lies over C^op x C by pair, its two projections checked
    # apart: dom contravariantly, cod covariantly
    dom_obj = {f: C.dom[f] for f in objs}
    cod_obj = {f: C.cod[f] for f in objs}
    dom_mor = {m: ab[0] for m, ab in pair.items()}
    cod_mor = {m: ab[1] for m, ab in pair.items()}
    cat = validate_category(objs, mors, comp, name=(C.name and "F(%s)" % C.name),
                            over=[(opposite(C), dom_obj, dom_mor), (C, cod_obj, cod_mor)])
    cat_op = opposite(cat)
    cod_f = Functor(cat, C, cod_obj, cod_mor, name="cod", _validate=False)
    dom_f = Functor(cat_op, C, dom_obj, dom_mor, name="dom", _validate=False)
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


def final_objects(C, objs=None):
    """Objects t with exactly one morphism x -> t from every x; given
    ``objs``, the final objects of the full subcategory on them."""
    objs = C.objects if objs is None else objs
    return [t for t in objs if all(len(C.hom(x, t)) == 1 for x in objs)]


def initial_objects(C):
    return [s for s in C.objects if all(len(C.hom(s, x)) == 1 for x in C.objects)]


def full_subcategory(C, objs):
    """Full subcategory on the given objects (order induced from C); a
    view whose table is C's restricted, built when first read."""
    objs = [o for o in C.objects if o in set(objs)]
    oset = set(objs)
    mors = [f for f in C.morphisms if C.dom[f] in oset and C.cod[f] in oset]
    mset = set(mors)
    ident = {o: C.identity[o] for o in objs}
    return FinCat(objs, mors, {f: C.dom[f] for f in mors}, {f: C.cod[f] for f in mors}, ident,
                  lambda: {k: v for k, v in C.comp.items() if k[0] in mset and k[1] in mset},
                  name=C.name and C.name + "|", _validate=False)


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
