"""Homology of presheaves with diagram coefficients, and the natural-system
homology of small categories via factorization categories.

Each homology here is a derived colimit over a derived index category:
the category of elements (opposite) for presheaf homology, the
factorization category (opposite) for natural systems.  Wherever a second
computational route exists, the two are run and compared exactly; a
mismatch is an implementation bug and is surfaced loudly.
"""

from __future__ import annotations

from .cofinal import certify_over
from .diagrams import (
    AbDiagram,
    DiagramError,
    ab_colim_derived,
    abelianize_diagram,
    colim0,
    kan_extend_vdc,
    lifts_compose,
    nerve_chains,
    sum_diagram,
)
from .fincat import (
    Functor,
    _ids_parse,
    _is_term,
    factor_functor,
    factorization,
    opposite,
    opposite_functor,
    slice_parts,
)
from .groups import fingerprint
from .homalg import normalized_complex
from .presheaf import element_parts, elements_with_parts, inverse_fibre


class GZError(Exception):
    pass


class RouteMismatch(GZError):
    """The two computational routes disagreed: an implementation bug."""


def agreement(lhs, rhs):
    """"agree" when two homology results have the same abelian groups and,
    for group coefficients, the same degree-0 fingerprint."""
    same = lhs["abelian"] == rhs["abelian"]
    if "n0" in lhs:
        same = same and lhs["n0"]["fingerprint"] == rhs["n0"]["fingerprint"]
    return "agree" if same else "disagree"


def _hom_over(cat, over, o1, o2, image):
    """The unique morphism o1 -> o2 of a derived category that ``over``
    (a projection's ``mor_map``, or a factorization's ``pair``) sends to
    ``image``; ``cat.hom`` fills ``over`` for the morphisms it lists."""
    hits = [m for m in cat.hom(o1, o2) if over[m] == image]
    if len(hits) != 1:
        raise GZError("expected exactly one morphism over %r, found %d" % (image, len(hits)))
    return hits[0]


# -- presheaf homology ---------------------------------------------------------


def lan_route_diagram(X, system, elements):
    """The presheaf of groups a |-> free product over X(a) of the system
    values, with transport along morphisms; a diagram over the opposite
    of the base category.  ``elements`` is ``elements_with_parts(X)``."""
    D = X.base
    E, Q, parts = elements
    oid = {(d, x): o for o, (d, x) in parts.items()}

    def transport(alpha, x):
        x2 = X.apply(alpha, x)
        return x2, _hom_over(E, Q.mor_map, oid[(D.dom[alpha], x2)], oid[(D.cod[alpha], x)], alpha)

    blocks = {a: [(x, oid[(a, x)]) for x in X.sets[a]] for a in D.objects}
    return sum_diagram(opposite(D), blocks, transport, system, "C(%s)" % (X.name or "?"))


def coefficient_homology(C, M, n_max):
    """Derived colimits of a diagram M over C; for a group diagram, those of
    its abelianization, and the colim0 presentation with its fingerprint
    under ``n0``."""
    if isinstance(M, AbDiagram):
        return {"abelian": ab_colim_derived(C, M, n_max)}
    pres = colim0(C, M)
    return {
        "n0": {"presentation": pres, "fingerprint": list(fingerprint(pres))},
        "abelian": ab_colim_derived(C, abelianize_diagram(M), n_max),
    }


def gz_homology(X, system, n_max):
    """Homology of a presheaf with coefficients in a contravariant system
    over its category of elements.

    Primary route: derived colimits over the opposite elements category.
    Second route: the same homology through the groupwise free-product
    presheaf over the base; the two answers must agree exactly.
    """
    elements = elements_with_parts(X)
    Eop = opposite(elements[0])
    if system.base != Eop:
        raise GZError("system is not over the opposite category of elements of %s" % (X.name or "?"))
    primary = coefficient_homology(Eop, system, n_max)
    secondary = coefficient_homology(opposite(X.base), lan_route_diagram(X, system, elements),
                                     n_max)
    if agreement(primary, secondary) != "agree":
        raise RouteMismatch("presheaf homology differs between routes")
    return dict(primary, routes_agree=True)


def elements_functor(f):
    """The functor between categories of elements induced by a presheaf
    morphism: (d, x) |-> (d, f_d(x))."""
    EX, QX, partsX = elements_with_parts(f.source)
    EY, QY, partsY = elements_with_parts(f.target)
    oidY = {(d, y): o for o, (d, y) in partsY.items()}
    obj_map = {o: oidY[(d, f.at(d, x))] for o, (d, x) in partsX.items()}
    mor_map = {}
    for m in EX.morphisms:
        o1, o2 = EX.dom[m], EX.cod[m]
        alpha = QX.on_mor(m)
        t1, t2 = obj_map[o1], obj_map[o2]
        if EX.is_identity(m):
            mor_map[m] = EY.identity[t1]
        else:
            mor_map[m] = _hom_over(EY, QY.mor_map, t1, t2, alpha)
    return Functor(EX, EY, obj_map, mor_map, name="el(f)")


def direct_image(f, system, n_max):
    """Kan extension of a contravariant system along a presheaf morphism,
    with the homology-preservation check.

    The opposite of the induced elements functor is always a virtual
    discrete cofibration, so a NotVDC failure here is an internal error.
    """
    S = elements_functor(f)
    Sop = opposite_functor(S)
    pushed = kan_extend_vdc(Sop, system)
    lhs = gz_homology(f.source, system, n_max)
    rhs = gz_homology(f.target, pushed, n_max)
    return {
        "system": pushed,
        "lhs": lhs,
        "rhs": rhs,
        "verdict": agreement(lhs, rhs),
    }


def inverse_image(f, system):
    """Pullback of a contravariant system on the target along a presheaf
    morphism: composition with the opposite elements functor."""
    S = elements_functor(f)
    Sop = opposite_functor(S)
    return system.restrict(Sop)


def certify_fibres(f, n_max, effort=1):
    """The hypothesis of comparing homology along a presheaf morphism f:
    a contractibility verdict on the elements category of every inverse
    fibre, keyed by (d, y), each on its parts (``certify_over``).  The
    fibres' elements are "(x|alpha)", so their ids parse when the names of
    f's source do."""
    X, D = f.source, f.source.base
    parse = _ids_parse(D) and all(_is_term(x) for xs in X.sets.values() for x in xs)
    verdicts = {}
    for d in D.objects:
        for y in f.target.sets[d]:
            verdicts[(d, y)] = certify_over(D, *element_parts(inverse_fibre(f, d, y)), parse,
                                            False, effort, n_max)
    return verdicts


# -- natural-system homology ---------------------------------------------------


def _nerve_transport_pairs(C, fdata, top):
    """The pairs of the opposite factorization category whose composites
    d∘d = 0 rests on in the nerve route through degree ``top``, as
    (g, f, g∘f): (f, id) then (h, id), (id, f) then (id, h), and (f, id)
    and (id, h) in either order, for arrows f and h of C other than
    identities (whose transports are identities), at each object x of the
    factorization category that is the composite of a chain of degree
    top - 2 or less: every arrow of C when top >= 3, its identities when
    top = 2."""
    arrow, comp, ident = fdata.arrow, C.comp, C.identity
    into, out = {o: [] for o in C.objects}, {o: [] for o in C.objects}
    for f in C.morphisms:
        if not C.is_identity(f):
            into[C.cod[f]].append(f)
            out[C.dom[f]].append(f)
    xs = C.morphisms if top >= 3 else [ident[o] for o in C.objects] if top == 2 else []
    for x in xs:
        a, b = C.dom[x], C.cod[x]
        for f in into[a]:
            front, xf = arrow(f, ident[b], x), comp[(x, f)]
            for h in into[C.dom[f]]:
                yield front, arrow(h, ident[b], xf), arrow(comp[(f, h)], ident[b], x)
            for h in out[b]:
                both = arrow(f, h, x)
                yield front, arrow(ident[C.dom[f]], h, xf), both
                yield arrow(ident[a], h, x), arrow(f, ident[C.cod[h]], comp[(h, x)]), both
        for f in out[b]:
            back, fx = arrow(ident[a], f, x), comp[(f, x)]
            for h in out[C.cod[f]]:
                yield back, arrow(ident[a], h, fx), arrow(ident[a], comp[(h, f)], x)


def nerve_route_complex(C, M, n_max, fdata):
    """Nerve-route complex for natural-system homology with abelian
    coefficients: degree-n term the sum of M(composite of sigma) over
    nondegenerate chains sigma (``diagrams.nerve_chains``, under the same
    chain cap), faces acting through the factorization category ``fdata``
    of C: d_0 transports through (f_1, id), d_n through (id, f_n), the
    inner faces keep the composite.  The composite of y·f is f∘(composite
    of y).  The squares of the boundary are proven zero when M's lifts
    compose on the pairs of transports that the simplicial identities
    compose (``lifts_compose`` on ``_nerve_transport_pairs``)."""
    chains = nerve_chains(C, n_max + 1)
    composites = [[C.identity[o] for o in chains.origin[0]]]
    transport = [None]
    for n in range(1, n_max + 2):
        below, here, moves = composites[-1], [], []
        for f1, fn, fs in zip(chains.first[n], chains.last[n], chains.faces[n]):
            # the composites of d_0 sigma and of d_n sigma, its prefix
            tail, prefix = below[fs[0]], below[fs[-1]]
            dsig = C.comp[(fn, prefix)]
            here.append(dsig)
            moves.append({0: M.action[fdata.arrow(f1, C.identity[C.cod[dsig]], tail)].columns,
                          n: M.action[fdata.arrow(C.identity[C.dom[dsig]], fn, prefix)].columns})
        composites.append(here)
        transport.append(moves)
    return normalized_complex([[M.value[d] for d in layer] for layer in composites], chains.faces,
                              transport, squares_vanish=lifts_compose(
                                  fdata.category_op, M, _nerve_transport_pairs(C, fdata, n_max + 1)))


def bw_homology(C, system, n_max):
    """Natural-system homology of a finite category.

    Primary route: derived colimits over the opposite factorization
    category.  Second route (abelian): the nerve complex with coefficients
    transported through the factorization category.  The two must agree
    exactly; for group systems the abelianization is cross-checked."""
    fdata = factorization(C)
    base = fdata.category_op
    if system.base != base:
        raise GZError("system is not over the opposite factorization category of %s" % (C.name or "?"))
    if isinstance(system, AbDiagram):
        abd = system
    else:
        pres = colim0(base, system)
        abd = abelianize_diagram(system)
    primary = ab_colim_derived(base, abd, n_max)
    secondary = nerve_route_complex(C, abd, n_max, fdata)
    if primary != [secondary.homology(n) for n in range(n_max + 1)]:
        raise RouteMismatch("natural-system homology differs between routes")
    res = {"abelian": primary, "routes_agree": True}
    if abd is not system:
        res["n0"] = {"presentation": pres, "fingerprint": list(fingerprint(pres))}
    return res


def certify_slices(S, n_max, effort=1):
    """The hypothesis of comparing natural-system homology along a functor
    S: a contractibility verdict on the slice S<alpha> for every morphism
    alpha of the TARGET category, the only reading under which the slice
    is defined.  Each slice is certified on its parts (``certify_over``)."""
    parse = _ids_parse(S.source) and _ids_parse(S.target)
    return {alpha: certify_over(S.source, *slice_parts(S, alpha), parse, False, effort, n_max)
            for alpha in S.target.morphisms}


def bw_sides(S, system, n_max):
    """Natural-system homology of S's source with the system pulled back
    along S, and of S's target with the system itself."""
    FSop = opposite_functor(factor_functor(S))
    return (bw_homology(S.source, system.restrict(FSop), n_max),
            bw_homology(S.target, system, n_max))


# -- homology with plain diagram coefficients -----------------------------------


def andre_homology(X, diagram, n_max):
    """Homology of a presheaf with coefficients pulled back from a plain
    diagram on the base category, via the category of elements."""
    if diagram.base != X.base:
        raise DiagramError("diagram is not over the base category of %s" % (X.name or "?"))
    E, Q, _ = elements_with_parts(X)
    return coefficient_homology(E, diagram.restrict(Q), n_max)
