"""Group and abelian diagrams over finite categories.

``Diagram`` is the one diagram core: a value at every object, an action
at every morphism, identity actions filled in, and one functoriality
check, one ``restrict`` and one ``__repr__``.  ``GroupDiagram``,
``AbDiagram`` and ``hocolim.PointedDiagram`` name only their map class,
their error class and how an action must fit its values.

The simplicial replacement of a diagram has degree-n part the free
product (direct sum, in the abelian case) of the values at chain origins
over all length-n composable chains.  Degree 0 of its homotopy is the
ordinary colimit, delivered as a presentation; the abelian homology in
every degree is computed from the normalized (nondegenerate-chain)
complex, which is finite per degree even for categories with
endomorphism loops.

Derived colimits are assembled over the reflective core of the index
category: objects with a universal arrow into the rest are removed one
at a time, which is sound because the inclusion of the core is then
homotopy cofinal (see ``ab_colim_derived``).  Only arrows out of a
removed object serve colimits; the colim0 presentation stays over the
whole category, so its generator names do not change.
"""

from __future__ import annotations

import copy

from . import fincat
from .cofinal import analyze_fibres, reflective_core
from .fincat import Functor, NerveTable, chain_counts, full_subcategory
from .groups import FreeProduct, GroupHom, GroupPresentation, table_relators, tietze_simplify
from .homalg import AbMap, FGAb, block_map, block_sum, normalized_complex


class DiagramError(Exception):
    pass


class TruncationUnsound(DiagramError):
    """Per-degree chain count went over the configured cap; a resource
    limit, not a mathematical failure."""


class NotVDC(DiagramError):
    pass


DEFAULT_CHAIN_CAP = 200000


class Diagram:
    """Functor from a finite category to values with maps between them.

    Every object needs a value, and identity actions are filled in.  The
    check asks for an action at every morphism, between the right values
    (``_check_ends``), identities acting as identities and composition
    respected, all compared with ``Map.equals``; a failure raises
    ``Error``.  Who checks an action: that it is a map of its kind (a
    homomorphism, a simplicial map) is its constructor's check, made once
    when it is built or skipped by a builder whose maps are maps by
    construction; the diagram checks only its ends.  A kind of diagram
    names its ``Map`` class, which gives ``identity``, ``compose`` and
    ``equals``, its ``Error`` and its ``_check_ends``.
    """

    __slots__ = ("base", "value", "action", "name")

    Error = DiagramError

    def __init__(self, base, value, action, name="", _validate=True):
        self.base = base
        self.value = dict(value)
        self.action = dict(action)
        self.name = name
        for o in base.objects:
            if self.value.get(o) is None:
                raise self.Error("diagram misses a value at %s" % o)
            self._check_value(o, self.value[o])
        for o in base.objects:
            if base.identity[o] not in self.action:
                self.action[base.identity[o]] = self.Map.identity(self.value[o])
        if _validate:
            self._check()

    def _check_value(self, o, X):
        """Refuse a value of the wrong kind; any value will do here."""

    def _check(self):
        B = self.base
        for f in B.morphisms:
            m = self.action.get(f)
            if m is None:
                raise self.Error("diagram misses the action of %s" % f)
            self._check_ends(f, m, self.value[B.dom[f]], self.value[B.cod[f]])
        for o in B.objects:
            if not self.action[B.identity[o]].equals(self.Map.identity(self.value[o])):
                raise self.Error("identity of %s does not act as the identity" % o)
        for g, f in B.composable_pairs():
            if not self.action[B.comp[(g, f)]].equals(self.action[g].compose(self.action[f])):
                raise self.Error("functoriality fails at (%s, %s)" % (g, f))

    def restrict(self, S):
        """Composition with a functor into the base."""
        out = copy.copy(self)
        out.base = S.source
        out.value = {c: self.value[S.on_obj(c)] for c in S.source.objects}
        out.action = {f: self.action[S.on_mor(f)] for f in S.source.morphisms}
        out.name = self.name and self.name + "|"
        return out

    def __repr__(self):
        return "%s(%s over %s)" % (type(self).__name__, self.name or "?", self.base.name or "?")


class GroupDiagram(Diagram):
    """Functor from a finite category to free products of finite groups."""

    __slots__ = ()

    Map = GroupHom

    def _check_ends(self, f, h, src, dst):
        if h.source is not src and h.source.factors != src.factors:
            raise DiagramError("action of %s has the wrong source" % f)
        if h.target is not dst and h.target.factors != dst.factors:
            raise DiagramError("action of %s has the wrong target" % f)


class AbDiagram(Diagram):
    """Functor from a finite category to finitely presented abelian groups,
    with actions as AbMaps compared modulo the target relation lattices.
    That an action respects its source relations is the AbMap's own
    check; the builders that skip it (block sums, abelianization) respect
    them by construction."""

    __slots__ = ()

    Map = AbMap

    def _check_ends(self, f, m, src, dst):
        if m.source.gens != src.gens or m.target.gens != dst.gens:
            raise DiagramError("action of %s has the wrong shape" % f)


def constant_ab_diagram(C, group, name="const"):
    return AbDiagram(
        C,
        {o: group for o in C.objects},
        {f: AbMap.identity(group) for f in C.morphisms},
        name=name,
        _validate=False,
    )


def constant_group_diagram(C, fp, name="const"):
    return GroupDiagram(
        C,
        {o: fp for o in C.objects},
        {f: GroupHom.identity(fp) for f in C.morphisms},
        name=name,
        _validate=False,
    )


# -- colimits ----------------------------------------------------------------


def _gen_name(obj, lbl, el):
    return "%s|%s|%s" % (obj, lbl, el)


def colim0(C, G):
    """Presentation of the colimit of a group diagram.

    Generators: every non-unit element of every factor of every value.
    Relations: the factor multiplication tables, plus x = G(alpha)(x) for
    every morphism alpha and factor element x.  Tietze-simplified before
    return.
    """
    gens, relators = [], []
    for obj in C.objects:
        for lbl, grp in G.value[obj].factors:
            names = {el: _gen_name(obj, lbl, el) for el in grp.elements if el != grp.unit}
            gens.extend(names.values())
            relators.extend(table_relators(grp, names))
    for alpha in C.morphisms:
        if C.is_identity(alpha):
            continue
        src_obj, dst_obj = C.dom[alpha], C.cod[alpha]
        hom = G.action[alpha]
        for lbl, grp in G.value[src_obj].factors:
            for el in grp.elements:
                if el == grp.unit:
                    continue
                image = hom.per_factor[lbl][el]
                rel = [(_gen_name(src_obj, lbl, el), 1)] + [
                    (_gen_name(dst_obj, l2, e2), -1) for l2, e2 in reversed(image)
                ]
                relators.append(tuple(rel))
    return tietze_simplify(GroupPresentation(gens, relators))


def ab_colim_derived(C, M, n_max):
    """Derived colimits of an abelian diagram for n = 0..n_max.

    Homology of the normalized simplicial-replacement complex: degree-n
    term is the direct sum of M(origin) over nondegenerate chains, with
    boundary the alternating face sum, faces hitting degenerate chains
    contributing zero; computed through degree n_max + 1.

    The complex is assembled over the reflective core A of C
    (``cofinal.reflective_core``), with M restricted to A, and the chain
    cap counts A's chains.  Every coslice c↓A has an initial object, a
    universal arrow c -> a, so the inclusion of A is homotopy cofinal
    and leaves the derived colimits unchanged (Bousfield–Kan XI.9.2,
    Quillen's Theorem A).  Colimits need arrows out of c into A;
    universal arrows into c (coreflections) would serve limits instead.
    """
    kept, _ = reflective_core(C)
    if len(kept) < len(C.objects):
        A = full_subcategory(C, kept)
        M = M.restrict(Functor(A, C, {o: o for o in A.objects},
                               {f: f for f in A.morphisms}, _validate=False))
        C = A
    complex_ = srep_ab_complex(C, M, n_max)
    return [complex_.homology(n) for n in range(n_max + 1)]


def nerve_chains(C, top):
    """The nondegenerate nerve chains of C in degrees 0..top, as a
    ``fincat.NerveTable``.  Their number in each degree is counted first,
    and TruncationUnsound is raised, before any chain is built, when a
    degree has more than ``DEFAULT_CHAIN_CAP``."""
    for n, count in enumerate(chain_counts(C, top)):
        if count > DEFAULT_CHAIN_CAP:
            raise TruncationUnsound(
                "degree %d has %d chains (cap %d)" % (n, count, DEFAULT_CHAIN_CAP))
    return NerveTable(C, top)


def _is_identity_columns(m):
    """Whether the AbMap m is the identity on generators."""
    return m.target.gens == len(m.columns) and all(
        len(col) == 1 and col.get(k) == 1 for k, col in enumerate(m.columns))


def lifts_compose(C, M, triples=None):
    """Whether the actions of the abelian diagram M over C compose
    exactly on generators, not only modulo relations: every identity
    acts by identity columns, and ``action[g∘f].columns`` is ``action[g]``
    applied to ``action[f].columns`` for every composable pair, or for
    each (g, f, g∘f) that ``triples`` lists.  Then the complexes built
    from chains of C with M's actions as transports (the simplicial
    replacement, the nerve route of ``gz`` with its own pairs) have
    d∘d = 0 on their free covers, by the simplicial identities of the
    nerve."""
    action = M.action
    plain = {f for f in C.morphisms if _is_identity_columns(action[f])}
    if any(C.identity[o] not in plain for o in C.objects):
        return False
    if len(plain) == len(C.morphisms):
        return True
    if triples is None:
        triples = ((g, f, C.comp[(g, f)]) for g, f in C.composable_pairs())
    for g, f, gf in triples:
        if g in plain:
            want = action[f].columns
        elif f in plain:
            want = action[g].columns
        else:
            want = action[g].compose(action[f]).columns
        if action[gf].columns != want:
            return False
    return True


def srep_ab_complex(C, M, n_max):
    """Normalized simplicial-replacement complex of an abelian diagram in
    degrees 0..n_max + 1 (``nerve_chains``, which refuses more than
    ``DEFAULT_CHAIN_CAP`` chains in a degree).  The face d_0 transports
    along the first arrow (written as the identity when it is one on
    generators), the others keep the value.  The squares of the boundary
    are proven zero when M's lifts compose (``lifts_compose``); otherwise
    ``ChainComplex`` takes them chain by chain."""
    chains = nerve_chains(C, n_max + 1)
    moves = {f: {} if _is_identity_columns(M.action[f]) else {0: M.action[f].columns}
             for f in chains.first[1]}
    return normalized_complex(
        [[M.value[o] for o in layer] for layer in chains.origin], chains.faces,
        [None] + [[moves[f] for f in layer] for layer in chains.first[1:]],
        squares_vanish=lifts_compose(C, M))


# -- abelianization ----------------------------------------------------------


def abelianize_free_product(fp):
    """Direct sum of the factor abelianizations, with one generator per
    non-unit element; returns (FGAb, generator index list)."""
    gens, cols = [], []
    for lbl, grp in fp.factors:
        index = {}
        for el in grp.elements:
            if el != grp.unit:
                index[el] = len(gens)
                gens.append((lbl, el))
        # a + b - ab, with a and b the same generator when a = b
        for rel in table_relators(grp, index):
            col = {}
            for i, e in rel:
                col[i] = col.get(i, 0) + e
            cols.append(col)
    return FGAb(len(gens), cols), gens


def abelianize_diagram(G):
    """Objectwise abelianization of a group diagram."""
    values = {}
    gen_lists = {}
    for o in G.base.objects:
        values[o], gen_lists[o] = abelianize_free_product(G.value[o])
    actions = {}
    for alpha in G.base.morphisms:
        src_o, dst_o = G.base.dom[alpha], G.base.cod[alpha]
        hom = G.action[alpha]
        src_gens = gen_lists[src_o]
        dst_idx = {g: i for i, g in enumerate(gen_lists[dst_o])}
        cols = []
        for lbl, el in src_gens:
            col = {}
            for l2, e2 in hom.per_factor[lbl][el]:
                i = dst_idx[(l2, e2)]
                col[i] = col.get(i, 0) + 1
            cols.append(col)
        actions[alpha] = AbMap(values[src_o], values[dst_o], cols, check=False)
    return AbDiagram(G.base, values, actions, name=G.name and "ab(%s)" % G.name)


# -- Kan extension along virtual discrete cofibrations ------------------------


def kan_extend_vdc(S, diagram):
    """Left Kan extension along a virtual discrete cofibration.

    The value at d is the free product (direct sum) of the diagram values
    at the chosen final objects of the components of S↓d; a morphism
    beta: d -> d' sends the factor at gamma to the factor at the final
    object of the component of beta∘gamma, transporting coefficients
    along the unique arrow into it.

    Raises NotVDC when some fibre component has no final object.
    """
    if diagram.base != S.source:
        raise DiagramError("diagram is not over the source category of %s" % (S.name or "?"))
    fibres = analyze_fibres(S)
    for d, fa in fibres.items():
        if not fa.ok:
            raise NotVDC("fibre over %s has a component without a final object" % d)
    D = S.target

    def transport(beta, gamma):
        c, u = fibres[D.dom[beta]].parts[gamma]
        fa2 = fibres[D.cod[beta]]
        arrow, phi = fa2.final_morphism(fincat.over_id((c, D.comp[(beta, u)])))
        return phi, fa2.proj.on_mor(arrow)

    parts = {d: [(gamma, fa.parts[gamma][0]) for gamma in fa.chosen] for d, fa in fibres.items()}
    return sum_diagram(D, parts, transport, diagram, "Lan(%s)" % (diagram.name or "?"))


def sum_diagram(base, parts, transport, coeff, name):
    """Diagram over base whose value at d sums coefficient values: a direct
    sum for an AbDiagram ``coeff``, a free product for a GroupDiagram.

    ``parts[d]`` lists (key, c) pairs, one block coeff.value[c] per key.
    ``transport(beta, key)`` returns (key2, alpha): the morphism beta of
    base carries the block at key into the block at key2 through
    coeff.action[alpha].  The constructor validates the result.
    """
    actions = {}
    if isinstance(coeff, AbDiagram):
        values, offsets = {}, {}
        for d in base.objects:
            values[d], off = block_sum([coeff.value[c] for _, c in parts[d]])
            offsets[d] = {key: o for (key, _), o in zip(parts[d], off)}
        for beta in base.morphisms:
            d, d2 = base.dom[beta], base.cod[beta]
            entries = []
            for key, _ in parts[d]:
                key2, alpha = transport(beta, key)
                entries.append((offsets[d2][key2], offsets[d][key], 1, coeff.action[alpha].columns))
            actions[beta] = block_map(values[d], values[d2], entries)
        return AbDiagram(base, values, actions, name=name)
    values = {
        d: FreeProduct([
            ("%s::%s" % (key, lbl), grp) for key, c in parts[d] for lbl, grp in coeff.value[c].factors
        ])
        for d in base.objects
    }
    for beta in base.morphisms:
        d, d2 = base.dom[beta], base.cod[beta]
        per = {}
        for key, c in parts[d]:
            key2, alpha = transport(beta, key)
            hom = coeff.action[alpha]
            for lbl, grp in coeff.value[c].factors:
                per["%s::%s" % (key, lbl)] = {
                    el: tuple(("%s::%s" % (key2, l2), e2) for l2, e2 in hom.per_factor[lbl][el])
                    for el in grp.elements
                }
        actions[beta] = GroupHom(values[d], values[d2], per, _validate=False)
    return GroupDiagram(base, values, actions, name=name)
