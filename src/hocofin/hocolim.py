"""Pointed homotopy colimits of diagrams of truncated simplicial sets.

The homotopy colimit is the diagonal of the simplicial replacement: a
degree-n simplex is a pair (length-n chain of the base, degree-n simplex
of the value at the chain origin), with every pair whose coefficient is
a basepoint degeneracy identified to a single class per degree.  Both
diagonals share one face and degeneracy rule and are built by
``presheaf.simplicial_set``; they differ only in the class a pair stands
for.  The diagonal satisfies the simplicial identities because the
diagram's values and maps do, so it is not checked again: each value is
checked when it is built, each map by its ``SSetMap(..., pointed=True)``
constructor or, in ``bg_diagram``, on its elements, and the diagram (a
``diagrams.Diagram``) checks that each map joins the right values, and
functoriality.
"""

from __future__ import annotations

from . import fincat
from .diagrams import Diagram
from .fincat import chain_degeneracy, chain_face, composable_chains
from .groups import BudgetExceeded, FreeProduct, fingerprint, tietze_simplify, word_key
from .presheaf import PresheafError, SSetMap, edge_path_group, homology_ss, nerve, simplicial_set


class HocolimError(Exception):
    pass


class LevelMismatch(HocolimError):
    pass


class CapExceeded(HocolimError):
    pass


BASECLASS = "*"
CLASSIFYING_SPACE_CAP = 10 ** 5


class PointedDiagram(Diagram):
    """Diagram of pointed truncated simplicial sets over a finite category,
    all values at one common level."""

    __slots__ = ("level",)

    Map = SSetMap
    Error = HocolimError

    def __init__(self, base, level, value, action, name="", _validate=True):
        self.level = level
        super().__init__(base, value, action, name=name, _validate=_validate)

    def _check_value(self, o, X):
        if X.level != self.level:
            raise LevelMismatch("value at %s has level %d, want %d" % (o, X.level, self.level))
        if X.basepoint is None:
            raise HocolimError("value at %s is not pointed" % o)

    def _check_ends(self, f, m, src, dst):
        # structurally identical values will do
        if (m.source is not src or m.target is not dst) and (
                m.source.simplices != src.simplices or m.target.simplices != dst.simplices):
            raise HocolimError("action of %s connects the wrong values" % f)


# -- classifying spaces -------------------------------------------------------


def classifying_space(G, N):
    """(BG as a one-object category, its nerve through degree N pointed at
    the vertex) for a finite group or a free product.

    Free products with two or more nontrivial factors are infinite, so the
    word enumeration raises CapExceeded instead of truncating silently, as
    does a nerve with more than CLASSIFYING_SPACE_CAP top simplices.
    """
    if isinstance(G, FreeProduct):
        try:
            G = G.as_table_group()
        except BudgetExceeded as exc:
            raise CapExceeded(str(exc)) from None
    if G.order() ** N > CLASSIFYING_SPACE_CAP:
        raise CapExceeded("classifying space has %d top simplices" % G.order() ** N)
    cat = fincat.from_monoid(G.elements, G.unit, G.table, name="B(%s)" % (G.name or "?"))
    return cat, nerve(cat, N, basepoint="*")


def _check_arrow_map(mor, src, dst, N):
    """Refuse the nerve map, through degree N, of an arrow map ``mor``
    from one one-object category to another where ``SSetMap._check``
    would, with its message (``bg_diagram``)."""
    if N >= 1 and any(f not in dst.dom for f in mor.values()):
        raise PresheafError("map not total in degree 1")
    if N >= 2 and any(mor[h] != dst.comp[(mor[g], mor[f])] for (g, f), h in src.comp.items()):
        raise PresheafError("map does not commute with d_1")


def bg_diagram(G, N):
    """Pointed diagram of classifying spaces of a group diagram.

    The action of each arrow alpha is the nerve map of the arrow map
    ``mor`` of B(G(dom alpha)) -> B(G(cod alpha)) that sends each element
    to its image under G(alpha) and the identity to the identity.  It is
    built unchecked, after ``_check_arrow_map`` checks ``mor`` in
    |G(dom alpha)|^2 steps, which is enough: a degree-n simplex is a chain
    of n arrows and goes to the chain of their images.  So from degree 1
    on, the map is total exactly when every image is an arrow of the
    target; given that, it commutes with d_1 on the 2-simplices exactly
    when ``mor`` is multiplicative, and a multiplicative ``mor`` commutes
    with every face, outer faces dropping an arrow and inner ones
    composing two.  It commutes with the degeneracies, which insert
    identities, and keeps the basepoint, because ``mor`` keeps the
    identity.  ``SSetMap._check`` walks every face and degeneracy of both
    level-N nerves and refuses the same maps with the same message.
    """
    cats = {}
    values = {}
    words = {}
    for o in G.base.objects:
        fp = G.value[o]
        cats[o], values[o] = classifying_space(fp, N)
        words[o] = {word_key(w): w for w in fp.elements()}
    actions = {}
    for alpha in G.base.morphisms:
        if G.base.is_identity(alpha):
            continue
        src_o, dst_o = G.base.dom[alpha], G.base.cod[alpha]
        src, dst = cats[src_o], cats[dst_o]
        hom = G.action[alpha]
        unit = dst.identity["*"]
        mor = {src.identity["*"]: unit}
        for m in src.morphisms:
            if m not in mor:
                key = word_key(hom.apply(words[src_o][m]))
                mor[m] = unit if key == "1" else key
        _check_arrow_map(mor, src, dst, N)
        Xs, Xt = values[src_o], values[dst_o]
        # both nerves have the one object "*", so a chain keeps its origin
        mapping = [{x: x[:1] + tuple(mor[m] for m in x[1:]) for x in Xs.simplices[n]}
                   for n in range(N + 1)]
        actions[alpha] = SSetMap(Xs, Xt, mapping, _validate=False)
    return PointedDiagram(G.base, N, values, actions, name="B(%s)" % (G.name or "?"))


# -- the diagonal -------------------------------------------------------------


def _diagonal(PD, N, cls, basepoint=None):
    """Diagonal of the simplicial replacement through degree N: each pair
    (chain sigma, coefficient simplex x) stands for its class
    ``cls(sigma, x)``.  A ``basepoint`` class comes first in each degree;
    the structure maps fix it."""
    if PD.level < N:
        raise LevelMismatch("diagram level %d below requested %d" % (PD.level, N))
    C = PD.base
    simplices = []
    for n in range(N + 1):
        layer = [] if basepoint is None else [basepoint]
        for sigma in composable_chains(C, n):
            for x in PD.value[sigma[0]].simplices[n]:
                cell = cls(sigma, x)
                if cell != basepoint:
                    layer.append(cell)
        simplices.append(layer)

    def face(cell, i):
        if cell == basepoint:
            return cell
        sigma, x = cell
        n = len(sigma) - 1
        sigma2 = chain_face(C, sigma, i)
        if i == 0:
            x = PD.action[sigma[1]].mapping[n][x]
        return cls(sigma2, PD.value[sigma2[0]].faces[(n, i)][x])

    def degeneracy(cell, i):
        if cell == basepoint:
            return cell
        sigma, x = cell
        x = PD.value[sigma[0]].degeneracies[(len(sigma) - 1, i)][x]
        return cls(chain_degeneracy(C, sigma, i), x)

    return simplicial_set(N, simplices, face, degeneracy, basepoint)


def hocolim_unpointed(PD, N):
    """Diagonal of the simplicial replacement, without basepoint
    identifications: all pairs (chain, coefficient simplex)."""
    return _diagonal(PD, N, lambda sigma, x: (sigma, x))


def hocolim_pointed(PD, N):
    """Pointed homotopy colimit: the diagonal with all (chain, basepoint
    degeneracy) pairs identified to one class per degree."""
    base_of = {o: [PD.value[o].base_degeneracy(n) for n in range(PD.level + 1)]
               for o in PD.base.objects}

    def cls(sigma, x):
        return BASECLASS if x == base_of[sigma[0]][len(sigma) - 1] else (sigma, x)

    return _diagonal(PD, N, cls, BASECLASS)


# -- the quotient identity -----------------------------------------------------


def pointed_quotient_check(PD, N):
    """Degreewise check that collapsing the basepoint-chain subcomplex of
    the unpointed diagonal yields exactly the pointed diagonal.

    Verifies that the chain inclusion is a degreewise injection closed
    under faces and degeneracies (a cofibration), forms the quotient, and
    compares carriers and structure maps with the pointed construction.
    Failures are reported with a witness, not raised.
    """
    C = PD.base
    U = hocolim_unpointed(PD, N)
    P = hocolim_pointed(PD, N)
    base_of = {o: [PD.value[o].base_degeneracy(n) for n in range(N + 1)] for o in C.objects}
    sub = []
    for n in range(N + 1):
        layer = set()
        for sigma in composable_chains(C, n):
            layer.add((sigma, base_of[sigma[0]][n]))
        sub.append(layer)
    report = {"pass": True, "witness": None, "levels": N}

    def fail(why, **kw):
        report["pass"] = False
        report["witness"] = dict(why=why, **kw)
        return report

    # injectivity of the basepoint-chain inclusion, degreewise
    for n in range(N + 1):
        chains = composable_chains(C, n)
        if len(sub[n]) != len(chains):
            return fail("inclusion not injective", degree=n)
    # closure of the subcomplex under faces and degeneracies
    for n in range(1, N + 1):
        for i in range(n + 1):
            for cell in sub[n]:
                if U.face(n, i, cell) not in sub[n - 1]:
                    return fail("subcomplex not closed under faces", degree=n, i=i)
    for n in range(N):
        for i in range(n + 1):
            for cell in sub[n]:
                if U.degeneracy(n, i, cell) not in sub[n + 1]:
                    return fail("subcomplex not closed under degeneracies", degree=n, i=i)
    # the quotient carrier must biject with the pointed carrier
    for n in range(N + 1):
        quot = [BASECLASS] + [c for c in U.simplices[n] if c not in sub[n]]
        if sorted(map(repr, quot)) != sorted(map(repr, P.simplices[n])):
            return fail("carrier mismatch", degree=n)
    # structure maps must agree with the quotient-induced ones
    for n in range(1, N + 1):
        for i in range(n + 1):
            for cell in U.simplices[n]:
                if cell in sub[n]:
                    continue
                img = U.face(n, i, cell)
                want = BASECLASS if img in sub[n - 1] else img
                if P.face(n, i, cell) != want:
                    return fail("face mismatch", degree=n, i=i, cell=repr(cell))
    for n in range(N):
        for i in range(n + 1):
            for cell in U.simplices[n]:
                if cell in sub[n]:
                    continue
                img = U.degeneracy(n, i, cell)
                want = BASECLASS if img in sub[n + 1] else img
                if P.degeneracy(n, i, cell) != want:
                    return fail("degeneracy mismatch", degree=n, i=i, cell=repr(cell))
    return report


# -- cofinal comparison ---------------------------------------------------------


def compare_restriction(S, PD, N, n_max):
    """Compare homology and fundamental-group fingerprints of the pointed
    homotopy colimits over the source (restricted diagram) and target.

    Equality of these invariants is necessary for the restriction map to
    be a weak equivalence; the report never claims more.  A fingerprint
    over its budget raises BudgetExceeded; it is never read as agreement.
    """
    lhs = hocolim_pointed(PD.restrict(S), N)
    rhs = hocolim_pointed(PD, N)
    h_l = homology_ss(lhs, n_max)
    h_r = homology_ss(rhs, n_max)
    pi_l = list(fingerprint(tietze_simplify(edge_path_group(lhs))))
    pi_r = list(fingerprint(tietze_simplify(edge_path_group(rhs))))
    agree = h_l == h_r and pi_l == pi_r
    return {
        "homology": {"lhs": [str(h) for h in h_l], "rhs": [str(h) for h in h_r]},
        "pi1": {"lhs": pi_l, "rhs": pi_r},
        "verdict": "agree" if agree else "disagree",
    }
