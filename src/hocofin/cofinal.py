"""Decision procedures for contractibility and homotopy cofinality.

Contractibility of a nerve is undecidable in general, so the certifier is
honest about what it knows: CONTRACTIBLE comes with a replayable
certificate (a cone object, possibly after a sequence of collapses,
each removing one object, or two at effort 2 and up), NONCONTRACTIBLE
comes with a conclusive witness (emptiness, disconnectedness, or a
nonzero reduced homology group), EVIDENCE means the reduced homology was
trivial up to the checked degree, and INCONCLUSIVE means a resource cap
was hit first.

A certificate over a base (``certify_over``) looks for the cone on the
parts of the objects, before any view is built, and builds a view only
where there is no cone; so a cone answer builds no view at all.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from math import comb

from .fincat import (
    NerveTable,
    _comma_like,
    _ids_parse,
    chain_counts,
    comma_left_fibre,
    connected_components,
    coslice_parts,
    fibre_parts,
    final_objects,
    iter_final_objects,
    objects_over,
    opposite,
    over_id,
    parts_count,
)
# tietze_simplify is no longer called here; perfbench's tracer self-test
# reads this from-import copy of the binding
from .groups import tietze_simplify
from .homalg import FGAb, normalized_complex


CONTRACTIBLE = "CONTRACTIBLE"
EVIDENCE = "EVIDENCE"
NONCONTRACTIBLE = "NONCONTRACTIBLE"
INCONCLUSIVE = "INCONCLUSIVE"

_RANK = {NONCONTRACTIBLE: 0, INCONCLUSIVE: 1, EVIDENCE: 2, CONTRACTIBLE: 3}


class ContractibilityVerdict:
    """Outcome of a contractibility check; ordered by strength."""

    __slots__ = ("kind", "certificate", "witness", "checks")

    def __init__(self, kind, certificate=None, witness=None, checks=None):
        self.kind = kind
        self.certificate = certificate
        self.witness = witness
        self.checks = checks

    def rank(self):
        return _RANK[self.kind]

    def to_json(self):
        out = {"verdict": self.kind}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.witness is not None:
            out["witness"] = self.witness
        if self.checks is not None:
            out["checks"] = self.checks
        return out

    def __repr__(self):
        return "Verdict(%s)" % self.kind


def weakest(verdicts):
    verdicts = list(verdicts)
    if not verdicts:
        return ContractibilityVerdict(CONTRACTIBLE, certificate={"kind": "vacuous"})
    return min(verdicts, key=lambda v: v.rank())


# -- finally discrete categories ---------------------------------------------


def is_finally_discrete(B):
    """Whether every connected component has a final object (final within
    the component's full subcategory); returns per-component witnesses."""
    details = []
    ok = True
    for comp in connected_components(B):
        fins = final_objects(B, comp)
        details.append({"component": comp, "final_objects": fins})
        if not fins:
            ok = False
    return ok, details


class _FibreAnalysis:
    """A left fibre S↓d with its projection and parts, the components and
    final objects of ``is_finally_discrete``, and the chosen final object
    of each component: its first, in object order, or None."""

    __slots__ = ("cat", "proj", "parts", "ok", "components", "chosen", "comp_of")

    def __init__(self, cat, proj, parts):
        self.cat = cat
        self.proj = proj
        self.parts = parts
        self.ok, self.components = is_finally_discrete(cat)
        self.chosen = [w["final_objects"][0] if w["final_objects"] else None
                       for w in self.components]
        self.comp_of = {o: k for k, w in enumerate(self.components) for o in w["component"]}

    def final_morphism(self, obj):
        """The unique morphism from obj to the chosen final object of its
        component, and that object."""
        tgt = self.chosen[self.comp_of[obj]]
        return self.cat.hom(obj, tgt)[0], tgt


def analyze_fibres(S):
    """Left-fibre analysis of a functor at every target object."""
    return {d: _FibreAnalysis(*comma_left_fibre(S, d)) for d in S.target.objects}


def is_vdc(S):
    """Whether every left fibre S↓d is finally discrete; returns the
    per-fibre witnesses."""
    witnesses = {d: {"finally_discrete": fa.ok, "components": fa.components}
                 for d, fa in analyze_fibres(S).items()}
    return all(w["finally_discrete"] for w in witnesses.values()), witnesses


# -- contractibility ----------------------------------------------------------


class _Neighbours:
    """The arrows out of and into each object of B, each list ordered by
    the position of the arrow's other end in ``B.objects``, then by
    morphism order.  The collapse search reads B restricted to a state
    through it, so it never copies a subcategory."""

    __slots__ = ("B", "out", "into")

    def __init__(self, B):
        index = {o: i for i, o in enumerate(B.objects)}
        self.B = B
        self.out = {o: [] for o in B.objects}
        self.into = {o: [] for o in B.objects}
        for f in B.morphisms:
            self.out[B.dom[f]].append(f)
            self.into[B.cod[f]].append(f)
        for o in B.objects:
            self.out[o].sort(key=lambda f: index[B.cod[f]])
            self.into[o].sort(key=lambda f: index[B.dom[f]])


def _reflection(nb, x, state, removed):
    """Universal arrow from x into the full subcategory on the rest, state
    minus ``removed``: the first u: x -> r, r in the rest, through which
    every x -> y (y in the rest) factors uniquely, as (r, u).

    Only the arrows out of x and out of r that stay in the rest are read;
    u factors every such arrow uniquely exactly when g -> g∘u maps the
    arrows out of r injectively onto the arrows out of x."""
    cod, comp = nb.B.cod, nb.B.comp
    outs = [f for f in nb.out[x] if cod[f] in state and cod[f] not in removed]
    for u in outs:
        r = cod[u]
        images = [comp[(g, u)] for g in nb.out[r] if cod[g] in state and cod[g] not in removed]
        if len(images) == len(outs) and len(set(images)) == len(images):
            return r, u
    return None


def reflective_core(C):
    """The objects of a full subcategory A of C whose inclusion is
    homotopy cofinal, and the steps that certify it.

    Passes over ``C.objects`` in order, until a pass removes nothing,
    remove each object x that has a universal arrow u: x -> r into the
    objects still kept (``_reflection``), recording the step (x, r, u).
    Universal arrows compose, so u followed by the steps out of r is an
    initial object of the coslice x↓A, and x↓A is contractible; a kept
    object is initial in its own coslice.  An isomorphism is a universal
    arrow, so isomorphic objects collapse to one.  Returns (kept objects in C's order, steps in removal order); a
    one-object category is returned as it is."""
    if len(C.objects) <= 1:
        return list(C.objects), []
    nb = _Neighbours(C)
    kept = set(C.objects)
    steps = []
    removed = True
    while removed:
        removed = False
        for x in C.objects:
            hit = x in kept and _reflection(nb, x, kept, (x,))
            if hit:
                kept.discard(x)
                steps.append((x,) + hit)
                removed = True
    return [o for o in C.objects if o in kept], steps


def _coreflection(nb, x, state, removed):
    dom, comp = nb.B.dom, nb.B.comp
    ins = [f for f in nb.into[x] if dom[f] in state and dom[f] not in removed]
    for u in ins:
        r = dom[u]
        images = [comp[(u, g)] for g in nb.into[r] if dom[g] in state and dom[g] not in removed]
        if len(images) == len(ins) and len(set(images)) == len(images):
            return r, u
    return None


class _Cones:
    """The first final object, in object order, of the full subcategory
    on the alive objects, kept up to date as objects are removed and
    restored; given the arrows reversed, the first initial one.

    ``alive`` is the caller's set, read as it changes.  ``reach[z]`` maps
    each object t to the number of arrows z -> t.  Per
    object t, ``arrows[t]`` counts the arrows into t from alive objects
    and ``sources[t]`` the alive objects they come from; the alive objects
    are bucketed by the latter.  t is final exactly when both counts equal
    the number of alive objects: an arrow from each, and no two from one.
    Removing or restoring z changes the counts only at the ends of z's
    arrows."""

    __slots__ = ("reach", "index", "alive", "arrows", "sources", "bucket")

    def __init__(self, reach, index, alive):
        self.reach = reach
        self.index = index
        self.alive = alive
        self.arrows = dict.fromkeys(reach, 0)
        self.sources = dict.fromkeys(reach, 0)
        for ends in reach.values():
            for t, c in ends.items():
                self.arrows[t] += c
                self.sources[t] += 1
        self.bucket = defaultdict(set)
        for t, k in self.sources.items():
            self.bucket[k].add(t)

    def first(self, n):
        """The least index of a final object among n alive objects, or None."""
        hits = [self.index[t] for t in self.bucket.get(n, ()) if self.arrows[t] == n]
        return min(hits) if hits else None

    def remove(self, z):
        """Account for z, already taken out of ``alive``."""
        self.bucket[self.sources[z]].discard(z)
        self._move(z, -1)

    def restore(self, z):
        """Account for z, not yet put back into ``alive``."""
        self._move(z, 1)
        self.bucket[self.sources[z]].add(z)

    def _move(self, z, sign):
        arrows, sources, bucket, alive = self.arrows, self.sources, self.bucket, self.alive
        for t, c in self.reach[z].items():
            arrows[t] += sign * c
            k = sources[t]
            sources[t] = k + sign
            if t in alive:
                bucket[k].discard(t)
                bucket[k + sign].add(t)


def _collapse_search(B, effort, max_states=20000):
    """Search for a collapse of B onto a cone, removing one object at a
    time (two at higher effort); depth-first with memoized dead ends.

    A state's candidates come in this order: each object, in B's order,
    that has a reflection into the rest, else a coreflection; then, at
    effort 2 and up, each pair of objects that both reflect, else both
    coreflect, into the rest.  The first candidate whose state collapses
    wins.  A state is counted against ``max_states`` when it is entered
    and is not a known dead end; past the cap the search gives None.

    The search keeps its own stack, so its depth is not bounded by
    Python's recursion limit.  It holds one state, the set of alive
    objects, which a step changes and the way back undoes; the steps
    along the path are the certificate.  A dead end is memoized by the
    bitmask of the removed objects' indices, updated by one xor per
    object; a success ends the search, so it is never memoized.

    Removing or restoring an object z changes what the search reads only
    at z's neighbours, the other ends of z's arrows:

    - the cone check reads counters (``_Cones``) updated there;
    - a reflection u: x -> r reads the arrows out of x and out of r to
      the rest, and each arrow g out of r gives one out of x, g∘u, so
      whether x reflects depends only on which of x's out-neighbours are
      alive; whether it coreflects, only on its in-neighbours.  So each
      object's status (reflection, else coreflection, else none) is
      cached and dropped at z's neighbours, which are also pushed onto a
      min-heap of object indices.  Every alive object whose status is a
      hit is on the heap, so a state's first candidate is the least
      index on it that is alive with a hit; the others are popped.

    A state that resumes after a dead end scans onward in B's order; pairs
    are found by ``_reflection`` and ``_coreflection`` of both objects.
    """
    nb = _Neighbours(B)
    objects = B.objects
    index = {o: i for i, o in enumerate(objects)}
    succ = {o: {} for o in objects}
    pred = {o: {} for o in objects}
    for f in B.morphisms:
        x, y = B.dom[f], B.cod[f]
        succ[x][y] = succ[x].get(y, 0) + 1
        pred[y][x] = pred[y].get(x, 0) + 1
    near = {o: [index[y] for y in succ[o].keys() | pred[o].keys() if y != o] for o in objects}
    alive = set(objects)
    sides = (("final", _Cones(succ, index, alive)), ("initial", _Cones(pred, index, alive)))
    status = {}
    heap = list(range(len(objects)))

    def single(x):
        """(direction, via) of x's reflection, else coreflection, into
        the rest; None when it has neither."""
        if x not in status:
            hit = _reflection(nb, x, alive, (x,))
            if hit:
                status[x] = ("reflection", hit[0])
            else:
                hit = _coreflection(nb, x, alive, (x,))
                status[x] = hit and ("coreflection", hit[0])
        return status[x]

    def changed(z):
        for i in near[z]:
            status.pop(objects[i], None)
            heappush(heap, i)

    def candidates():
        start = len(objects)
        while heap:
            x = objects[heap[0]]
            if x in alive and single(x):
                start = heap[0]
                break
            heappop(heap)
        for i in range(start, len(objects)):
            x = objects[i]
            hit = x in alive and single(x)
            if hit:
                yield {"removed": [x], "via": hit[1], "direction": hit[0]}
        if effort >= 2 and len(alive) > 2:
            objs = [o for o in objects if o in alive]
            for i, x in enumerate(objs):
                for y in objs[i + 1 :]:
                    rx = _reflection(nb, x, alive, (x, y))
                    ry = rx and _reflection(nb, y, alive, (x, y))
                    if ry:
                        yield {"removed": [x, y], "via": (rx[0], ry[0]),
                               "direction": "reflection"}
                        continue
                    cx = _coreflection(nb, x, alive, (x, y))
                    cy = cx and _coreflection(nb, y, alive, (x, y))
                    if cy:
                        yield {"removed": [x, y], "via": (cx[0], cy[0]),
                               "direction": "coreflection"}

    dead = set()
    mask = 0
    visited = 0
    path = []  # the step into each state after the first
    stack = []  # the candidates of each state on the path that has any
    while True:
        if mask not in dead:
            visited += 1
            if visited > max_states:
                return None
            for side, cones in sides:
                t = cones.first(len(alive))
                if t is not None:
                    return {"kind": "collapse", "steps": path, "cone": objects[t], "side": side}
            if len(alive) > 1:
                stack.append(candidates())
            else:
                dead.add(mask)
        step = next(stack[-1], None) if len(stack) > len(path) else None
        while step is None:
            if len(stack) > len(path):
                stack.pop()
                dead.add(mask)
            if not path:
                return None
            for z in reversed(path.pop()["removed"]):
                for _, cones in sides:
                    cones.restore(z)
                alive.add(z)
                mask ^= 1 << index[z]
                changed(z)
                heappush(heap, index[z])
            step = next(stack[-1], None)
        path.append(step)
        for z in step["removed"]:
            alive.discard(z)
            for _, cones in sides:
                cones.remove(z)
            mask ^= 1 << index[z]
            changed(z)


def _nerve_sizes(B, n):
    """Chain counts of the nerve per degree up to n, identities included.
    A chain of degree m with identities in m - k of its m slots is a
    nondegenerate chain of degree k, so degree m has the sum over k of
    C(m, k) times the nondegenerate count (``chain_counts``)."""
    nondegenerate = chain_counts(B, n)
    return [sum(comb(m, k) * nondegenerate[k] for k in range(m + 1)) for m in range(n + 1)]


# the most simplices in a degree of the nerve, degenerate ones included
# (``_nerve_sizes``), that the homology fallback takes on.  The fallback
# builds no nerve: it reads the nondegenerate chains' faces from
# ``NerveTable`` and reduces their complex, and the cap bounds both, which
# grow with the chain count.  Raising it turns INCONCLUSIVE answers into
# verdicts.
DEFAULT_NERVE_CAP = 600


def _nerve_homology(B, n):
    """H_0..H_n of the nerve of B, from the normalized chains of
    ``NerveTable(B, n + 1)``."""
    table = NerveTable(B, n + 1)
    Z = FGAb.free(1)
    K = normalized_complex([[Z] * len(layer) for layer in table.origin], table.faces,
                           squares_vanish=True)
    return [K.homology(k) for k in range(n + 1)]


def _cone(objects, count):
    """The first final object in order, else the first initial one, as
    (object, side), of the category on ``objects`` with ``count(x, y)``
    morphisms x -> y; None when it has neither.  Reads the counts into
    (out of) each candidate, up to its first miss."""
    t = next(iter_final_objects(objects, count), None)
    if t is not None:
        return t, "final"
    s = next(iter_final_objects(objects, lambda x, y: count(y, x)), None)
    if s is not None:
        return s, "initial"
    return None


def _cone_verdict(obj, side):
    return ContractibilityVerdict(
        CONTRACTIBLE, certificate={"kind": "cone", "object": obj, "side": side}
    )


def certify_contractible(B, effort=1, n_max=2):
    """Certify (non)contractibility of the nerve of B.

    Pipeline: cone object (the first final object in object order, else
    the first initial one, found by counting arrows), then
    ``_certify_coneless``: emptiness, disconnectedness, iterated collapse,
    then reduced homology of the nerve through degree
    max(1, n_max + effort - 1) as a sound NONCONTRACTIBLE witness or as
    EVIDENCE; the nerve cap gives INCONCLUSIVE rather than a wrong answer.
    """
    cone = _cone(B.objects, B.hom_count)
    if cone is not None:
        return _cone_verdict(*cone)
    return _certify_coneless(B, effort, n_max)


def _certify_coneless(B, effort, n_max):
    """``certify_contractible`` of a B that has no cone.  A category with
    a final or an initial object is nonempty and connected, so the cone
    comes before the emptiness and components checks."""
    if not B.objects:
        return ContractibilityVerdict(NONCONTRACTIBLE, witness={"empty": True})
    comps = connected_components(B)
    if len(comps) > 1:
        return ContractibilityVerdict(
            NONCONTRACTIBLE, witness={"components": len(comps)}
        )
    cert = _collapse_search(B, effort, max_states=20000 * max(1, effort))
    if cert is not None:
        return ContractibilityVerdict(CONTRACTIBLE, certificate=cert)
    # invariants of the nerve of B itself, so witnesses do not depend on
    # the collapse machinery above; H_1 is always checked, since the
    # level-2 nerve it needs is the least one built
    n_eff = max(1, n_max + max(0, effort - 1))
    checks = {"n_max": n_eff}
    sizes = _nerve_sizes(B, n_eff + 1)
    if max(sizes) > DEFAULT_NERVE_CAP:
        return ContractibilityVerdict(
            INCONCLUSIVE,
            checks={"reason": "nerve size %d over cap %d" % (max(sizes), DEFAULT_NERVE_CAP)}
        )
    hs = _nerve_homology(B, n_eff)
    checks["homology"] = [str(h) for h in hs]
    for n in range(1, n_eff + 1):
        if not hs[n].is_trivial():
            return ContractibilityVerdict(
                NONCONTRACTIBLE,
                witness={"degree": n, "homology": str(hs[n])},
                checks=checks,
            )
    return ContractibilityVerdict(EVIDENCE, checks=checks)


def certify_over(C, parts, arrow, parse, op, effort, n_max):
    """``certify_contractible`` of the category over C on the objects with
    the given parts and the morphisms that ``arrow`` picks (``_comma_like``),
    or of its opposite when ``op``: a coslice, a left fibre, a
    factorization slice or a category of elements.  The cone is looked for
    on the parts (``parts_count``) and only its id is formatted; the view
    is built from the parts only where there is none.  ``parse`` says that
    every name in the parts is a term (``_ids_parse``), decided once per
    certificate by the caller; without it the view is built first, so that
    its builder refuses a repeated id."""
    view = None if parse else _comma_like(C, objects_over(parts), arrow, "comma")[0]
    count = parts_count(C, arrow)
    cone = _cone(parts, (lambda x, y: count(y, x)) if op else count)
    if cone is not None:
        return _cone_verdict(over_id(cone[0]), cone[1])
    if view is None:
        view = _comma_like(C, objects_over(parts), arrow, "comma")[0]
    return _certify_coneless(opposite(view) if op else view, effort, n_max)


def certify_homotopy_cofinal(S, effort=1, n_max=2, coinitial=False):
    """Certify contractibility of every coslice d↓S (or of the opposite
    of the left fibre S↓d, for the coinitial variant), each on its parts
    (``certify_over``); the aggregate is the weakest verdict."""
    C = S.source
    parse = _ids_parse(C) and _ids_parse(S.target)
    enumerate_parts = fibre_parts if coinitial else coslice_parts
    per_object = {d: certify_over(C, *enumerate_parts(S, d), parse, coinitial, effort, n_max)
                  for d in S.target.objects}
    return {"per_object": per_object, "aggregate": weakest(per_object.values()).kind}
