"""Decision procedures for contractibility and homotopy cofinality.

Contractibility of a nerve is undecidable in general, so the certifier is
honest about what it knows: CONTRACTIBLE comes with a replayable
certificate (a cone object, possibly after a sequence of one-object
collapses), NONCONTRACTIBLE comes with a conclusive witness (emptiness,
disconnectedness, a nonzero reduced homology class, or a nontrivial
fundamental-group fingerprint entry), EVIDENCE means every computed
invariant was trivial up to the requested degree, and INCONCLUSIVE means
a resource cap was hit first.
"""

from __future__ import annotations

from .fincat import (
    comma_coslice,
    comma_left_fibre,
    connected_components,
    final_objects,
    initial_objects,
    iter_final_objects,
    iter_initial_objects,
    opposite,
)
from .groups import BudgetExceeded, fingerprint, tietze_simplify
from .presheaf import edge_path_group, homology_ss, nerve


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


def is_vdc(S):
    """Whether every left fibre S↓d is finally discrete."""
    witnesses = {}
    ok = True
    for d in S.target.objects:
        cat, _, _ = comma_left_fibre(S, d)
        good, details = is_finally_discrete(cat)
        witnesses[d] = {"finally_discrete": good, "components": details}
        if not good:
            ok = False
    return ok, witnesses


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

    def is_final(self, t, state):
        """Whether t has exactly one arrow from each object of state."""
        doms = [self.B.dom[f] for f in self.into[t] if self.B.dom[f] in state]
        return len(doms) == len(state) and len(set(doms)) == len(doms)

    def is_initial(self, t, state):
        cods = [self.B.cod[f] for f in self.out[t] if self.B.cod[f] in state]
        return len(cods) == len(state) and len(set(cods)) == len(cods)


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


def _collapse_search(B, effort, max_states=20000):
    """Search for a collapse of B onto a cone, removing one object at a
    time (two at higher effort); depth-first with memoized dead ends.

    A state's candidates are produced lazily, in this order: each object,
    in B's order, that has a reflection into the rest, else a
    coreflection; then, at effort 2 and up, each pair of objects that both
    reflect, else both coreflect, into the rest.  The first candidate whose
    state collapses wins, so the search visits the states, and spends
    ``max_states``, exactly as if every candidate had been listed first."""
    nb = _Neighbours(B)
    memo = {}
    visited = [0]

    def candidates(objs, state):
        for x in objs:
            hit = _reflection(nb, x, state, (x,))
            if hit:
                yield (x,), hit[0], "reflection"
                continue
            hit = _coreflection(nb, x, state, (x,))
            if hit:
                yield (x,), hit[0], "coreflection"
        if effort >= 2 and len(objs) > 2:
            for i, x in enumerate(objs):
                for y in objs[i + 1 :]:
                    rx = _reflection(nb, x, state, (x, y))
                    ry = rx and _reflection(nb, y, state, (x, y))
                    if ry:
                        yield (x, y), (rx[0], ry[0]), "reflection"
                        continue
                    cx = _coreflection(nb, x, state, (x, y))
                    cy = cx and _coreflection(nb, y, state, (x, y))
                    if cy:
                        yield (x, y), (cx[0], cy[0]), "coreflection"

    def dfs(state):
        if state in memo:
            return memo[state]
        visited[0] += 1
        if visited[0] > max_states:
            return None
        objs = [o for o in B.objects if o in state]
        for side, is_cone in (("final", nb.is_final), ("initial", nb.is_initial)):
            cone = next((t for t in objs if is_cone(t, state)), None)
            if cone is not None:
                result = {"kind": "collapse", "steps": [], "cone": cone, "side": side}
                memo[state] = result
                return result
        if len(objs) <= 1:
            memo[state] = None
            return None
        for removed, via, direction in candidates(objs, state):
            result = dfs(state.difference(removed))
            if result is not None:
                step = {"removed": list(removed), "via": via, "direction": direction}
                result = {
                    "kind": "collapse",
                    "steps": [step] + result["steps"],
                    "cone": result["cone"],
                    "side": result["side"],
                }
                memo[state] = result
                return result
        memo[state] = None
        return None

    result = dfs(frozenset(B.objects))
    # dfs refers to itself; unbinding it frees the memo now, not at the
    # next cyclic garbage collection
    dfs = None
    return result


def _nerve_sizes(B, n):
    """Chain counts of the nerve per degree up to n, by dynamic programming
    over path endpoints."""
    counts = [len(B.objects)]
    ending = {o: 1 for o in B.objects}
    for _ in range(n):
        nxt = {o: 0 for o in B.objects}
        for f in B.morphisms:
            nxt[B.cod[f]] += ending[B.dom[f]]
        ending = nxt
        counts.append(sum(ending.values()))
    return counts


# the most simplices per degree of the nerve that the homology and pi1
# fallback builds; what it bounds is building the nerve and the Tietze pass
# over its edge-path presentation, which grow with the simplex count (exact
# homology eliminates unit pivots sparsely and costs far less)
DEFAULT_NERVE_CAP = 600


def _cone(B):
    """The first final object of B in object order, else the first initial
    one, as (object, side); None when B has neither.  Reads only hom-sets
    into (out of) each candidate, up to its first miss."""
    t = next(iter_final_objects(B), None)
    if t is not None:
        return t, "final"
    s = next(iter_initial_objects(B), None)
    if s is not None:
        return s, "initial"
    return None


def certify_contractible(B, effort=1, n_max=2, nerve_cap=DEFAULT_NERVE_CAP):
    """Certify (non)contractibility of the nerve of B.

    Pipeline: emptiness, cone object (the first final object in object
    order, else the first initial one), disconnectedness, iterated collapse,
    then truncated homology and the fundamental-group fingerprint as
    sound NONCONTRACTIBLE witnesses or as EVIDENCE; resource caps give
    INCONCLUSIVE rather than a wrong answer.
    """
    if not B.objects:
        return ContractibilityVerdict(NONCONTRACTIBLE, witness={"empty": True})
    # a category with a final or an initial object is connected, so the
    # cone comes first
    cone = _cone(B)
    if cone is not None:
        return ContractibilityVerdict(
            CONTRACTIBLE, certificate={"kind": "cone", "object": cone[0], "side": cone[1]}
        )
    comps = connected_components(B)
    if len(comps) > 1:
        return ContractibilityVerdict(
            NONCONTRACTIBLE, witness={"components": len(comps)}
        )
    cert = _collapse_search(B, effort, max_states=20000 * max(1, effort))
    if cert is not None:
        return ContractibilityVerdict(CONTRACTIBLE, certificate=cert)
    # invariants of the nerve of B itself, so witnesses do not depend on
    # the collapse machinery above
    n_eff = n_max + max(0, effort - 1)
    checks = {"n_max": n_eff}
    level = max(2, n_eff + 1)
    sizes = _nerve_sizes(B, level)
    if max(sizes) > nerve_cap:
        return ContractibilityVerdict(
            INCONCLUSIVE, checks={"reason": "nerve size %d over cap %d" % (max(sizes), nerve_cap)}
        )
    try:
        X = nerve(B, level, basepoint=B.objects[0])
        hs = homology_ss(X, n_eff)
        checks["homology"] = [str(h) for h in hs]
        for n in range(1, n_eff + 1):
            if not hs[n].is_trivial():
                return ContractibilityVerdict(
                    NONCONTRACTIBLE,
                    witness={"degree": n, "homology": str(hs[n])},
                    checks=checks,
                )
        pi1 = fingerprint(tietze_simplify(edge_path_group(X)))
        checks["pi1_fingerprint"] = list(pi1)
        if any(c != 1 for c in pi1):
            return ContractibilityVerdict(
                NONCONTRACTIBLE,
                witness={"pi1_fingerprint": list(pi1)},
                checks=checks,
            )
    except BudgetExceeded as exc:
        return ContractibilityVerdict(INCONCLUSIVE, checks={"reason": str(exc)})
    return ContractibilityVerdict(EVIDENCE, checks=checks)


def replay_certificate(B, cert):
    """Re-verify a contractibility certificate independently."""
    if cert["kind"] == "vacuous":
        return True
    if cert["kind"] == "cone":
        pool = final_objects(B) if cert["side"] == "final" else initial_objects(B)
        return cert["object"] in pool
    if cert["kind"] != "collapse":
        return False
    nb = _Neighbours(B)
    state = set(B.objects)
    for step in cert["steps"]:
        removed = tuple(step["removed"])
        check = _reflection if step["direction"] == "reflection" else _coreflection
        for x in removed:
            if x not in state or check(nb, x, state, removed) is None:
                return False
        state.difference_update(removed)
    is_cone = nb.is_final if cert["side"] == "final" else nb.is_initial
    return cert["cone"] in state and is_cone(cert["cone"], state)


def certify_homotopy_cofinal(S, effort=1, n_max=2, coinitial=False):
    """Certify contractibility of every coslice d↓S (or its opposite for
    the coinitial variant); the aggregate is the weakest verdict."""
    per_object = {}
    for d in S.target.objects:
        if coinitial:
            cat, _, _ = comma_left_fibre(S, d)
            cat = opposite(cat)
        else:
            cat = comma_coslice(S, d)
        per_object[d] = certify_contractible(cat, effort=effort, n_max=n_max)
    agg = weakest(per_object.values())
    return {"per_object": per_object, "aggregate": agg.kind}
