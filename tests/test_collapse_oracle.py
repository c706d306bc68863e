"""The lazy, neighbour-local collapse search against the eager search it
replaced, kept here verbatim as the oracle: same certificates, including
None, on fences, crowns, Boolean lattices, the fixture categories, the
wefrac fibres and random posets, all with their opposites, at both
efforts and at a tight and the default state cap."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin import fixtures
from hocofin.cofinal import (
    _Neighbours,
    _collapse_search,
    _reflection,
    _coreflection,
)
from hocofin.fincat import (
    comma_left_fibre,
    factorization,
    final_objects,
    from_monoid,
    from_poset,
    full_subcategory,
    opposite,
    validate_category,
)
from hocofin.groups import cyclic_group
from oracles import initial_objects, replay_certificate


# -- the eager search ------------------------------------------------------------


def eager_reflection(sub, x, rest):
    for r in rest:
        for u in sub.hom(x, r):
            good = True
            for y in rest:
                for f in sub.hom(x, y):
                    count = sum(1 for g in sub.hom(r, y) if sub.comp[(g, u)] == f)
                    if count != 1:
                        good = False
                        break
                if not good:
                    break
            if good:
                return r, u
    return None


def eager_coreflection(sub, x, rest):
    for r in rest:
        for u in sub.hom(r, x):
            good = True
            for y in rest:
                for f in sub.hom(y, x):
                    count = sum(1 for g in sub.hom(y, r) if sub.comp[(u, g)] == f)
                    if count != 1:
                        good = False
                        break
                if not good:
                    break
            if good:
                return r, u
    return None


def eager_collapse_search(B, effort, max_states=20000):
    memo = {}
    visited = [0]

    def dfs(state):
        if state in memo:
            return memo[state]
        visited[0] += 1
        if visited[0] > max_states:
            return None
        objs = [o for o in B.objects if o in state]
        sub = full_subcategory(B, objs)
        fins = final_objects(sub)
        if fins:
            result = {"kind": "collapse", "steps": [], "cone": fins[0], "side": "final"}
            memo[state] = result
            return result
        inits = initial_objects(sub)
        if inits:
            result = {"kind": "collapse", "steps": [], "cone": inits[0], "side": "initial"}
            memo[state] = result
            return result
        if len(objs) <= 1:
            memo[state] = None
            return None
        candidates = []
        for x in objs:
            rest = [o for o in objs if o != x]
            hit = eager_reflection(sub, x, rest)
            if hit:
                candidates.append(((x,), hit[0], "reflection"))
                continue
            hit = eager_coreflection(sub, x, rest)
            if hit:
                candidates.append(((x,), hit[0], "coreflection"))
        if effort >= 2:
            for i, x in enumerate(objs):
                for y in objs[i + 1 :]:
                    rest = [o for o in objs if o not in (x, y)]
                    if not rest:
                        continue
                    sub2 = sub
                    rx = eager_reflection(sub2, x, rest)
                    ry = eager_reflection(sub2, y, rest)
                    if rx and ry:
                        candidates.append(((x, y), (rx[0], ry[0]), "reflection"))
                        continue
                    cx = eager_coreflection(sub2, x, rest)
                    cy = eager_coreflection(sub2, y, rest)
                    if cx and cy:
                        candidates.append(((x, y), (cx[0], cy[0]), "coreflection"))
        for removed, via, direction in candidates:
            nxt = frozenset(o for o in state if o not in removed)
            result = dfs(nxt)
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

    return dfs(frozenset(B.objects))


# -- the family ------------------------------------------------------------------


def poset(points, below):
    """The poset on ``points`` generated by the pairs ``below``."""
    up = {p: {p} for p in points}
    changed = True
    while changed:
        changed = False
        for x, y in below:
            for p in points:
                if x in up[p] and not up[y] <= up[p]:
                    up[p] |= up[y]
                    changed = True
    return from_poset(points, lambda x, y: y in up[x])


def fence(n, backwards):
    points = ["p%d" % i for i in range(n + 1)]
    below = [(points[i], points[i + 1]) if i % 2 == 0 else (points[i + 1], points[i])
             for i in range(n)]
    return poset(points[::-1] if backwards else points, below)


def crown(n, shift):
    mins = ["a%d" % ((i + shift) % n) for i in range(n)]
    maxs = ["b%d" % i for i in range(n)]
    below = [("a%d" % i, "b%d" % j) for i in range(n) for j in (i, (i + 1) % n)]
    return poset(mins + maxs, below)


def boolean_lattice(k, proper):
    masks = [m for m in range(2 ** k) if not proper or 0 < bin(m).count("1") < k]
    return from_poset(["m%d" % m for m in masks],
                      lambda x, y: int(x[1:]) & ~int(y[1:]) == 0)


def random_poset(rng):
    n = rng.randrange(1, 9)
    points = ["q%d" % i for i in range(n)]
    below = [(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    rng.shuffle(points)
    return poset(points, below)


def wefrac_fibres():
    """The opposite left fibres of cod: F(C) -> C that certify-ladder and
    the wefrac fixtures certify: none of them are posets, and those of the
    truncated simplex category collapse only by pairs."""
    bases = [make() for make in fixtures.CATEGORIES.values()]
    G = cyclic_group(4)
    bases.append(from_monoid(G.elements, G.unit, G.table, name="BZ4"))
    out = []
    for C in bases:
        cod = factorization(C).cod
        out += [opposite(comma_left_fibre(cod, d)[0]) for d in C.objects]
    return out


def doubled_fence():
    """The fence a < b > c < d with b doubled into isomorphic b1, b2: a
    reflects into both, and the certificate must name b1, the first in
    object order, though a's arrow to b2 is listed first."""
    mors = [("p2", "a", "b2"), ("p1", "a", "b1"), ("q2", "c", "b2"), ("q1", "c", "b1"),
            ("e", "c", "d"), ("u", "b1", "b2"), ("v", "b2", "b1")]
    comp = [("u", "v", "id_b2"), ("v", "u", "id_b1"), ("u", "p1", "p2"), ("v", "p2", "p1"),
            ("u", "q1", "q2"), ("v", "q2", "q1")]
    return validate_category(["a", "b1", "b2", "c", "d"], mors, comp)


def relisted(C, rng):
    """C with its morphisms listed in a random order, so that the order of
    an object's arrows is not the order of their other ends."""
    mors = [(f, C.dom[f], C.cod[f]) for f in C.morphisms if not C.is_identity(f)]
    rng.shuffle(mors)
    comp = [(g, f, h) for (g, f), h in C.comp.items()
            if not C.is_identity(g) and not C.is_identity(f)]
    return validate_category(C.objects, mors, comp)


def family():
    cats = [fence(n, b) for n in range(13) for b in (False, True)]
    cats += [crown(n, s) for n in range(2, 6) for s in (0, 1)]
    cats += [boolean_lattice(k, p) for k in range(5) for p in (False, True)]
    cats += [make() for make in fixtures.CATEGORIES.values()] + [doubled_fence()]
    cats += wefrac_fibres()
    rng = random.Random(7)
    cats += [random_poset(rng) for _ in range(150)]
    cats += [relisted(C, rng) for C in cats[-100:] + wefrac_fibres()]
    return cats + [opposite(C) for C in cats]


def test_lazy_search_gives_the_eager_certificates():
    cases = found = by_pairs = 0
    cats = family()
    for B in cats:
        for effort in (1, 2):
            for max_states in (3, 20000):
                got = _collapse_search(B, effort, max_states=max_states)
                assert got == eager_collapse_search(B, effort, max_states=max_states), (
                    B.objects, effort, max_states)
                if got is not None:
                    assert replay_certificate(B, got)
                    found += 1
                    by_pairs += any(len(step["removed"]) == 2 for step in got["steps"])
                cases += 1
    assert cases == 4 * len(cats) == 4 * 2 * (26 + 8 + 10 + 12 + 22 + 150 + 100 + 22)
    assert 0 < found < cases and by_pairs > 0


def test_longer_fences_at_effort_one():
    for n in (20, 31):
        for B in (fence(n, False), opposite(fence(n, True))):
            got = _collapse_search(B, 1)
            assert got is not None and got == eager_collapse_search(B, 1)


def test_replay_refuses_broken_certificates():
    B = fence(4, False)
    cert = _collapse_search(B, 1)
    assert replay_certificate(B, cert)
    wrong_side = dict(cert, side="initial" if cert["side"] == "final" else "final")
    assert not replay_certificate(B, wrong_side)
    unknown = dict(cert, steps=[{"removed": ["nope"], "via": "p0", "direction": "reflection"}])
    assert not replay_certificate(B, unknown)
    assert not replay_certificate(B, dict(cert, steps=[]))


# -- Stong: beat-point removal is confluent on posets ------------------------------


def beat_points(P):
    nb = _Neighbours(P)
    state = frozenset(P.objects)
    return [x for x in P.objects
            if _reflection(nb, x, state, (x,)) or _coreflection(nb, x, state, (x,))]


posets = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    .map(lambda pairs: poset(["v%d" % i for i in range(n)],
                             [("v%d" % i, "v%d" % j) for i, j in pairs if i < j]))
)


@settings(max_examples=120, deadline=None)
@given(posets)
def test_beat_point_removal_is_confluent(P):
    outcomes = {
        _collapse_search(full_subcategory(P, [o for o in P.objects if o != x]), 1) is not None
        for x in beat_points(P)
    }
    assert len(outcomes) <= 1
