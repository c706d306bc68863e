"""``certify_contractible`` looks for a cone right after the emptiness
check, and counts components only when there is none.  The order it
replaced (components, then all final objects, then all initial ones) is
kept here verbatim as the oracle: the same verdict, certificate and
witness on every fixture category and derived category, their opposites,
hypothesis posets, monoids and disjoint unions, the empty category, and
categories with both final and initial objects.  Every cone certificate
must replay on the category built in full from the view."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin import cofinal, fixtures
from hocofin.cofinal import (
    CONTRACTIBLE,
    DEFAULT_NERVE_CAP,
    EVIDENCE,
    INCONCLUSIVE,
    NONCONTRACTIBLE,
    ContractibilityVerdict,
    _collapse_search,
    _nerve_sizes,
    certify_contractible,
)
from hocofin.fincat import (
    comma_left_fibre,
    connected_components,
    factor_slice,
    factorization,
    final_objects,
    from_monoid,
    from_poset,
    opposite,
    validate_category,
)
from hocofin.groups import cyclic_group
from hocofin.presheaf import elements_with_parts
from oracles import comma_coslice, disjoint_union, initial_objects, nerve_homology, replay_certificate


def components_first(B, effort=1, n_max=2, nerve_cap=DEFAULT_NERVE_CAP):
    """``certify_contractible`` as it was: components, then every final
    object, then every initial one."""
    if not B.objects:
        return ContractibilityVerdict(NONCONTRACTIBLE, witness={"empty": True})
    comps = connected_components(B)
    if len(comps) > 1:
        return ContractibilityVerdict(
            NONCONTRACTIBLE, witness={"components": len(comps)}
        )
    fins = final_objects(B)
    if fins:
        return ContractibilityVerdict(
            CONTRACTIBLE, certificate={"kind": "cone", "object": fins[0], "side": "final"}
        )
    inits = initial_objects(B)
    if inits:
        return ContractibilityVerdict(
            CONTRACTIBLE, certificate={"kind": "cone", "object": inits[0], "side": "initial"}
        )
    cert = _collapse_search(B, effort, max_states=20000 * max(1, effort))
    if cert is not None:
        return ContractibilityVerdict(CONTRACTIBLE, certificate=cert)
    n_eff = max(1, n_max + max(0, effort - 1))
    checks = {"n_max": n_eff}
    sizes = _nerve_sizes(B, n_eff + 1)
    if max(sizes) > nerve_cap:
        return ContractibilityVerdict(
            INCONCLUSIVE, checks={"reason": "nerve size %d over cap %d" % (max(sizes), nerve_cap)}
        )
    hs = nerve_homology(B, n_eff)
    checks["homology"] = [str(h) for h in hs]
    for n in range(1, n_eff + 1):
        if not hs[n].is_trivial():
            return ContractibilityVerdict(
                NONCONTRACTIBLE,
                witness={"degree": n, "homology": str(hs[n])},
                checks=checks,
            )
    return ContractibilityVerdict(EVIDENCE, checks=checks)


def materialized(B):
    """B built raw from its listing and table, validated."""
    mors = [(f, B.dom[f], B.cod[f]) for f in B.morphisms if not B.is_identity(f)]
    comp = [(g, f, h) for (g, f), h in B.comp.items()
            if not B.is_identity(g) and not B.is_identity(f)]
    return validate_category(B.objects, mors, comp)


def agree(B, built=lambda: None):
    """The verdict on a fresh B, against the oracle's; ``built`` makes a
    fresh copy of B when B is a view, so that the cone path reads it first."""
    fresh = built() or B
    got = certify_contractible(fresh)
    assert got.to_json() == components_first(B).to_json(), B
    if (got.certificate or {}).get("kind") == "cone":
        assert replay_certificate(materialized(B), got.certificate)
    return got


def derived(S):
    """Builders of the fibres, coslices and factor slices of S."""
    out = []
    for d in S.target.objects:
        out.append(lambda d=d: comma_left_fibre(S, d)[0])
        out.append(lambda d=d: opposite(comma_left_fibre(S, d)[0]))
        out.append(lambda d=d: comma_coslice(S, d))
    for alpha in S.target.morphisms:
        out.append(lambda alpha=alpha: factor_slice(S, alpha))
    return out


def test_the_fixture_categories_and_their_derived_categories():
    builders = []
    for make in fixtures.CATEGORIES.values():
        builders += [make, lambda make=make: opposite(make()),
                     lambda make=make: factorization(make()).category,
                     lambda make=make: factorization(make()).category_op]
    for make in fixtures.FUNCTORS.values():
        builders += derived(make())
    for name in fixtures.WEFRAC_CATEGORIES:
        builders += derived(fixtures.fun_cod_op(name))
    for make in fixtures.DSETS.values():
        builders += [lambda make=make: elements_with_parts(make())[0]]
    kinds = {}
    for build in builders:
        got = agree(build(), build)
        key = (got.kind, (got.certificate or {}).get("kind"), "components" in (got.witness or {}))
        kinds[key] = kinds.get(key, 0) + 1
    # cones on both sides, collapses, and disconnected and empty categories
    assert kinds[(CONTRACTIBLE, "cone", False)] > 100
    assert kinds[(NONCONTRACTIBLE, None, True)] > 5
    assert (CONTRACTIBLE, "collapse", False) in kinds


def test_the_empty_category_and_disjoint_unions():
    empty = validate_category([], [], [])
    assert agree(empty).witness == {"empty": True}
    two = fixtures.cat_two()
    for B in (disjoint_union(two, two), disjoint_union(fixtures.cat_one(), fixtures.cat_z2()),
              fixtures.cat_disc2()):
        assert agree(B).witness["components"] == 2
        agree(opposite(B))


def test_categories_with_both_final_and_initial_objects():
    # the first final object wins over an earlier initial one, as before
    two = fixtures.cat_two()
    assert agree(two).certificate == {"kind": "cone", "object": "b", "side": "final"}
    assert agree(opposite(two)).certificate == {"kind": "cone", "object": "a", "side": "final"}
    iso = fixtures.cat_iso2()
    assert agree(iso).certificate == {"kind": "cone", "object": "a", "side": "final"}
    span = fixtures.cat_span()
    assert agree(span).certificate["side"] == "initial"


def test_a_nerve_over_the_cap_is_inconclusive():
    # proper nonempty subsets of a 5-set: no cone, no collapse, and a nerve
    # too large to compute invariants on, so the verdict is never CONTRACTIBLE
    subsets = [s for r in range(1, 5) for s in itertools.combinations(range(5), r)]
    B = from_poset(["".join(map(str, s)) for s in subsets],
                   lambda x, y: set(x) <= set(y), name="proper(5)")
    v = certify_contractible(B)
    assert v.kind == INCONCLUSIVE
    assert v.checks == {"reason": "nerve size 1320 over cap %d" % DEFAULT_NERVE_CAP}
    assert DEFAULT_NERVE_CAP == 600


def poset(n, bits):
    """The poset on n points whose order is the transitive closure of the
    pairs i < j with their bit set."""
    points = ["p%d" % i for i in range(n)]
    up = {i: {i} | {j for j in range(i + 1, n) if bits >> (i * n + j) & 1} for i in range(n)}
    for i in reversed(range(n)):
        for j in list(up[i]):
            up[i] |= up[j]
    return from_poset(points, lambda x, y: int(y[1:]) in up[int(x[1:])])


posets = st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * n))))


@settings(max_examples=150, deadline=None)
@given(posets, posets, st.booleans())
def test_hypothesis_posets_and_their_unions(p, q, flip):
    P, Q = poset(*p), poset(*q)
    for B in (P, disjoint_union(P, Q), factorization(P).category):
        agree(opposite(B) if flip else B)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_hypothesis_monoids_and_their_fibres(n, m, flip):
    G = cyclic_group(n)
    C = from_monoid(G.elements, G.unit, G.table, name="BZ%d" % n)
    F = factorization(C)
    agree(disjoint_union(C, poset(m, 2 ** (m * m) - 1)))
    build = (lambda: opposite(comma_left_fibre(F.cod, "*")[0])) if flip else \
        (lambda: comma_left_fibre(F.cod, "*")[0])
    assert agree(build(), build).kind == CONTRACTIBLE


def test_trivial_invariants_without_a_cone_or_a_collapse_are_evidence(monkeypatch):
    # the fence a -> b <- c -> d has neither a final nor an initial object;
    # with the collapse search finding nothing, its trivial homology is
    # all the certifier has
    monkeypatch.setattr(cofinal, "_collapse_search", lambda *args, **kwargs: None)
    B = from_poset(["a", "b", "c", "d"], lambda x, y: (x, y) in {("a", "b"), ("c", "b"), ("c", "d")})
    v = certify_contractible(B)
    assert v.kind == EVIDENCE
    assert v.checks["homology"][1:] == ["0"] * (len(v.checks["homology"]) - 1)
