"""The benchmark's four workloads: inputs built from a seed, and the check
that every answer must pass.

A workload is a list of operations.  ``Op.run`` is the timed call into
hocofin; ``Op.check`` takes its result and returns None for a right
answer or a one-line reason; ``Op.sizes`` describes the input, computed
here and not by the program, so that a later change can tell "faster"
from "smaller".

The seed relabels generated inputs through structure-preserving
bijections (group automorphisms, poset automorphisms, reordered
generators).  The element and generator orders the program sees change
with the seed while the work it must do does not, so timings from
different seeds compare and the answers never change.  The caller also
shuffles the order of operations in every pass.

hocofin functions are called through their modules (``groups.hom_count``)
so that the tracer's wrappers see the calls.
"""

import contextlib
import functools
import io
import json
import math
import os
from itertools import product

from hocofin import cli, cofinal, diagrams, fincat, fixtures, groups, gz, hocolim, presheaf
from hocofin.homalg import FGAb

# Resource caps in force in hocofin.  Every input stays inside them, so a
# later change that lifts a cap cannot turn a fast refusal into a slow
# answer that reads as a regression.
CAPS = {
    "chain": 200000,
    "nerve": 600,
    "fingerprint_budget": 10 ** 7,
    "tietze_budget": 10 ** 5,
    "classifying_space": 10 ** 5,
}

EXPECTED_SWEEP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_sweep.json")


class Op:
    __slots__ = ("name", "run", "check", "sizes")

    def __init__(self, name, run, check, sizes=dict):
        self.name = name
        self.run = run
        self.check = check
        self.sizes = sizes


def _mismatch(what, expected, got):
    return None if expected == got else "%s: expected %r, got %r" % (what, expected, got)


# -- seeded relabelling ------------------------------------------------------------


def _power(G, x, k):
    acc = G.unit
    for _ in range(k):
        acc = G.table[(acc, x)]
    return acc


def automorphic_order(G, rng):
    """G's elements listed in the image of their canonical order under a
    random automorphism: a power map x -> x^k (k prime to |G|) when G is
    abelian, conjugation otherwise."""
    if G.is_abelian():
        n = G.order()
        k = rng.choice([k for k in range(1, max(n, 2)) if math.gcd(k, n) == 1])
        return [_power(G, x, k) for x in G.elements]
    c = rng.choice(G.elements)
    return [G.table[(G.table[(c, x)], G.inv[c])] for x in G.elements]


def one_object(G, rng, name):
    """The one-object category of G, morphisms in a seeded automorphic order."""
    return fincat.from_monoid(automorphic_order(G, rng), G.unit, G.table, name=name)


def fence(n, rng):
    """Zigzag poset p0 < p1 > p2 < ... on n + 1 points (n even), listed
    forwards or backwards; its nerve is contractible by collapses only."""
    points = ["p%d" % i for i in range(n + 1)]
    below = {(points[i], points[i + 1]) if i % 2 == 0 else (points[i + 1], points[i])
             for i in range(n)}
    if rng.random() < 0.5:
        points.reverse()
    return fincat.from_poset(points, lambda x, y: (x, y) in below, name="fence%d" % n)


def crown(n, rng):
    """Crown on 2n points, a_i < b_i and a_i < b_{i+1}; its nerve is a
    circle.  Listed under a random rotation and reflection."""
    r, flip = rng.randrange(n), rng.random() < 0.5
    a = [(i + r) % n if not flip else (r - i) % n for i in range(n)]
    b = [(i + r) % n if not flip else (r + 1 - i) % n for i in range(n)]
    mins = ["a%d" % i for i in a]
    maxs = ["b%d" % i for i in b]
    below = set()
    for i in range(n):
        below.add(("a%d" % i, "b%d" % i))
        below.add(("a%d" % i, "b%d" % ((i + 1) % n)))
    return fincat.from_poset(mins + maxs, lambda x, y: (x, y) in below, name="crown%d" % n)


def boolean_lattice(k, rng, proper=False):
    """Subsets of {0..k-1} by inclusion, listed by bitmask after a random
    permutation of the ground set; ``proper`` drops the top and bottom."""
    perm = list(range(k))
    rng.shuffle(perm)
    subsets = [frozenset(perm[i] for i in range(k) if m >> i & 1) for m in range(2 ** k)]
    if proper:
        subsets = [s for s in subsets if 0 < len(s) < k]
    name = {s: "{%s}" % ",".join(map(str, sorted(s))) for s in subsets}
    subset = {v: s for s, v in name.items()}
    return fincat.from_poset([name[s] for s in subsets], lambda x, y: subset[x] <= subset[y],
                             name="%sB%d" % ("proper " if proper else "", k))


# -- input sizes, computed from outside the program ------------------------------


def chain_counts(C, top, nondegenerate=True):
    """Chains of composable morphisms per degree 0..top, by dynamic
    programming over end objects."""
    pool = [f for f in C.morphisms if not (nondegenerate and C.is_identity(f))]
    ending = {o: 1 for o in C.objects}
    counts = [len(C.objects)]
    for _ in range(top):
        nxt = dict.fromkeys(C.objects, 0)
        for f in pool:
            nxt[C.cod[f]] += ending[C.dom[f]]
        ending = nxt
        counts.append(sum(ending.values()))
    return counts


def category_sizes(C):
    return {"objects": len(C.objects), "morphisms": len(C.morphisms)}


def complex_sizes(C, nmax, gens):
    """Chains per degree, boundary shapes and chain-cap headroom of the
    normalized complex over C with constant coefficients on ``gens``
    generators."""
    chains = chain_counts(C, nmax + 1)
    return {
        "category": category_sizes(C),
        "chains_per_degree": chains,
        "boundary_shapes": [[gens * chains[n - 1], gens * chains[n]]
                            for n in range(1, nmax + 2)],
        "chain_cap_headroom": CAPS["chain"] - max(chains),
    }


def nerve_sizes(C, level=3):
    """All chains (identities included) per degree up to ``level``, the
    count the certifier holds against its nerve cap."""
    counts = chain_counts(C, level, nondegenerate=False)
    return {"category": category_sizes(C), "nerve_per_degree": counts,
            "nerve_cap_headroom": CAPS["nerve"] - max(counts)}


def presentation_sizes(P):
    """Size of a presentation entering Tietze moves, whose budget counts
    relator letters rewritten."""
    return {"generators": len(P.generators), "relators": len(P.relators),
            "relator_letters": sum(len(r) for r in P.relators)}


def assignment_sizes(k):
    """|T|^k over the fingerprint catalog, against the hom-count budget."""
    per_group = [T.order() ** k for T in groups.catalog()]
    return {"generators": k, "assignments": sum(per_group),
            "budget_headroom": CAPS["fingerprint_budget"] - max(per_group)}


# -- closed-form answers ------------------------------------------------------------


def integral_group_homology(group, n):
    """H_n(BG; Z) as (free rank, torsion) for G = Z/m or S3."""
    if n == 0:
        return (1, ())
    if n % 2 == 0:
        return (0, ())
    if group == "S3":
        return (0, (2,) if n % 4 == 1 else (6,))
    return (0, (int(group[1:]),))


def group_homology(group, coeff, nmax):
    """H_0..H_nmax of BG with coefficients Z or Z/2; the latter by the
    universal coefficient theorem, one Z/2 for each free summand and
    each even invariant factor of H_n, and one for each even invariant
    factor of H_{n-1}."""
    out = []
    for n in range(nmax + 1):
        rank, torsion = integral_group_homology(group, n)
        if coeff == "Z":
            out.append((rank, torsion))
            continue
        even = sum(1 for d in torsion if d % 2 == 0)
        prev = integral_group_homology(group, n - 1)[1] if n else ()
        copies = rank + even + sum(1 for d in prev if d % 2 == 0)
        out.append((0, (2,) * copies))
    return out


def solutions_count(T, m):
    """#{t in T : t^m = 1}, the number of homomorphisms Z/m -> T."""
    return sum(1 for t in T.elements if _power(T, t, m) == T.unit)


def hom_count_oracle(S, T):
    """Homomorphisms S -> T between table groups, counted by extending
    each assignment of a generating set along the Cayley graph; an
    assignment counts when the extension is well defined."""
    gens, reached = [], {S.unit}
    for x in S.elements:
        if x in reached:
            continue
        gens.append(x)
        frontier = list(reached)
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = S.table[(y, g)]
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    count = 0
    for images in product(T.elements, repeat=len(gens)):
        phi = {S.unit: T.unit}
        frontier = [S.unit]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, h in zip(gens, images):
                y, v = S.table[(x, g)], T.table[(phi[x], h)]
                if y not in phi:
                    phi[y] = v
                    frontier.append(y)
                elif phi[y] != v:
                    ok = False
                    break
        count += ok
    return count


# -- derived-ladder ------------------------------------------------------------------

# (group, coefficients, nmax): group homology via the simplicial replacement;
# Z/2 coefficients exercise the stacked relation-lattice kernel
GROUP_HOMOLOGY = [("Z4", "Z", 4), ("Z4", "Z/2", 4), ("Z5", "Z", 3), ("Z5", "Z/2", 3),
                  ("S3", "Z", 3)]
# (group, coefficients): Baues-Wirsching homology of the one-object category
# at nmax 2; Z/3 is the known wall (3/24/192/1536 factorization chains)
BW_HOMOLOGY = [("Z2", "Z"), ("Z2", "Z/2"), ("Z3", "Z")]


def _table_group(name):
    return groups.symmetric_group_3() if name == "S3" else groups.cyclic_group(int(name[1:]))


def _coefficients(name):
    return FGAb.free(1) if name == "Z" else FGAb.cyclic(2)


def _homology_check(expected):
    def check(result):
        return _mismatch("homology", expected, [h.invariants() for h in result])
    return check


def build_derived(rng):
    ops = []
    for group, coeff, nmax in GROUP_HOMOLOGY:
        C = one_object(_table_group(group), rng, "B" + group)
        M = diagrams.constant_ab_diagram(C, _coefficients(coeff))
        ops.append(Op(
            "H(B%s;%s)/n%d" % (group, coeff, nmax),
            lambda C=C, M=M, nmax=nmax: diagrams.ab_colim_derived(C, M, nmax),
            _homology_check(group_homology(group, coeff, nmax)),
            lambda C=C, nmax=nmax: complex_sizes(C, nmax, 1),
        ))
    for group, coeff in BW_HOMOLOGY:
        C = one_object(_table_group(group), rng, "B" + group)
        system = fixtures.const_ab_nsys(C, _coefficients(coeff))
        ops.append(Op(
            "bw(B%s;%s)/n2" % (group, coeff),
            lambda C=C, system=system: gz.bw_homology(C, system, 2)["abelian"],
            _homology_check(group_homology(group, coeff, 2)),
            lambda C=C, system=system: {"factorization_route": complex_sizes(system.base, 2, 1),
                                        "nerve_route": complex_sizes(C, 2, 1)},
        ))
    return ops


# -- presentation-ladder ----------------------------------------------------------------

# main2-n0 fixtures and the cyclic factors of their colimit, which is a
# free product, so hom counts multiply over the factors
MAIN2_FACTORS = {"span-z2-z3": (2, 3), "span-z2-z2": (2, 2), "two-z2": (2,),
                 "z2cat-z3-trivial": (3,)}
MAIN2_LEVEL = 4


def _generators(k, rng):
    gens = ["x%d" % i for i in range(k)]
    rng.shuffle(gens)
    return gens


# expected answers are worked out on first use, so that set-up times
# only the inputs


def _fingerprint_check(expected):
    expected = functools.cache(expected)

    def check(result):
        return _mismatch("fingerprint", expected(), list(result))
    return check


def _main2_check(factors):
    @functools.cache
    def expected():
        return [math.prod(solutions_count(T, m) for m in factors) for T in groups.catalog()]

    def check(result):
        pi1, c0 = result
        return (_mismatch("pi1 against colim0", list(c0), list(pi1))
                or _mismatch("colim0 fingerprint", expected(), list(c0)))
    return check


def _main2_pipeline(G):
    H = hocolim.hocolim_pointed(hocolim.bg_diagram(G, MAIN2_LEVEL), MAIN2_LEVEL)
    pi1 = groups.fingerprint(groups.tietze_simplify(presheaf.edge_path_group(H)))
    return pi1, groups.fingerprint(diagrams.colim0(G.base, G))


def _pi1_of_nerve(C):
    X = presheaf.nerve(C, 3, basepoint="*")
    return groups.fingerprint(groups.tietze_simplify(presheaf.edge_path_group(X)))


def build_presentation(rng):
    ops = []
    catalog = groups.catalog()
    for k in (4, 5, 6):
        gens = _generators(k, rng)
        P = groups.GroupPresentation(gens, [[g, g] for g in gens])
        ops.append(Op(
            "fingerprint(Z2^*%d)" % k,
            lambda P=P: groups.fingerprint(P),
            _fingerprint_check(lambda k=k: [solutions_count(T, 2) ** k for T in catalog]),
            lambda k=k: assignment_sizes(k),
        ))
    for k in (4, 5):
        P = groups.GroupPresentation(_generators(k, rng), [])
        ops.append(Op(
            "fingerprint(F%d)" % k,
            lambda P=P: groups.fingerprint(P),
            _fingerprint_check(lambda k=k: [T.order() ** k for T in catalog]),
            lambda k=k: assignment_sizes(k),
        ))
    for name, factors in MAIN2_FACTORS.items():
        G = fixtures.load_fixture("main2-n0", name)["group_diagram"]
        ops.append(Op(
            "main2-n0(%s)/level%d" % (name, MAIN2_LEVEL),
            lambda G=G: _main2_pipeline(G),
            _main2_check(factors),
            lambda G=G: {
                "category": category_sizes(G.base),
                "classifying_space_headroom": CAPS["classifying_space"] - max(
                    G.value[o].element_count() ** MAIN2_LEVEL for o in G.base.objects),
                "pi1_presentation": presentation_sizes(presheaf.edge_path_group(
                    hocolim.hocolim_pointed(hocolim.bg_diagram(G, MAIN2_LEVEL), MAIN2_LEVEL))),
            },
        ))
    for T in catalog:
        C = one_object(T, rng, "B" + T.name)
        ops.append(Op(
            "pi1(nerve(B%s))" % T.name,
            lambda C=C: _pi1_of_nerve(C),
            _fingerprint_check(lambda T=T: [hom_count_oracle(T, H) for H in catalog]),
            lambda C=C: {
                "nerve_per_degree": chain_counts(C, 3, nondegenerate=False),
                "pi1_presentation": presentation_sizes(
                    presheaf.edge_path_group(presheaf.nerve(C, 3, basepoint="*"))),
            },
        ))
    return ops


# -- certify-ladder ---------------------------------------------------------------------


def _verdict_check(kind, certificate=None):
    def check(verdict):
        bad = _mismatch("verdict", kind, verdict.kind)
        if bad is None and certificate is not None:
            bad = _mismatch("certificate", certificate, (verdict.certificate or {}).get("kind"))
        return bad
    return check


def _all_cones_check(report):
    kinds = {d: (v.kind, (v.certificate or {}).get("kind")) for d, v in report["per_object"].items()}
    bad = [d for d, kc in kinds.items() if kc != ("CONTRACTIBLE", "cone")]
    return "not a cone at %s: %r" % (bad[0], kinds[bad[0]]) if bad else None


def _aggregate_check(report):
    return _mismatch("aggregate", "CONTRACTIBLE", report["aggregate"])


def build_certify(rng):
    ops = []
    # Z/7 (6 s a pass) would leave room for only two passes in a run, too
    # few for a steady median on a shared host
    for n in (4, 5, 6):
        C = one_object(groups.cyclic_group(n), rng, "BZ%d" % n)
        ops.append(Op(
            "wefrac(BZ%d)" % n,
            lambda C=C: cofinal.certify_homotopy_cofinal(fincat.factorization(C).cod,
                                                         coinitial=True),
            _aggregate_check,
            lambda n=n: {"factorization": {"objects": n, "morphisms": n ** 3}},
        ))
    for n in (40, 80, 120):
        B = fence(n, rng)
        ops.append(Op(
            "collapse(fence%d)" % n,
            lambda B=B: cofinal.certify_contractible(B),
            _verdict_check("CONTRACTIBLE", "collapse"),
            lambda B=B: category_sizes(B),
        ))
    for n in (8, 16):
        B = crown(n, rng)
        ops.append(Op(
            "crown%d" % n,
            lambda B=B: cofinal.certify_contractible(B),
            _verdict_check("NONCONTRACTIBLE"),
            lambda B=B: nerve_sizes(B),
        ))
    for k in (5, 6):
        B = boolean_lattice(k, rng)
        S = fincat.identity_functor(B)
        for coinitial in (False, True):
            ops.append(Op(
                "%s(id B%d)" % ("coinitial" if coinitial else "cofinal", k),
                lambda S=S, coinitial=coinitial: cofinal.certify_homotopy_cofinal(
                    S, coinitial=coinitial),
                _all_cones_check,
                lambda B=B: category_sizes(B),
            ))
    B = boolean_lattice(4, rng, proper=True)
    ops.append(Op(
        "proper(B4)",
        lambda B=B: cofinal.certify_contractible(B),
        _verdict_check("NONCONTRACTIBLE"),
        lambda B=B: nerve_sizes(B),
    ))
    return ops


# -- theorem-sweep ------------------------------------------------------------------------

# verify fixtures that exit 3 (hypothesis not certified), as asserted in
# tests/test_cli.py; every other fixture exits 0
SWEEP_NONZERO = {
    ("homoliso", "noncofinal-a-in-2"): 3,
    ("discvirt", "not-vdc-par-fold"): 3,
    ("cofpointed", "noncofinal-a-in-2"): 3,
    ("dhiso", "two-cells-collapse"): 3,
    ("confhomolBW", "final-in-two"): 3,
}

# the README's example commands that are not already a verify fixture;
# its "validate workspace.json" names no file, so the demo workspace stands in
README_COMMANDS = [
    ("colim0 --diagram span-z2-z3", 0),
    ("homology --diagram ab-z-z2cat --abelian --nmax 3", 0),
    ("check-cofinal --functor final-in-two", 0),
    ("check-cofinal --functor final-in-two --coinitial", 3),
    ("check-vdc --functor mono-incl-delta1-op", 0),
    ("kan-extend --functor mono-incl-delta1-op --diagram mono-delta1", 0),
    ("factorization --category two", 0),
    ("bw --category z2cat --system z-nsys-z2cat --nmax 2", 0),
    ("gz --dset interval-span --system z-el-interval --nmax 2", 0),
    ("andre --dset hb-two --diagram two-z2 --nmax 2", 0),
    ("hocolim --pointed-diagram bg-span-z2-z3 --level 3 --nmax 2", 0),
    ("pi1 --sset bz2-l3", 0),
    ("fingerprint --presentation x2y3", 0),
    ("list-fixtures", 0),
    ("verify --theorem cofpointed --fixture noncofinal-a-in-2 --assume-hypothesis", 2),
    ("validate demo/workspace.json", 0),
    ("colim0 --workspace demo/workspace.json --diagram free-amalgam", 0),
    ("homology --workspace demo/workspace.json --diagram ab-amalgam --abelian --nmax 2", 0),
    ("gz --workspace demo/workspace.json --dset glued-cells --system z-coefficients", 0),
]

# report fields that carry the answer; the rest of a report (defaults,
# echoed arguments, presentations that a better Tietze pass may shorten)
# is free to change, and new keys are ignored
ANSWER_KEYS = (
    "verdict", "aggregate", "hypothesis", "hypothesis_mode", "per_object", "vdc", "witnesses",
    "abelian", "homology", "cardinalities", "fingerprint", "fingerprints", "pi1_fingerprint",
    "colim0_fingerprint", "routes_agree", "isomorphic", "pass", "witness", "systems", "fibres",
    "values", "entities", "fixtures", "factorization", "n0",
)


def sweep_commands():
    """(name, argv, expected exit code) for every sweep operation."""
    out = []
    for theorem in cli.THEOREMS:
        for name in fixtures.fixture_names(theorem):
            argv = ["verify", "--theorem", theorem, "--fixture", name]
            out.append(("%s/%s" % (theorem, name), argv,
                        SWEEP_NONZERO.get((theorem, name), 0)))
    for line, code in README_COMMANDS:
        out.append((line, line.split(), code))
    return out


def answer_fields(report):
    """The answer-carrying part of a report, without presentations."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "presentation"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return {k: strip(report[k]) for k in ANSWER_KEYS if k in report}


def _contained(expected, got, path):
    """First path at which ``got`` lacks or differs from ``expected``;
    keys that only ``got`` has are ignored."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return path
        for k, v in expected.items():
            if k not in got:
                return "%s/%s" % (path, k)
            bad = _contained(v, got[k], "%s/%s" % (path, k))
            if bad:
                return bad
        return None
    return None if expected == got else path


def run_cli(argv):
    """hocofin's CLI in-process with JSON output; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "json"] + argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def expected_sweep():
    with open(EXPECTED_SWEEP, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_check(name, code):
    def check(result):
        got, out, err = result
        if got != code:
            return "exit %d, expected %d: %s" % (got, code, err.strip()[:200])
        bad = _contained(expected_sweep()[name], answer_fields(json.loads(out)), "")
        return "answer differs at %s" % bad if bad else None
    return check


def build_sweep(rng):
    return [Op(name, lambda argv=argv: run_cli(argv), _sweep_check(name, code))
            for name, argv, code in sweep_commands()]


WORKLOADS = {
    "theorem-sweep": build_sweep,
    "derived-ladder": build_derived,
    "presentation-ladder": build_presentation,
    "certify-ladder": build_certify,
}


def build(workload, rng):
    return WORKLOADS[workload](rng)
