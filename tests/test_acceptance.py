"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from hocofin import fixtures
from hocofin.cli import main as cli_main
from hocofin.cofinal import certify_contractible, certify_homotopy_cofinal
from hocofin.diagrams import ab_colim_derived, colim0, constant_ab_diagram, kan_extend_vdc
from hocofin.fincat import (
    comma_left_fibre,
    factor_functor,
    factor_slice,
    factorization,
    from_monoid,
    iso_check,
)
from hocofin.groups import cyclic_group, fingerprint, symmetric_group_3, tietze_simplify
from hocofin.gz import bw_homology, gz_homology
from hocofin.homalg import FGAb, IntMatrix, smith_normal_form
from hocofin.hocolim import bg_diagram, hocolim_pointed, pointed_quotient_check
from hocofin.presheaf import edge_path_group, nerve
from oracles import verify_smith_normal_form


def _report(number, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (number, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (number, text)


def bar_complex_homology_z2(n_max):
    """Independent oracle: unnormalized bar complex of the 2-element group."""
    from itertools import product

    from hocofin.homalg import AbMap, ChainComplex

    G = cyclic_group(2)
    tuples = {n: list(product(G.elements, repeat=n)) for n in range(n_max + 2)}
    index = {n: {t: i for i, t in enumerate(tuples[n])} for n in tuples}
    groups = {-1: FGAb.trivial()}
    for n in range(n_max + 2):
        groups[n] = FGAb.free(len(tuples[n]))
    boundaries = {0: AbMap.zero(groups[0], groups[-1])}
    for n in range(1, n_max + 2):
        rows, cols = len(tuples[n - 1]), len(tuples[n])
        M = [[0] * cols for _ in range(rows)]
        for j, t in enumerate(tuples[n]):
            for i in range(n + 1):
                if i == 0:
                    face = t[1:]
                elif i == n:
                    face = t[:-1]
                else:
                    face = t[: i - 1] + (G.table[(t[i - 1], t[i])],) + t[i + 1 :]
                M[index[n - 1][face]][j] += -1 if i % 2 else 1
        boundaries[n] = AbMap(groups[n], groups[n - 1], IntMatrix(M, (rows, cols)), check=False)
    K = ChainComplex(groups, boundaries)
    return [K.homology(n) for n in range(n_max + 1)]


def test_criterion_01_group_homology_sanity():
    t0 = time.perf_counter()
    C = fixtures.cat_z2()
    got = ab_colim_derived(C, constant_ab_diagram(C, FGAb.free(1)), 3)
    oracle = bar_complex_homology_z2(3)
    expected = [FGAb.free(1), FGAb.cyclic(2), FGAb.trivial(), FGAb.cyclic(2)]
    elapsed = time.perf_counter() - t0
    ok = got == oracle == expected and elapsed < 1.0
    _report(1, ok, "Z/2 group homology (Z, Z/2, 0, Z/2) vs bar oracle in %.2fs" % elapsed)


_HOMOLISO_POSITIVE = [
    "final-in-two", "cod-one", "cod-two", "cod-span", "cod-z2cat",
    "id-span", "span-to-one", "iso2-a",
]


def test_criterion_02_homoliso_abelian():
    checked = 0
    for name in _HOMOLISO_POSITIVE:
        fx = fixtures.load_fixture("homoliso", name)
        S = fx["functor"]
        cert = certify_homotopy_cofinal(S, effort=1, n_max=2)
        assert cert["aggregate"] == "CONTRACTIBLE", (name, cert["aggregate"])
        M = fx["ab_diagram"]
        lhs = ab_colim_derived(S.source, M.restrict(S), 3)
        rhs = ab_colim_derived(S.target, M, 3)
        assert lhs == rhs, name
        checked += 1
    _report(2, checked >= 5,
            "degreewise abelian invariance on %d all-CONTRACTIBLE fixtures, n <= 3" % checked)


def test_criterion_03_homoliso_nonabelian_n0():
    checked = 0
    for name in _HOMOLISO_POSITIVE:
        fx = fixtures.load_fixture("homoliso", name)
        S = fx["functor"]
        G = fx["group_diagram"]
        lhs = fingerprint(colim0(S.source, G.restrict(S)))
        rhs = fingerprint(colim0(S.target, G))
        assert lhs == rhs, name
        checked += 1
    _report(3, checked >= 5,
            "colim0 fingerprint equality (catalog bound 8) on %d fixtures" % checked)


def test_criterion_04_discvirt():
    names = [
        "vdc-id-span", "vdc-fold-disc2", "vdc-mono-delta1", "vdc-final-in-two",
        "vdc-mono-delta1-mod2", "vdc-iso2-to-one",
    ]
    for name in names:
        fx = fixtures.load_fixture("discvirt", name)
        S = fx["functor"]
        M = fx["ab_diagram"]
        G = fx["group_diagram"]
        assert ab_colim_derived(S.source, M, 3) == ab_colim_derived(
            S.target, kan_extend_vdc(S, M), 3
        ), name
        assert fingerprint(colim0(S.source, G)) == fingerprint(
            colim0(S.target, kan_extend_vdc(S, G))
        ), name
    _report(4, len(names) >= 3,
            "Kan-extension invariance on %d VDC fixtures incl. the mono-subcategory inclusion" % len(names))


def test_criterion_05_main2_n0():
    # the span fixture first, with the 36-case brute-force oracle for the
    # hom count of Z/2 * Z/3 into S3
    s3 = symmetric_group_3()

    def power(g, k):
        acc = s3.unit
        for _ in range(k):
            acc = s3.table[(acc, g)]
        return acc

    brute = sum(
        1
        for a in s3.elements
        for b in s3.elements
        if power(a, 2) == s3.unit and power(b, 3) == s3.unit
    )
    assert brute == 12
    names = ["span-z2-z3", "span-z2-z2", "two-z2", "z2cat-z3-trivial"]
    for name in names:
        fx = fixtures.load_fixture("main2-n0", name)
        G = fx["group_diagram"]
        H = hocolim_pointed(bg_diagram(G, 3), 3)
        pi1 = fingerprint(tietze_simplify(edge_path_group(H)))
        c0 = fingerprint(colim0(G.base, G))
        assert pi1 == c0, name
        if name == "span-z2-z3":
            from hocofin.groups import catalog

            idx = next(i for i, T in enumerate(catalog()) if T.name == "S3")
            assert pi1[idx] == brute == 12
    _report(5, len(names) >= 3,
            "pi1(hocolim BG) fingerprints = colim0 fingerprints on %d fixtures (S3 count 12)" % len(names))


def test_criterion_06_lcodecar():
    names = sorted(fixtures.POINTED_DIAGRAMS)
    for name in names:
        PD = fixtures.POINTED_DIAGRAMS[name]()
        rep = pointed_quotient_check(PD, 3)
        assert rep["pass"], (name, rep)
    _report(6, bool(names),
            "basepoint-chain quotient identity degreewise to level 3 on %d pointed fixtures" % len(names))


def test_criterion_07_contralan():
    names = sorted(fixtures.THEOREM_FIXTURES["contralan"])
    bases = set()
    for name in names:
        fx = fixtures.load_fixture("contralan", name)
        X = fx["dset"]
        bases.add(X.base.name)
        for key in ("ab_system", "group_system"):
            if key in fx and fx[key] is not None:
                res = gz_homology(X, fx[key], 3)
                assert res["routes_agree"], (name, key)
    _report(7, len(names) >= 4 and len(bases) >= 2,
            "elements vs Lan route equality on %d presheaf fixtures over %d bases, n <= 3"
            % (len(names), len(bases)))


def test_criterion_08_corfact():
    for name in ("one", "two", "span", "z2cat"):
        fx = fixtures.load_fixture("corfact", name)
        res = bw_homology(fx["category"], fx["ab_system"], 2)
        assert res["routes_agree"], name
    _report(8, True, "factorization vs nerve route equality on one/two/span/z2cat, n <= 2")


def test_criterion_09_factfibres():
    count = 0
    for name in ("id-two", "final-in-two", "span-to-one", "iso2-a"):
        fx = fixtures.load_fixture("factfibres", name)
        S = fx["functor"]
        FS = factor_functor(S)
        for alpha in S.target.morphisms:
            lhs, _, _ = comma_left_fibre(FS, alpha)
            rhs = factorization(factor_slice(S, alpha)).category
            assert iso_check(lhs, rhs) is not None, (
                name, alpha,
            )
        count += 1
    _report(9, count >= 3,
            "factorization-fibre isomorphism for every morphism across %d functors" % count)


def test_criterion_10_wefrac():
    for name in fixtures.WEFRAC_CATEGORIES:
        C = fixtures.CATEGORIES[name]()
        assert len(C.morphisms) <= 8, name
        F = factorization(C)
        rep = certify_homotopy_cofinal(F.cod, effort=1, n_max=2, coinitial=True)
        assert rep["aggregate"] == "CONTRACTIBLE", (name, rep["aggregate"])
        for d, v in rep["per_object"].items():
            assert v.kind == "CONTRACTIBLE", (name, d)
    _report(10, True,
            "codomain projection coinitial (all objects CONTRACTIBLE) on %d small categories"
            % len(fixtures.WEFRAC_CATEGORIES))


def test_criterion_11_negative_controls(capsys):
    code = cli_main([
        "verify", "--theorem", "cofpointed", "--fixture", "noncofinal-a-in-2",
        "--assume-hypothesis",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "disagree" in out
    v = certify_contractible(fixtures.cat_z2(), n_max=2)
    assert v.kind == "NONCONTRACTIBLE"
    assert v.witness == {"degree": 1, "homology": "Z/2"}
    with capsys.disabled():
        _report(11, True,
                "non-cofinal inclusion exits 2 with a homology disagreement; BZ/2 NONCONTRACTIBLE via H1=Z/2")


def test_criterion_12_snf_random_verification():
    rng = random.Random(12345)
    t0 = time.perf_counter()
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], (m, n))
        U, D, V = smith_normal_form(A)
        verify_smith_normal_form(A, U, D, V)
    elapsed = time.perf_counter() - t0
    _report(12, True,
            "SNF (UAV=D, unimodularity, divisibility) verified on 1000 random matrices in %.1fs"
            % elapsed)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4),
)
def test_criterion_12b_simplicial_identities_on_random_posets(n, extra):
    # nerves of random posets: the TruncSSet validator (all simplicial
    # identities), which nerve skips, raises on any violation
    elements = ["p%d" % i for i in range(n)]
    order = {(a, b) for a, b in ((elements[i], elements[j]) for i in range(n) for j in range(i, n))}

    def leq(x, y):
        return (x, y) in order

    from hocofin.fincat import from_poset

    C = from_poset(elements, leq)
    nerve(C, 3)._check()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5))
def test_criterion_12c_cyclic_nerves_validate(k):
    G = cyclic_group(k)
    C = from_monoid(G.elements, G.unit, G.table)
    nerve(C, 3)._check()


def test_criterion_12d_boundary_square_checked_on_every_complex():
    # ChainComplex construction rejects a non-complex: the check runs on
    # every build (all builders in this package construct through it)
    import pytest

    from hocofin.homalg import AbMap, ChainComplex, HomalgError

    groups = {0: FGAb.free(1), 1: FGAb.free(1), 2: FGAb.free(1)}
    boundaries = {
        1: AbMap(groups[1], groups[0], IntMatrix([[3]]), check=False),
        2: AbMap(groups[2], groups[1], IntMatrix([[1]]), check=False),
    }
    with pytest.raises(HomalgError):
        ChainComplex(groups, boundaries)
    _report(12, True, "boundary-squared-zero asserted on every complex construction")
