import pytest

from hocofin import diagrams, fincat, fixtures
from hocofin.diagrams import (
    DiagramError,
    NotVDC,
    TruncationUnsound,
    ab_colim_derived,
    abelianize_diagram,
    colim0,
    constant_ab_diagram,
    constant_group_diagram,
    kan_extend_vdc,
    srep_ab_complex,
    AbDiagram,
    GroupDiagram,
)
from hocofin.cofinal import analyze_fibres
from hocofin.fincat import Functor, from_monoid, identity_functor, validate_category
from hocofin.groups import (
    FreeProduct,
    GroupHom,
    GroupPresentation,
    cyclic_group,
    fingerprint,
    symmetric_group_3,
    trivial_group,
)
from hocofin.homalg import AbMap, FGAb, IntMatrix
from hocofin.hocolim import HocolimError, LevelMismatch, PointedDiagram
from hocofin.presheaf import SSetMap, nerve, normalized_chain_complex, standard_simplex
from oracles import ab_colim0_by_coequalizer, relation_matrix


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span")


def z2cat():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")


def span_z2_z3():
    P = span()
    z2 = FreeProduct.from_group("L", cyclic_group(2))
    one = FreeProduct.from_group("C", trivial_group())
    z3 = FreeProduct.from_group("R", cyclic_group(3))
    values = {"l": z2, "c": one, "r": z3}
    actions = {
        "p": GroupHom(one, z2, {"C": {"0": ()}}),
        "q": GroupHom(one, z3, {"C": {"0": ()}}),
    }
    return GroupDiagram(P, values, actions, name="Z2<-1->Z3")


# -- independent oracles -----------------------------------------------------


def bar_complex_homology(G, n_max):
    """Unnormalized bar-complex oracle for H_*(G; Z) of a table group.

    C_n is free abelian on G^n; d_0 drops the first letter, inner faces
    multiply adjacent letters, d_n drops the last.
    """
    from itertools import product

    from hocofin.homalg import AbMap, ChainComplex

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


def test_bar_oracle_z2():
    assert bar_complex_homology(cyclic_group(2), 3) == [
        FGAb.free(1),
        FGAb.cyclic(2),
        FGAb.trivial(),
        FGAb.cyclic(2),
    ]


# -- colim0 -------------------------------------------------------------------


def test_a_group_diagram_refuses_an_action_between_the_wrong_values():
    two = validate_category(["a", "b"], [("u", "a", "b")], [])
    z2, z3 = FreeProduct([("A", cyclic_group(2))]), FreeProduct([("B", cyclic_group(3))])
    trivial = {"A": {"0": (), "1": ()}}
    with pytest.raises(DiagramError, match="action of u has the wrong source"):
        GroupDiagram(two, {"a": z3, "b": z2}, {"u": GroupHom(z2, z2, trivial)})
    with pytest.raises(DiagramError, match="action of u has the wrong target"):
        GroupDiagram(two, {"a": z2, "b": z2}, {"u": GroupHom(z2, z3, trivial)})


def test_colim0_span_z2_z3():
    G = span_z2_z3()
    P = colim0(G.base, G)
    expected = GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]])
    assert fingerprint(P) == fingerprint(expected)
    from hocofin.groups import hom_count, symmetric_group_3

    assert hom_count(P, symmetric_group_3()) == 12


def test_colim0_constant_over_category_with_final_object():
    two = walking_arrow()
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    G = constant_group_diagram(two, z3)
    from hocofin.groups import fingerprint_of_table_group

    assert fingerprint(colim0(two, G)) == fingerprint_of_table_group(cyclic_group(3))


def test_colim0_coinvariants_trivial_action():
    C = z2cat()
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    G = constant_group_diagram(C, z3)
    from hocofin.groups import fingerprint_of_table_group

    assert fingerprint(colim0(C, G)) == fingerprint_of_table_group(cyclic_group(3))


def test_colim0_coinvariants_inversion_action():
    # Z/2 acting on Z/3 by inversion: coequalizer forces x = x^-1, so the
    # colimit is trivial
    C = z2cat()
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    inv = GroupHom(z3, z3, {"A": {"0": (), "1": (("A", "2"),), "2": (("A", "1"),)}})
    G = GroupDiagram(C, {"*": z3}, {"t": inv})
    assert fingerprint(colim0(C, G)) == tuple(1 for _ in range(14))


# -- derived abelian colimits -------------------------------------------------


def test_srep_d1_puts_the_transport_block_at_face_0():
    # rows a, b; the single chain u: d_0 carries M(a) to M(b) by 2 with
    # sign +, d_1 keeps it at a with sign -
    M = fixtures.abdiag_two_mult2()
    d1 = srep_ab_complex(M.base, M, 0).boundaries[1].matrix
    assert d1 == IntMatrix([[-1], [2]])


@pytest.mark.parametrize("name", sorted(fixtures.CATEGORIES))
def test_srep_of_constant_z_is_the_nerve_complex(name):
    C = fixtures.CATEGORIES[name]()
    K1 = srep_ab_complex(C, constant_ab_diagram(C, FGAb.free(1)), 2)
    K2 = normalized_chain_complex(nerve(C, 3), 2)
    for n in range(4):
        assert K1.boundaries[n].matrix == K2.boundaries[n].matrix, n


def test_ab_colim_derived_z2_matches_bar_oracle():
    C = z2cat()
    M = constant_ab_diagram(C, FGAb.free(1))
    got = ab_colim_derived(C, M, 3)
    assert got == bar_complex_homology(cyclic_group(2), 3)
    assert got == [FGAb.free(1), FGAb.cyclic(2), FGAb.trivial(), FGAb.cyclic(2)]


def test_ab_colim_derived_bs3():
    # the former wall of the dense SNF: 1/5/25/125/625 chains in degrees 0-4
    s3 = symmetric_group_3()
    C = from_monoid(s3.elements, s3.unit, s3.table, name="S3")
    got = ab_colim_derived(C, constant_ab_diagram(C, FGAb.free(1)), 3)
    assert got == [FGAb.free(1), FGAb.cyclic(2), FGAb.trivial(), FGAb.cyclic(6)]


def test_ab_colim_derived_cone():
    two = walking_arrow()
    for M0 in (FGAb.free(1), FGAb.cyclic(4), FGAb.from_invariants(1, (2,))):
        M = constant_ab_diagram(two, M0)
        got = ab_colim_derived(two, M, 3)
        assert got[0] == M0
        assert all(h == FGAb.trivial() for h in got[1:])


def test_ab_colim_derived_span_z2_z3():
    P = span()
    values = {"l": FGAb.cyclic(2), "c": FGAb.trivial(), "r": FGAb.cyclic(3)}
    actions = {
        "p": AbMap.zero(values["c"], values["l"]),
        "q": AbMap.zero(values["c"], values["r"]),
    }
    M = AbDiagram(P, values, actions)
    got = ab_colim_derived(P, M, 1)
    assert got == [FGAb.cyclic(6), FGAb.trivial()]


def test_ab_colim_derived_degree0_is_coequalizer():
    cases = []
    two = walking_arrow()
    m2 = AbDiagram(
        two,
        {"a": FGAb.free(1), "b": FGAb.free(1)},
        {"u": AbMap(FGAb.free(1), FGAb.free(1), IntMatrix([[2]]))},
    )
    cases.append((two, m2))
    C = z2cat()
    cases.append((C, constant_ab_diagram(C, FGAb.cyclic(4))))
    P = span()
    cases.append((P, constant_ab_diagram(P, FGAb.free(2))))
    for C_, M_ in cases:
        assert ab_colim_derived(C_, M_, 0)[0] == ab_colim0_by_coequalizer(C_, M_)


def test_truncation_cap(monkeypatch):
    C = z2cat()
    M = constant_ab_diagram(C, FGAb.free(1))
    monkeypatch.setattr(diagrams, "DEFAULT_CHAIN_CAP", 0)
    with pytest.raises(TruncationUnsound):
        ab_colim_derived(C, M, 3)


# -- abelianization -----------------------------------------------------------


def test_abelianize_free_product_values():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    fp = FreeProduct([("A", z2), ("B", z3)])
    C = validate_category(["x"], [], [])
    G = GroupDiagram(C, {"x": fp}, {})
    M = abelianize_diagram(G)
    assert M.value["x"] == FGAb.cyclic(6)


def test_abelianize_conjugation_acts_as_identity():
    # conjugation by a fixed element abelianizes to the identity map
    from hocofin.groups import symmetric_group_3

    s3 = symmetric_group_3()
    fp = FreeProduct.from_group("A", s3)
    h = "102"  # a transposition
    conj = GroupHom(
        fp,
        fp,
        {"A": {e: fp.letter("A", s3.table[(s3.table[(h, e)], s3.inv[h])]) for e in s3.elements}},
    )
    C = z2cat()
    G = GroupDiagram(C, {"*": fp}, {"t": conj})
    M = abelianize_diagram(G)
    ident = AbMap.identity(M.value["*"])
    assert M.action["t"].equals(ident)


# -- Kan extension ------------------------------------------------------------


def test_kan_extend_identity():
    G = span_z2_z3()
    S = identity_functor(G.base)
    L = kan_extend_vdc(S, G)
    assert fingerprint(colim0(G.base, L)) == fingerprint(colim0(G.base, G))
    for o in G.base.objects:
        assert len(L.value[o].nontrivial_factors()) == len(
            G.value[o].nontrivial_factors()
        )


def test_kan_extend_final_object_inclusion():
    two = walking_arrow()
    pt = validate_category(["*"], [], [], name="1")
    S = Functor(pt, two, {"*": "b"}, {"id_*": "id_b"})
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    G = constant_group_diagram(pt, z3)
    L = kan_extend_vdc(S, G)
    # value at a: the fibre over a is empty, so the empty free product
    assert L.value["a"].factors == []
    assert len(L.value["b"].nontrivial_factors()) == 1


def test_kan_extend_places_the_transported_block():
    # y -> b beside the arrow u: a -> b; the fibre over b has the
    # components {(y, id_b)} and {(a, u) -> (b, id_b)}, in that order, so
    # Lan(b) = M(y) + M(b) and u sends M(a) by M(u) into the second block
    two = walking_arrow()
    src = validate_category(["y", "a", "b"], [("u", "a", "b")], [], name="2+1")
    S = Functor(src, two, {"y": "b", "a": "a", "b": "b"},
                {"u": "u", "id_y": "id_b", "id_a": "id_a", "id_b": "id_b"})
    z = FGAb.free(1)
    M = AbDiagram(src, {"y": FGAb.cyclic(3), "a": z, "b": z},
                  {"u": AbMap(z, z, IntMatrix([[2]]))})
    L = kan_extend_vdc(S, M)
    assert relation_matrix(L.value["b"]) == IntMatrix([[3], [0]])
    assert L.action["u"].matrix == IntMatrix([[0], [2]])


def test_kan_extend_not_vdc():
    # inclusion of {a} into the parallel-pair category a =u,v=> b is not a
    # VDC: the fibre over b is two objects (a,u), (a,v) in one?? they are
    # NOT connected (no morphisms), each alone with a final object, so it
    # IS a VDC; use instead the projection of the parallel pair onto the
    # walking arrow, whose fibre over b is connected without a final object
    par = validate_category(["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [], name="par")
    two = walking_arrow()
    S = Functor(par, two, {"a": "a", "b": "b"}, {"u": "u", "v": "u"})
    fibres = analyze_fibres(S)
    assert not fibres["b"].ok
    z2 = FreeProduct.from_group("A", cyclic_group(2))
    with pytest.raises(NotVDC):
        kan_extend_vdc(S, constant_group_diagram(par, z2))


def test_kan_extend_fold_of_two_points():
    disc2 = validate_category(["x", "y"], [], [], name="disc2")
    pt = validate_category(["*"], [], [], name="1")
    S = Functor(disc2, pt, {"x": "*", "y": "*"}, {"id_x": "id_*", "id_y": "id_*"})
    z2 = FreeProduct.from_group("X", cyclic_group(2))
    z3 = FreeProduct.from_group("Y", cyclic_group(3))
    G = GroupDiagram(disc2, {"x": z2, "y": z3}, {})
    L = kan_extend_vdc(S, G)
    assert len(L.value["*"].nontrivial_factors()) == 2
    assert fingerprint(colim0(pt, L)) == fingerprint(colim0(disc2, G))


def delta1_trunc():
    """Full subcategory of the simplex category on [0] and [1]."""
    return validate_category(
        ["d0", "d1"],
        [
            ("f0", "d0", "d1"),   # vertex 0
            ("f1", "d0", "d1"),   # vertex 1
            ("s", "d1", "d0"),    # collapse
            ("c0", "d1", "d1"),   # constant 0 = f0 s
            ("c1", "d1", "d1"),   # constant 1 = f1 s
        ],
        [
            ("s", "f0", "id_d0"),
            ("s", "f1", "id_d0"),
            ("f0", "s", "c0"),
            ("f1", "s", "c1"),
            ("s", "c0", "s"),
            ("s", "c1", "s"),
            ("c0", "f0", "f0"),
            ("c0", "f1", "f0"),
            ("c1", "f0", "f1"),
            ("c1", "f1", "f1"),
            ("c0", "c0", "c0"),
            ("c0", "c1", "c0"),
            ("c1", "c0", "c1"),
            ("c1", "c1", "c1"),
        ],
        name="Delta<=1",
    )


def mono_inclusion_op():
    """Opposite of the mono-subcategory inclusion of the truncated simplex
    category; a virtual discrete cofibration by unique epi-mono
    factorization."""
    D = delta1_trunc()
    Dplus = validate_category(
        ["d0", "d1"], [("f0", "d0", "d1"), ("f1", "d0", "d1")], [], name="Delta<=1,+"
    )
    J = Functor(Dplus, D, {"d0": "d0", "d1": "d1"}, {"f0": "f0", "f1": "f1"})
    return fincat.opposite_functor(J)


def test_mono_inclusion_is_vdc_with_epi_fibres():
    Jop = mono_inclusion_op()
    fibres = analyze_fibres(Jop)
    assert all(fa.ok for fa in fibres.values())
    # the chosen final objects over d are exactly the epis out of d:
    # over d1: the identity and the collapse s; over d0: just the identity
    z2 = FreeProduct.from_group("A", cyclic_group(2))
    z3 = FreeProduct.from_group("B", cyclic_group(3))
    G = GroupDiagram(
        Jop.source,
        {"d0": z2, "d1": z3},
        {
            # in Dplus^op the arrows run d1 -> d0; pick the trivial maps
            "f0": GroupHom(z3, z2, {"B": {"0": (), "1": (), "2": ()}}),
            "f1": GroupHom(z3, z2, {"B": {"0": (), "1": (), "2": ()}}),
        },
    )
    L = kan_extend_vdc(Jop, G)
    # Lan at d1 = G(d1) * G(d0) (epis id_d1 and s), at d0 = G(d0)
    assert len(L.value["d1"].nontrivial_factors()) == 2
    assert len(L.value["d0"].nontrivial_factors()) == 1
    assert fingerprint(colim0(Jop.source, G)) == fingerprint(colim0(Jop.target, L))


def test_kan_extension_preserves_abelian_derived_colimits():
    # the abelian instance of the invariance theorem, on three fixtures
    two = walking_arrow()
    pt = validate_category(["*"], [], [], name="1")
    fixtures = []
    S1 = Functor(pt, two, {"*": "b"}, {"id_*": "id_b"})
    fixtures.append((S1, constant_ab_diagram(pt, FGAb.cyclic(4))))
    disc2 = validate_category(["x", "y"], [], [], name="disc2")
    S2 = Functor(disc2, pt, {"x": "*", "y": "*"}, {"id_x": "id_*", "id_y": "id_*"})
    M2 = AbDiagram(disc2, {"x": FGAb.cyclic(2), "y": FGAb.free(1)}, {})
    fixtures.append((S2, M2))
    Jop = mono_inclusion_op()
    M3 = AbDiagram(
        Jop.source,
        {"d0": FGAb.cyclic(2), "d1": FGAb.cyclic(3)},
        {
            "f0": AbMap.zero(FGAb.cyclic(3), FGAb.cyclic(2)),
            "f1": AbMap.zero(FGAb.cyclic(3), FGAb.cyclic(2)),
        },
    )
    fixtures.append((Jop, M3))
    for S, M in fixtures:
        L = kan_extend_vdc(S, M)
        lhs = ab_colim_derived(S.source, M, 3)
        rhs = ab_colim_derived(S.target, L, 3)
        assert lhs == rhs


# -- each diagram kind refuses a bad action with its own error ------------------


def _group_kind():
    z3 = FreeProduct.from_group("A", cyclic_group(3))
    z2 = FreeProduct.from_group("B", cyclic_group(2))
    return dict(
        make=lambda C, values, actions: GroupDiagram(C, values, actions),
        value=z3, other=z2,
        identity=GroupHom.identity(z3),
        negation=GroupHom(z3, z3, {"A": {"0": (), "1": (("A", "2"),), "2": (("A", "1"),)}}),
        zero=GroupHom(z3, z3, {"A": {"0": (), "1": (), "2": ()}}),
        other_identity=GroupHom.identity(z2),
        errors={k: DiagramError for k in ("value", "action", "ends", "identity", "functoriality")},
    )


def _abelian_kind():
    Z = FGAb.free(1)
    return dict(
        make=lambda C, values, actions: AbDiagram(C, values, actions),
        value=Z, other=FGAb.free(2),
        identity=AbMap.identity(Z),
        negation=AbMap(Z, Z, [{0: -1}]),
        zero=AbMap.zero(Z, Z),
        other_identity=AbMap.identity(FGAb.free(2)),
        errors={k: DiagramError for k in ("value", "action", "ends", "identity", "functoriality")},
    )


def _pointed_kind():
    X = standard_simplex(1, 1, basepoint=0)
    pt = standard_simplex(0, 1, basepoint=0)
    const = SSetMap(X, X, [{x: (0,) for x in X.simplices[0]}, {x: (0, 0) for x in X.simplices[1]}],
                    pointed=True)
    return dict(
        make=lambda C, values, actions: PointedDiagram(C, 1, values, actions),
        value=X, other=pt,
        identity=SSetMap.identity(X),
        negation=const, zero=const,
        other_identity=SSetMap.identity(pt),
        errors=dict({k: HocolimError for k in ("value", "action", "ends", "identity", "functoriality")},
                    level=LevelMismatch),
    )


DIAGRAM_KINDS = {"group": _group_kind, "abelian": _abelian_kind, "pointed": _pointed_kind}

BAD_ACTIONS = {
    "missing-value": ("value", lambda k: ({}, {"t": k["identity"]}), "misses a value at \\*"),
    "missing-action": ("action", lambda k: ({"*": k["value"]}, {}), "misses the action of t"),
    "wrong-values": ("ends", lambda k: ({"*": k["value"]}, {"t": k["other_identity"]}),
                     "action of t (has the wrong|connects the wrong)"),
    "identity-not-identity": ("identity", lambda k: ({"*": k["value"]},
                                                     {"id_*": k["negation"], "t": k["identity"]}),
                              "identity (of|at) \\* does not act as"),
    "broken-functoriality": ("functoriality", lambda k: ({"*": k["value"]}, {"t": k["zero"]}),
                             "functoriality fails at \\(t, t\\)"),
}


@pytest.mark.parametrize("bad", sorted(BAD_ACTIONS))
@pytest.mark.parametrize("kind", sorted(DIAGRAM_KINDS))
def test_each_diagram_kind_refuses_a_bad_action_with_its_own_error(kind, bad):
    # over Z/2 as a one-object category: t∘t = id_*
    C = fixtures.cat_z2()
    k = DIAGRAM_KINDS[kind]()
    what, build, message = BAD_ACTIONS[bad]
    values, actions = build(k)
    with pytest.raises(k["errors"][what], match=message) as caught:
        k["make"](C, values, actions)
    assert type(caught.value) is k["errors"][what]


def test_a_pointed_value_at_the_wrong_level_is_a_level_mismatch():
    C = fixtures.cat_z2()
    X = standard_simplex(1, 2, basepoint=0)
    with pytest.raises(LevelMismatch, match="value at \\* has level 2, want 1"):
        PointedDiagram(C, 1, {"*": X}, {"t": SSetMap.identity(X)})
    with pytest.raises(HocolimError, match="value at \\* is not pointed"):
        PointedDiagram(C, 1, {"*": standard_simplex(1, 1)}, {})
