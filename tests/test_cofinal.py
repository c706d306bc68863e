from hocofin import fincat
from hocofin.cofinal import (
    CONTRACTIBLE,
    EVIDENCE,
    NONCONTRACTIBLE,
    certify_contractible,
    certify_homotopy_cofinal,
    is_finally_discrete,
    is_vdc,
    replay_certificate,
)
from hocofin.fincat import (
    Functor,
    factorization,
    from_monoid,
    identity_functor,
    opposite,
    opposite_functor,
    validate_category,
)
from hocofin.groups import cyclic_group


def walking_arrow():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="2")


def span():
    return validate_category(["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span")


def one():
    return validate_category(["*"], [], [], name="1")


def cospan():
    return validate_category(["l", "t", "r"], [("i", "l", "t"), ("j", "r", "t")], [], name="cospan")


def par():
    return validate_category(["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [], name="par")


def z2cat():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="Z2")


def test_finally_discrete():
    disc = validate_category(["x", "y"], [], [])
    assert is_finally_discrete(disc)[0]
    assert not is_finally_discrete(span())[0]
    assert is_finally_discrete(walking_arrow())[0]


def test_is_vdc():
    assert is_vdc(identity_functor(span()))[0]
    pt = one()
    two = walking_arrow()
    incl_b = Functor(pt, two, {"*": "b"}, {})
    assert is_vdc(incl_b)[0]  # empty fibre over a is vacuously finally discrete
    # the fold of the parallel pair onto the walking arrow is not a VDC
    S = Functor(par(), two, {"a": "a", "b": "b"}, {"u": "u", "v": "u"})
    ok, witnesses = is_vdc(S)
    assert not ok
    assert not witnesses["b"]["finally_discrete"]


def test_certify_contractible_cone():
    v = certify_contractible(walking_arrow())
    assert v.kind == CONTRACTIBLE
    assert v.certificate["kind"] == "cone"
    assert replay_certificate(walking_arrow(), v.certificate)


def test_certify_contractible_empty_and_disconnected():
    empty = validate_category([], [], [])
    assert certify_contractible(empty).kind == NONCONTRACTIBLE
    disc = validate_category(["x", "y"], [], [])
    assert certify_contractible(disc).kind == NONCONTRACTIBLE


def test_certify_z2_noncontractible_via_h1():
    v = certify_contractible(z2cat(), n_max=2)
    assert v.kind == NONCONTRACTIBLE
    assert v.witness == {"degree": 1, "homology": "Z/2"}


def test_certify_circle_noncontractible():
    # nerve of the parallel pair is a circle: H_1 = Z
    v = certify_contractible(par(), n_max=2)
    assert v.kind == NONCONTRACTIBLE
    assert v.witness["degree"] == 1
    assert v.witness["homology"] == "Z"


def test_certify_span_contractible_via_initial():
    v = certify_contractible(span())
    assert v.kind == CONTRACTIBLE
    assert v.certificate == {"kind": "cone", "object": "c", "side": "initial"}


def test_cod_fibres_collapse_to_contractible():
    # the codomain projection from the factorization category, in
    # coinitial form, certifies CONTRACTIBLE at every object
    for C in (one(), walking_arrow(), span(), cospan(), z2cat()):
        F = factorization(C)
        report = certify_homotopy_cofinal(F.cod, effort=1, n_max=2, coinitial=True)
        assert report["aggregate"] == CONTRACTIBLE, (C.name, {
            d: v.kind for d, v in report["per_object"].items()
        })
        for d, v in report["per_object"].items():
            if v.certificate["kind"] == "collapse":
                cat, _, _ = fincat.comma_left_fibre(F.cod, d)
                assert replay_certificate(opposite(cat), v.certificate)


def test_final_object_inclusion_is_cofinal():
    pt = one()
    two = walking_arrow()
    S = Functor(pt, two, {"*": "b"}, {})
    report = certify_homotopy_cofinal(S)
    assert report["aggregate"] == CONTRACTIBLE


def test_initial_object_inclusion_is_not_cofinal():
    pt = one()
    two = walking_arrow()
    S = Functor(pt, two, {"*": "a"}, {})
    report = certify_homotopy_cofinal(S)
    assert report["aggregate"] == NONCONTRACTIBLE
    assert report["per_object"]["b"].witness == {"empty": True}


def test_finally_discrete_implies_componentwise_contractible():
    cases = [
        walking_arrow(),
        validate_category(["x", "y"], [], []),
        fincat.disjoint_union(walking_arrow(), one()),
    ]
    for B in cases:
        ok, details = is_finally_discrete(B)
        assert ok
        for comp in fincat.connected_components(B):
            sub = fincat.full_subcategory(B, comp)
            assert certify_contractible(sub).kind == CONTRACTIBLE


def test_coinitial_mode_matches_opposite():
    # S coinitial iff S^op cofinal: verify the verdicts agree on a fixture
    pt = one()
    two = walking_arrow()
    S = Functor(pt, two, {"*": "a"}, {})  # a is initial, so S is coinitial
    rep = certify_homotopy_cofinal(S, coinitial=True)
    assert rep["aggregate"] == CONTRACTIBLE
    Sop = opposite_functor(S)
    rep2 = certify_homotopy_cofinal(Sop)
    assert rep2["aggregate"] == CONTRACTIBLE


# -- the cone path reads hom-sets only ----------------------------------------------


def stages_built(monkeypatch):
    """The stages that views build from now on: (view, "listing") on the
    first read of morphisms, dom or cod, (view, "table") on that of comp."""
    built = []
    original = fincat._View.__getattr__

    def counting(self, name):
        if name == "comp":
            built.append((self, "table"))
        elif name in ("morphisms", "dom", "cod", "_out"):
            built.append((self, "listing"))
        return original(self, name)

    monkeypatch.setattr(fincat._View, "__getattr__", counting)
    return built


def test_wefrac_of_bz8_is_certified_by_a_cone_without_a_table(monkeypatch):
    G = cyclic_group(8)
    C = from_monoid(G.elements, G.unit, G.table, name="BZ8")
    built = stages_built(monkeypatch)
    F = factorization(C)
    report = certify_homotopy_cofinal(F.cod, coinitial=True)
    assert report["aggregate"] == CONTRACTIBLE
    assert report["per_object"]["*"].certificate["kind"] == "cone"
    # neither F(BZ8) nor the fibre nor its opposite was listed or tabulated
    assert built == []
    fibre, _, _ = fincat.comma_left_fibre(F.cod, "*")
    assert len(fibre.objects) == 64 and len(fibre.morphisms) == 4096
    assert sum(1 for _ in fibre.composable_pairs()) == 262144
    assert built == [(fibre, "listing")]


def boolean_lattice(k):
    """Subsets of {0..k-1} by inclusion, named "{0,2}"."""
    subset = {"{%s}" % ",".join(map(str, s)): set(s)
              for s in ([i for i in range(k) if m >> i & 1] for m in range(2 ** k))}
    return fincat.from_poset(list(subset), lambda x, y: subset[x] <= subset[y], name="B%d" % k)


def test_cofinality_of_the_identity_of_b6_builds_no_table(monkeypatch):
    B6 = boolean_lattice(6)
    assert len(B6.morphisms) == 3 ** 6
    built = stages_built(monkeypatch)
    for coinitial in (False, True):
        report = certify_homotopy_cofinal(identity_functor(B6), coinitial=coinitial)
        assert report["aggregate"] == CONTRACTIBLE
        assert {v.certificate["kind"] for v in report["per_object"].values()} == {"cone"}
    # no coslice, fibre or opposite was listed or tabulated
    assert built == []
    assert is_vdc(identity_functor(B6))[0]
    assert built and {stage for _, stage in built} == {"listing"}
