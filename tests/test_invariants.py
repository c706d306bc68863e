"""Cross-module invariants promised by the library's contracts."""

import doctest

import hocofin.fincat as fincat_mod
import hocofin.groups as groups_mod
import hocofin.homalg as homalg_mod
from hocofin import fixtures
from hocofin.diagrams import ab_colim_derived, constant_ab_diagram
from hocofin.fincat import factorization, final_objects, iso_check, opposite
from hocofin.groups import catalog, fingerprint, fingerprint_of_table_group, product_group, tietze_simplify
from hocofin.homalg import FGAb
from hocofin.presheaf import edge_path_group, elements_with_parts, homology_ss, nerve, representable


def test_doctests():
    for mod in (homalg_mod, groups_mod, fincat_mod):
        failures, _ = doctest.testmod(mod)
        assert failures == 0, mod.__name__


def test_opposite_involution_on_all_fixture_categories():
    for name, builder in fixtures.CATEGORIES.items():
        C = builder()
        assert opposite(opposite(C)) == C, name


def test_factorization_respects_op_on_all_small_categories(monkeypatch):
    monkeypatch.setattr(fincat_mod, "ISO_MAX_OBJECTS", 16)
    monkeypatch.setattr(fincat_mod, "ISO_MAX_MORPHISMS", 110)
    for name in fixtures.WEFRAC_CATEGORIES:
        C = fixtures.CATEGORIES[name]()
        FC = factorization(C).category
        FCop = factorization(opposite(C)).category
        assert iso_check(FCop, FC) is not None, name


def test_elements_of_representables_have_final_objects():
    for cname in ("two", "span", "iso2"):
        C = fixtures.CATEGORIES[cname]()
        for d in C.objects:
            E, _, _ = elements_with_parts(representable(C, d))
            fins = final_objects(E)
            assert "(%s|%s)" % (d, C.identity[d]) in fins, (cname, d)


def test_nerve_of_category_with_final_object_is_acyclic():
    for cname in ("one", "two", "cospan", "iso2"):
        C = fixtures.CATEGORIES[cname]()
        if not final_objects(C):
            continue
        hs = homology_ss(nerve(C, 3), 2)
        assert hs[0] == FGAb.free(1), cname
        assert all(h == FGAb.trivial() for h in hs[1:]), cname


def test_edge_path_fingerprint_matches_group_for_v4():
    from hocofin.fincat import from_monoid
    from hocofin.groups import cyclic_group

    G = product_group(cyclic_group(2), cyclic_group(2), name="V4")
    C = from_monoid(G.elements, G.unit, G.table)
    X = nerve(C, 2, basepoint="*")
    P = tietze_simplify(edge_path_group(X))
    assert fingerprint(P) == fingerprint_of_table_group(G)


def test_catalog_fingerprint_separates_catalog_groups():
    # hom-counting into the catalog distinguishes all 14 catalog groups
    prints = [fingerprint_of_table_group(G) for G in catalog()]
    assert len(set(prints)) == 14


def test_bw_agreement_between_category_and_opposite():
    # constant coefficients transport trivially along F(C^op) = F(C)
    from hocofin.gz import bw_homology

    for cname in ("two", "span", "z2cat"):
        C = fixtures.CATEGORIES[cname]()
        for coeff in (FGAb.free(1), FGAb.cyclic(2)):
            lhs = bw_homology(C, fixtures.const_ab_nsys(C, coeff), 2)
            rhs = bw_homology(opposite(C), fixtures.const_ab_nsys(opposite(C), coeff), 2)
            assert lhs["abelian"] == rhs["abelian"], (cname, str(coeff))


def test_colim0_of_constant_diagram_over_cone_category():
    from hocofin.diagrams import colim0, constant_group_diagram
    from hocofin.groups import FreeProduct, cyclic_group

    for cname in ("one", "two", "cospan", "iso2"):
        C = fixtures.CATEGORIES[cname]()
        if not final_objects(C):
            continue
        G = constant_group_diagram(C, FreeProduct.from_group("A", cyclic_group(4)))
        assert fingerprint(colim0(C, G)) == fingerprint_of_table_group(cyclic_group(4)), cname


def test_elements_functor_opposites_are_vdcs():
    # the opposite of the induced elements functor of any presheaf
    # morphism is a virtual discrete cofibration
    from hocofin.cofinal import is_vdc
    from hocofin.fincat import opposite_functor
    from hocofin.gz import elements_functor

    for name in ("id-hb", "incl-hb-union", "collapse-union-hb", "two-cells-to-point"):
        builder = {
            "id-hb": fixtures.dmor_id_hb,
            "incl-hb-union": fixtures.dmor_incl_hb_union,
            "collapse-union-hb": fixtures.dmor_collapse_union_hb,
            "two-cells-to-point": fixtures.dmor_two_cells_to_point,
        }[name]
        S = elements_functor(builder())
        ok, _ = is_vdc(opposite_functor(S))
        assert ok, name


def test_derived_colimits_vanish_over_cone_categories():
    for cname in ("one", "two", "cospan", "iso2", "span"):
        C = fixtures.CATEGORIES[cname]()
        M = constant_ab_diagram(C, FGAb.from_invariants(1, (2,)))
        hs = ab_colim_derived(C, M, 3)
        assert hs[0] == FGAb.from_invariants(1, (2,)), cname
        assert all(h == FGAb.trivial() for h in hs[1:]), cname
