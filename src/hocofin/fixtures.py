"""Built-in desk-scale fixtures: categories, functors, diagrams, presheaves,
the per-theorem fixture registry used by the verification harness, and the
tables of named entities that make up the built-in workspace."""

from __future__ import annotations

from .diagrams import AbDiagram, GroupDiagram, constant_ab_diagram, constant_group_diagram
from .fincat import (
    Functor,
    factorization,
    from_monoid,
    identity_functor,
    opposite,
    opposite_functor,
    validate_category,
)
from .groups import (
    FreeProduct,
    GroupHom,
    GroupPresentation,
    cyclic_group,
    symmetric_group_3,
    trivial_group,
)
from .homalg import AbMap, FGAb, IntMatrix
from .hocolim import PointedDiagram, bg_diagram
from .presheaf import (
    DSet,
    DSetMorphism,
    SSetMap,
    constant_singleton,
    dset_disjoint_union,
    elements_with_parts,
    empty_dset,
    nerve,
    representable,
    standard_simplex,
)


# -- categories ---------------------------------------------------------------


def cat_one():
    return validate_category(["*"], [], [], name="one")


def cat_two():
    return validate_category(["a", "b"], [("u", "a", "b")], [], name="two")


def cat_span():
    return validate_category(
        ["l", "c", "r"], [("p", "c", "l"), ("q", "c", "r")], [], name="span"
    )


def cat_cospan():
    return validate_category(
        ["l", "t", "r"], [("i", "l", "t"), ("j", "r", "t")], [], name="cospan"
    )


def cat_par():
    return validate_category(
        ["a", "b"], [("u", "a", "b"), ("v", "a", "b")], [], name="par"
    )


def cat_disc2():
    return validate_category(["x", "y"], [], [], name="disc2")


def cat_iso2():
    return validate_category(
        ["a", "b"],
        [("u", "a", "b"), ("v", "b", "a")],
        [("v", "u", "id_a"), ("u", "v", "id_b")],
        name="iso2",
    )


def cat_z2():
    return from_monoid(["e", "t"], "e", {
        ("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e",
    }, name="z2cat")


def cat_z3():
    z3 = cyclic_group(3)
    return from_monoid(z3.elements, z3.unit, z3.table, name="z3cat")


def cat_delta1():
    """Full subcategory of the simplex category on the first two objects;
    every morphism factors uniquely as a surjection followed by an
    injection."""
    return validate_category(
        ["d0", "d1"],
        [
            ("f0", "d0", "d1"),
            ("f1", "d0", "d1"),
            ("s", "d1", "d0"),
            ("c0", "d1", "d1"),
            ("c1", "d1", "d1"),
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
        name="delta1",
    )


def cat_delta1_monos():
    return validate_category(
        ["d0", "d1"], [("f0", "d0", "d1"), ("f1", "d0", "d1")], [], name="delta1+"
    )


CATEGORIES = {
    "one": cat_one,
    "two": cat_two,
    "span": cat_span,
    "cospan": cat_cospan,
    "par": cat_par,
    "disc2": cat_disc2,
    "iso2": cat_iso2,
    "z2cat": cat_z2,
    "z3cat": cat_z3,
    "delta1": cat_delta1,
    "delta1-monos": cat_delta1_monos,
}

# categories small enough for the coinitiality criterion on the codomain
# projection; the truncated simplex category is excluded: its cod-fibres
# defeat one-object collapse and the certifier honestly reports EVIDENCE
# or INCONCLUSIVE there
WEFRAC_CATEGORIES = [
    "one", "two", "span", "cospan", "par", "disc2", "iso2", "z2cat", "z3cat",
]


# -- functors -----------------------------------------------------------------


def fun_final_in_two():
    return Functor(cat_one(), cat_two(), {"*": "b"}, {}, name="final-in-two")


def fun_noncofinal_a_in_two():
    return Functor(cat_one(), cat_two(), {"*": "a"}, {}, name="noncofinal-a-in-2")


def fun_id_span():
    return identity_functor(cat_span())


def fun_id_two():
    return identity_functor(cat_two())


def fun_span_to_one():
    P, pt = cat_span(), cat_one()
    return Functor(P, pt, {o: "*" for o in P.objects},
                   {f: "id_*" for f in P.morphisms if not P.is_identity(f)},
                   name="span-to-one")


def fun_iso2_a():
    return Functor(cat_one(), cat_iso2(), {"*": "a"}, {}, name="iso2-a")


def fun_mono_inclusion_op():
    """Opposite of the mono-subcategory inclusion into the truncated
    simplex category: a virtual discrete cofibration whose fibre finals
    are the surjections out of each object."""
    J = Functor(cat_delta1_monos(), cat_delta1(), {"d0": "d0", "d1": "d1"},
                {"f0": "f0", "f1": "f1"}, name="mono-incl")
    return opposite_functor(J)


def fun_fold_disc2():
    D, pt = cat_disc2(), cat_one()
    return Functor(D, pt, {"x": "*", "y": "*"}, {}, name="fold-disc2")


def fun_cod_op(cat_name):
    """cod: FC -> C turned around for the coinitial-form statements."""
    return opposite_functor(factorization(CATEGORIES[cat_name]()).cod)


FUNCTORS = {
    "final-in-two": fun_final_in_two,
    "noncofinal-a-in-2": fun_noncofinal_a_in_two,
    "id-span": fun_id_span,
    "id-two": fun_id_two,
    "span-to-one": fun_span_to_one,
    "iso2-a": fun_iso2_a,
    "mono-incl-delta1-op": fun_mono_inclusion_op,
    "fold-disc2": fun_fold_disc2,
}


# -- group and abelian diagrams -------------------------------------------------


def fp(label, G):
    return FreeProduct.from_group(label, G)


def trivial_hom(src, dst):
    return GroupHom(src, dst, {lbl: {el: () for el in grp.elements} for lbl, grp in src.factors})


def diag_span_z2_z3():
    P = cat_span()
    z2 = fp("L", cyclic_group(2))
    one = fp("C", trivial_group())
    z3 = fp("R", cyclic_group(3))
    return GroupDiagram(P, {"l": z2, "c": one, "r": z3}, {
        "p": trivial_hom(one, z2),
        "q": trivial_hom(one, z3),
    }, name="span-z2-z3")


def diag_span_z2_z2():
    P = cat_span()
    za = fp("L", cyclic_group(2))
    one = fp("C", trivial_group())
    zb = fp("R", cyclic_group(2))
    return GroupDiagram(P, {"l": za, "c": one, "r": zb}, {
        "p": trivial_hom(one, za),
        "q": trivial_hom(one, zb),
    }, name="span-z2-z2")


def diag_two_z2():
    return constant_group_diagram(cat_two(), fp("A", cyclic_group(2)), name="two-z2")


def diag_z2cat_z3_trivial():
    return constant_group_diagram(cat_z2(), fp("A", cyclic_group(3)), name="z2cat-z3")


def diag_iso2_z3_inv():
    C = cat_iso2()
    z3 = fp("A", cyclic_group(3))
    inv = GroupHom(z3, z3, {"A": {"0": (), "1": (("A", "2"),), "2": (("A", "1"),)}})
    return GroupDiagram(C, {"a": z3, "b": z3}, {"u": inv, "v": inv}, name="iso2-z3-inv")


def diag_noncofinal_control():
    two = cat_two()
    triv = fp("T", trivial_group())
    z2 = fp("B", cyclic_group(2))
    return GroupDiagram(two, {"a": triv, "b": z2}, {"u": trivial_hom(triv, z2)},
                        name="control")


def abdiag_span_z2_z3():
    P = cat_span()
    values = {"l": FGAb.cyclic(2), "c": FGAb.trivial(), "r": FGAb.cyclic(3)}
    return AbDiagram(P, values, {
        "p": AbMap.zero(values["c"], values["l"]),
        "q": AbMap.zero(values["c"], values["r"]),
    }, name="ab-span-z2-z3")


def abdiag_two_mult2():
    two = cat_two()
    z = FGAb.free(1)
    return AbDiagram(two, {"a": z, "b": z},
                     {"u": AbMap(z, z, IntMatrix([[2]]))}, name="ab-two-mult2")


def abdiag_iso2_neg():
    C = cat_iso2()
    z3 = FGAb.cyclic(3)
    neg = AbMap(z3, z3, IntMatrix([[-1]]))
    return AbDiagram(C, {"a": z3, "b": z3}, {"u": neg, "v": neg}, name="ab-iso2-neg")


def abdiag_noncofinal_control():
    two = cat_two()
    values = {"a": FGAb.trivial(), "b": FGAb.cyclic(3)}
    return AbDiagram(two, values, {"u": AbMap.zero(values["a"], values["b"])},
                     name="ab-control")


def abdiag_mono_delta1():
    S = fun_mono_inclusion_op()
    values = {"d0": FGAb.cyclic(2), "d1": FGAb.cyclic(3)}
    return AbDiagram(S.source, values, {
        "f0": AbMap.zero(values["d1"], values["d0"]),
        "f1": AbMap.zero(values["d1"], values["d0"]),
    }, name="ab-mono-delta1")


def diag_mono_delta1():
    S = fun_mono_inclusion_op()
    z2 = fp("A", cyclic_group(2))
    z3 = fp("B", cyclic_group(3))
    return GroupDiagram(S.source, {"d0": z2, "d1": z3}, {
        "f0": trivial_hom(z3, z2),
        "f1": trivial_hom(z3, z2),
    }, name="mono-delta1")


def diag_mono_delta1_mod2():
    """Mono-subcategory diagram with nontrivial transport: reduction of a
    4-element cyclic group onto its 2-element quotient."""
    S = fun_mono_inclusion_op()
    z4 = fp("A", cyclic_group(4))
    z2 = fp("B", cyclic_group(2))
    red = GroupHom(z4, z2, {"A": {
        "0": (), "1": (("B", "1"),), "2": (), "3": (("B", "1"),),
    }})
    return GroupDiagram(S.source, {"d0": z2, "d1": z4}, {"f0": red, "f1": red},
                        name="mono-delta1-mod2")


def abdiag_mono_delta1_mod2():
    S = fun_mono_inclusion_op()
    z4, z2 = FGAb.cyclic(4), FGAb.cyclic(2)
    red = AbMap(z4, z2, IntMatrix([[1]]))
    return AbDiagram(S.source, {"d0": z2, "d1": z4}, {"f0": red, "f1": red},
                     name="ab-mono-delta1-mod2")


def diag_disc2_z2_z3():
    D = cat_disc2()
    return GroupDiagram(D, {"x": fp("X", cyclic_group(2)), "y": fp("Y", cyclic_group(3))},
                        {}, name="disc2-z2-z3")


def abdiag_disc2():
    D = cat_disc2()
    return AbDiagram(D, {"x": FGAb.cyclic(2), "y": FGAb.free(1)}, {}, name="ab-disc2")


# -- presheaves -----------------------------------------------------------------


def dset_hb_two():
    return representable(cat_two(), "b")


def dset_union_two():
    two = cat_two()
    return dset_disjoint_union(representable(two, "a"), representable(two, "b"),
                               name="ha+hb")


def dset_interval_span():
    return DSet(cat_span(), {"l": ["x"], "c": ["y"], "r": ["z"]},
                {"p": {"x": "y"}, "q": {"z": "y"}}, name="interval")


def dset_two_cells_span():
    return DSet(cat_span(), {"l": ["x"], "c": ["y1", "y2"], "r": ["z"]},
                {"p": {"x": "y1"}, "q": {"z": "y2"}}, name="two-cells")


def dset_point_span():
    return constant_singleton(cat_span())


def dset_empty_span():
    return empty_dset(cat_span())


DSETS = {
    "hb-two": dset_hb_two,
    "union-two": dset_union_two,
    "interval-span": dset_interval_span,
    "two-cells-span": dset_two_cells_span,
    "point-span": dset_point_span,
    "empty-span": dset_empty_span,
}


def dmor_id_hb():
    hb = dset_hb_two()
    return DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in hb.base.objects})


def dmor_incl_hb_union():
    hb = dset_hb_two()
    X = dset_union_two()
    return DSetMorphism(hb, X, {o: {x: "1.%s" % x for x in hb.sets[o]} for o in hb.base.objects})


def dmor_collapse_union_hb():
    two = cat_two()
    X = dset_union_two()
    hb = dset_hb_two()
    comp = {}
    for o in two.objects:
        table = {}
        for x in X.sets[o]:
            tag, val = x.split(".", 1)
            table[x] = val if tag == "1" else two.comp[("u", val)]
        comp[o] = table
    return DSetMorphism(X, hb, comp)


def dmor_id_hb_par():
    par = cat_par()
    hb = representable(par, "b")
    return DSetMorphism(hb, hb, {o: {x: x for x in hb.sets[o]} for o in par.objects})


def dmor_two_cells_to_point():
    X = dset_two_cells_span()
    pt = constant_singleton(X.base)
    return DSetMorphism(X, pt, {o: {x: "*" for x in X.sets[o]} for o in X.base.objects})


# -- coefficient systems ----------------------------------------------------------


def elements_op(X):
    E, _, _ = elements_with_parts(X)
    return opposite(E)


def const_ab_system(X, group):
    return constant_ab_diagram(elements_op(X), group, name="const")


def const_grp_system(X, free_product):
    return constant_group_diagram(elements_op(X), free_product, name="const")


def const_ab_nsys(C, group):
    return constant_ab_diagram(opposite(factorization(C).category), group, name="const")


def const_grp_nsys(C, free_product):
    return constant_group_diagram(opposite(factorization(C).category), free_product, name="const")


def nonconst_ab_system_interval():
    X = dset_interval_span()
    E, _, parts = elements_with_parts(X)
    Eop = opposite(E)
    z, z2 = FGAb.free(1), FGAb.cyclic(2)
    value = {o: (z if d in ("l", "r") else z2) for o, (d, x) in parts.items()}
    action = {}
    for m in Eop.morphisms:
        if Eop.is_identity(m):
            continue
        action[m] = AbMap(value[Eop.dom[m]], value[Eop.cod[m]], IntMatrix([[1]]))
    return X, AbDiagram(Eop, value, action, name="interval-mod2")


# -- pointed diagrams --------------------------------------------------------------


# the level of the built-in pointed diagrams, read when one is built
POINTED_LEVEL = 3


def pd_point_span():
    C, level = cat_span(), POINTED_LEVEL
    pt = standard_simplex(0, level, basepoint=0)
    return PointedDiagram(C, level, {o: pt for o in C.objects},
                          {f: SSetMap.identity(pt) for f in C.morphisms}, name="pt-span")


def pd_bg_span_z2_z3():
    return bg_diagram(diag_span_z2_z3(), POINTED_LEVEL)


def pd_bg_two_z2():
    return bg_diagram(diag_two_z2(), POINTED_LEVEL)


def pd_bg_z2cat_z3():
    return bg_diagram(diag_z2cat_z3_trivial(), POINTED_LEVEL)


def pd_interval_two():
    C, level = cat_two(), POINTED_LEVEL
    interval = standard_simplex(1, level, basepoint=0)
    pt = standard_simplex(0, level, basepoint=0)
    collapse = SSetMap(
        interval, pt,
        [{x: pt.simplices[n][0] for x in interval.simplices[n]} for n in range(level + 1)],
        pointed=True,
    )
    return PointedDiagram(C, level, {"a": interval, "b": pt}, {"u": collapse},
                          name="interval-two")


POINTED_DIAGRAMS = {
    "pt-span": pd_point_span,
    "bg-span-z2-z3": pd_bg_span_z2_z3,
    "bg-two-z2": pd_bg_two_z2,
    "bg-z2cat-z3": pd_bg_z2cat_z3,
    "interval-two": pd_interval_two,
}


# -- the per-theorem registry --------------------------------------------------------


def _homoliso_fixture(functor_builder, grp_builder, ab_builder):
    def build():
        S = functor_builder()
        return {
            "functor": S,
            "group_diagram": grp_builder(S.target),
            "ab_diagram": ab_builder(S.target),
        }

    return build


def _const_grp(group_ctor):
    def make(C):
        return constant_group_diagram(C, fp("A", group_ctor()), name="const")

    return make


def _const_ab(group):
    def make(C):
        return constant_ab_diagram(C, group, name="const")

    return make


THEOREM_FIXTURES = {
    "homoliso": {
        "final-in-two": _homoliso_fixture(
            fun_final_in_two, _const_grp(lambda: cyclic_group(2)), _const_ab(FGAb.cyclic(6))
        ),
        "id-span": lambda: {
            "functor": fun_id_span(),
            "group_diagram": diag_span_z2_z3(),
            "ab_diagram": abdiag_span_z2_z3(),
        },
        "span-to-one": _homoliso_fixture(
            fun_span_to_one, _const_grp(lambda: cyclic_group(3)), _const_ab(FGAb.cyclic(4))
        ),
        "iso2-a": lambda: {
            "functor": fun_iso2_a(),
            "group_diagram": diag_iso2_z3_inv(),
            "ab_diagram": abdiag_iso2_neg(),
        },
        "cod-one": _homoliso_fixture(
            lambda: fun_cod_op("one"), _const_grp(lambda: cyclic_group(2)),
            _const_ab(FGAb.free(1)),
        ),
        "cod-two": _homoliso_fixture(
            lambda: fun_cod_op("two"), _const_grp(lambda: cyclic_group(2)),
            _const_ab(FGAb.free(1)),
        ),
        "cod-span": _homoliso_fixture(
            lambda: fun_cod_op("span"), _const_grp(lambda: cyclic_group(3)),
            _const_ab(FGAb.free(1)),
        ),
        "cod-z2cat": _homoliso_fixture(
            lambda: fun_cod_op("z2cat"), _const_grp(lambda: cyclic_group(2)),
            _const_ab(FGAb.free(1)),
        ),
        "noncofinal-a-in-2": lambda: {
            "functor": fun_noncofinal_a_in_two(),
            "group_diagram": diag_noncofinal_control(),
            "ab_diagram": abdiag_noncofinal_control(),
        },
    },
    "discvirt": {
        "vdc-id-span": lambda: {
            "functor": fun_id_span(),
            "group_diagram": diag_span_z2_z3(),
            "ab_diagram": abdiag_span_z2_z3(),
        },
        "vdc-fold-disc2": lambda: {
            "functor": fun_fold_disc2(),
            "group_diagram": diag_disc2_z2_z3(),
            "ab_diagram": abdiag_disc2(),
        },
        "vdc-mono-delta1": lambda: {
            "functor": fun_mono_inclusion_op(),
            "group_diagram": diag_mono_delta1(),
            "ab_diagram": abdiag_mono_delta1(),
        },
        "vdc-final-in-two": lambda: {
            "functor": fun_final_in_two(),
            "group_diagram": constant_group_diagram(cat_one(), fp("A", cyclic_group(4))),
            "ab_diagram": constant_ab_diagram(cat_one(), FGAb.cyclic(4)),
        },
        "vdc-mono-delta1-mod2": lambda: {
            "functor": fun_mono_inclusion_op(),
            "group_diagram": diag_mono_delta1_mod2(),
            "ab_diagram": abdiag_mono_delta1_mod2(),
        },
        "vdc-iso2-to-one": lambda: {
            "functor": Functor(cat_iso2(), cat_one(),
                               {"a": "*", "b": "*"},
                               {"u": "id_*", "v": "id_*"}, name="iso2-to-one"),
            "group_diagram": diag_iso2_z3_inv(),
            "ab_diagram": abdiag_iso2_neg(),
        },
        "not-vdc-par-fold": lambda: {
            "functor": Functor(cat_par(), cat_two(), {"a": "a", "b": "b"},
                               {"u": "u", "v": "u"}, name="par-fold"),
            "group_diagram": constant_group_diagram(cat_par(), fp("A", cyclic_group(2))),
            "ab_diagram": constant_ab_diagram(cat_par(), FGAb.cyclic(2)),
        },
    },
    "cofpointed": {
        "final-in-two": lambda: {
            "functor": fun_final_in_two(),
            "pointed_diagram": pd_bg_two_z2(),
            "level": 3,
        },
        "id-span": lambda: {
            "functor": fun_id_span(),
            "pointed_diagram": pd_bg_span_z2_z3(),
            "level": 3,
        },
        "iso2-a": lambda: {
            "functor": fun_iso2_a(),
            "pointed_diagram": bg_diagram(diag_iso2_z3_inv(), 3),
            "level": 3,
        },
        "noncofinal-a-in-2": lambda: {
            "functor": fun_noncofinal_a_in_two(),
            "pointed_diagram": bg_diagram(diag_noncofinal_control(), 3),
            "level": 3,
        },
    },
    "main2-n0": {
        "span-z2-z3": lambda: {"group_diagram": diag_span_z2_z3(), "level": 3},
        "span-z2-z2": lambda: {"group_diagram": diag_span_z2_z2(), "level": 3},
        "two-z2": lambda: {"group_diagram": diag_two_z2(), "level": 3},
        "z2cat-z3-trivial": lambda: {"group_diagram": diag_z2cat_z3_trivial(), "level": 3},
    },
    "contralan": {
        "two-hb": lambda: {
            "dset": dset_hb_two(),
            "ab_system": const_ab_system(dset_hb_two(), FGAb.free(1)),
            "group_system": const_grp_system(dset_hb_two(), fp("A", cyclic_group(2))),
        },
        "two-union": lambda: {
            "dset": dset_union_two(),
            "ab_system": const_ab_system(dset_union_two(), FGAb.cyclic(4)),
            "group_system": const_grp_system(dset_union_two(), fp("A", cyclic_group(3))),
        },
        "span-interval": lambda: {
            "dset": dset_interval_span(),
            "ab_system": const_ab_system(dset_interval_span(), FGAb.free(1)),
            "group_system": const_grp_system(dset_interval_span(), fp("A", cyclic_group(3))),
        },
        "span-interval-nonconst": lambda: dict(
            zip(("dset", "ab_system"), nonconst_ab_system_interval())
        ),
        "span-point": lambda: {
            "dset": dset_point_span(),
            "ab_system": const_ab_system(dset_point_span(), FGAb.cyclic(6)),
        },
        "span-empty": lambda: {
            "dset": dset_empty_span(),
            "ab_system": const_ab_system(dset_empty_span(), FGAb.free(1)),
        },
    },
    "corfact": {
        "one": lambda: {"category": cat_one(), "ab_system": const_ab_nsys(cat_one(), FGAb.free(1))},
        "two": lambda: {"category": cat_two(), "ab_system": const_ab_nsys(cat_two(), FGAb.free(1))},
        "span": lambda: {"category": cat_span(), "ab_system": const_ab_nsys(cat_span(), FGAb.free(1))},
        "z2cat": lambda: {"category": cat_z2(), "ab_system": const_ab_nsys(cat_z2(), FGAb.free(1))},
    },
    "factfibres": {
        "id-two": lambda: {"functor": fun_id_two()},
        "final-in-two": lambda: {"functor": fun_final_in_two()},
        "span-to-one": lambda: {"functor": fun_span_to_one()},
        "iso2-a": lambda: {"functor": fun_iso2_a()},
    },
    "wefrac": {name: (lambda n=name: {"category": CATEGORIES[n]()}) for name in WEFRAC_CATEGORIES},
    "lcodecar": {name: (lambda b=builder: {"pointed_diagram": b(), "level": 3})
                 for name, builder in POINTED_DIAGRAMS.items()},
    "dliso": {
        "id-hb": lambda: {
            "dset_morphism": dmor_id_hb(),
            "ab_system": const_ab_system(dset_hb_two(), FGAb.cyclic(2)),
            "group_system": const_grp_system(dset_hb_two(), fp("A", cyclic_group(2))),
        },
        "incl-hb-union": lambda: {
            "dset_morphism": dmor_incl_hb_union(),
            "ab_system": const_ab_system(dset_hb_two(), FGAb.free(1)),
        },
        "collapse-union-hb": lambda: {
            "dset_morphism": dmor_collapse_union_hb(),
            "ab_system": const_ab_system(dset_union_two(), FGAb.cyclic(3)),
            "group_system": const_grp_system(dset_union_two(), fp("A", cyclic_group(2))),
        },
    },
    "dhiso": {
        "id-hb": lambda: {
            "dset_morphism": dmor_id_hb(),
            "ab_system": const_ab_system(dset_hb_two(), FGAb.cyclic(4)),
        },
        "par-hb": lambda: {
            "dset_morphism": dmor_id_hb_par(),
            "ab_system": const_ab_system(dmor_id_hb_par().target, FGAb.cyclic(2)),
        },
        "two-cells-collapse": lambda: {
            "dset_morphism": dmor_two_cells_to_point(),
            "ab_system": const_ab_system(dset_point_span(), FGAb.cyclic(2)),
        },
    },
    "confhomolBW": {
        "id-two": lambda: {
            "functor": fun_id_two(),
            "ab_system": const_ab_nsys(cat_two(), FGAb.cyclic(2)),
            "group_system": const_grp_nsys(cat_two(), fp("A", cyclic_group(2))),
        },
        "iso2-a": lambda: {
            "functor": fun_iso2_a(),
            "ab_system": const_ab_nsys(cat_iso2(), FGAb.free(1)),
        },
        "final-in-two": lambda: {
            "functor": fun_final_in_two(),
            "ab_system": const_ab_nsys(cat_two(), FGAb.free(1)),
        },
    },
}


def fixture_names(theorem):
    return sorted(THEOREM_FIXTURES[theorem])


def load_fixture(theorem, name):
    try:
        return THEOREM_FIXTURES[theorem][name]()
    except KeyError:
        raise KeyError("no fixture %r for theorem %r" % (name, theorem)) from None


GROUPS = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "s3": symmetric_group_3,
}

PRESENTATIONS = {
    "x2": lambda: GroupPresentation(["x"], [["x", "x"]]),
    "x2y3": lambda: GroupPresentation(["x", "y"], [["x", "x"], ["y", "y", "y"]]),
    "free2": lambda: GroupPresentation(["x", "y"], []),
}

DIAGRAMS = {
    "span-z2-z3": diag_span_z2_z3,
    "span-z2-z2": diag_span_z2_z2,
    "two-z2": diag_two_z2,
    "z2cat-z3": diag_z2cat_z3_trivial,
    "iso2-z3-inv": diag_iso2_z3_inv,
    "noncofinal-control": diag_noncofinal_control,
    "disc2-z2-z3": diag_disc2_z2_z3,
    "mono-delta1": diag_mono_delta1,
}

ABDIAGRAMS = {
    "ab-span-z2-z3": abdiag_span_z2_z3,
    "ab-two-mult2": abdiag_two_mult2,
    "ab-iso2-neg": abdiag_iso2_neg,
    "ab-control": abdiag_noncofinal_control,
    "ab-mono-delta1": abdiag_mono_delta1,
    "ab-disc2": abdiag_disc2,
    "ab-z-two": lambda: constant_ab_diagram(cat_two(), FGAb.free(1), name="ab-z-two"),
    "ab-z-z2cat": lambda: constant_ab_diagram(cat_z2(), FGAb.free(1), name="ab-z-z2cat"),
}

DSETMAPS = {
    "id-hb": dmor_id_hb,
    "incl-hb-union": dmor_incl_hb_union,
    "collapse-union-hb": dmor_collapse_union_hb,
    "id-hb-par": dmor_id_hb_par,
    "two-cells-to-point": dmor_two_cells_to_point,
}

SSETS = {
    "bz2-l3": lambda: nerve(cat_z2(), 3, basepoint="*"),
    "bspan-l3": lambda: nerve(cat_span(), 3, basepoint="l"),
}

SYSTEMS = {
    "z-el-hb": lambda: const_ab_system(dset_hb_two(), FGAb.free(1)),
    "z-el-interval": lambda: const_ab_system(dset_interval_span(), FGAb.free(1)),
    "z2grp-el-interval": lambda: const_grp_system(dset_interval_span(), fp("A", cyclic_group(2))),
    **{"z-nsys-%s" % c: (lambda c=c: const_ab_nsys(CATEGORIES[c](), FGAb.free(1)))
       for c in ("one", "two", "span", "z2cat")},
    "z2grp-nsys-two": lambda: const_grp_nsys(cat_two(), fp("A", cyclic_group(2))),
}

# workspace section -> the built-in entities it holds
BUILTINS = {
    "categories": CATEGORIES,
    "functors": {**FUNCTORS, **{"cod-%s-op" % c: (lambda c=c: fun_cod_op(c))
                                for c in WEFRAC_CATEGORIES}},
    "groups": GROUPS,
    "presentations": PRESENTATIONS,
    "diagrams": DIAGRAMS,
    "abdiagrams": ABDIAGRAMS,
    "dsets": DSETS,
    "dsetmaps": DSETMAPS,
    "ssets": SSETS,
    "pointed_diagrams": POINTED_DIAGRAMS,
    "systems": SYSTEMS,
}


def register_builtins(ws):
    """Register every built-in entity in the workspace ``ws``; each is built
    on first use."""
    for section, table in BUILTINS.items():
        for name, build in table.items():
            ws.register(section, name, build)
