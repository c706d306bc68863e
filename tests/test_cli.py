import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hocofin import cli, fincat, fixtures, gz
from hocofin._jsonio import InputError, Workspace
from hocofin.cli import main
from hocofin.cofinal import ContractibilityVerdict
from hocofin.diagrams import AbDiagram, constant_ab_diagram, constant_group_diagram
from hocofin.groups import FreeProduct, cyclic_group
from hocofin.homalg import FGAb


DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "demo", "workspace.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# the point as a level-1 simplicial set: vertex v and its degenerate edge sv
POINT = {
    "level": 1,
    "simplices": [["v"], ["sv"]],
    "faces": {"1,0": {"sv": "v"}, "1,1": {"sv": "v"}},
    "degeneracies": {"0,0": {"v": "sv"}},
    "basepoint": "v",
}

GOOD_WORKSPACE = {
    "categories": {
        "two": {
            "objects": ["a", "b"],
            "morphisms": [{"id": "u", "dom": "a", "cod": "b"}],
            "composition": [],
        },
        "one": {"objects": ["*"], "morphisms": [], "composition": []},
    },
    "functors": {
        "inc-b": {"source": "one", "target": "two", "objects": {"*": "b"}},
    },
    "groups": {
        "z2": {
            "kind": "table",
            "elements": ["0", "1"],
            "unit": "0",
            "table": [["0", "1"], ["1", "0"]],
        }
    },
    "presentations": {
        "p": {"kind": "presentation", "generators": ["x"], "relators": [["x", "x"]]}
    },
    "diagrams": {
        "d": {
            "category": "two",
            "groups": {"a": {"ref": "z2", "label": "A"}, "b": {"ref": "z2", "label": "A"}},
            "homs": {"u": {"A.1": [["A", "1"]]}},
        }
    },
    "abdiagrams": {
        "m": {
            "category": "two",
            "values": {"a": {"gens": 1}, "b": {"gens": 1}},
            "maps": {"u": {"rows": 1, "cols": 1, "data": ["2"]}},
        }
    },
    "dsets": {
        "hb": {
            "category": "two",
            "sets": {"a": ["u"], "b": ["ib"]},
            "maps": {"u": {"ib": "u"}},
        }
    },
    "dsetmaps": {
        "idhb": {
            "source": "hb",
            "target": "hb",
            "components": {"a": {"u": "u"}, "b": {"ib": "ib"}},
        }
    },
    "ssets": {"pt": POINT},
    "pointed_diagrams": {
        "pd": {"category": "two", "level": 1, "values": {"a": POINT, "b": POINT},
               "maps": {"u": [{"v": "v"}, {"sv": "sv"}]}},
        "bgd": {"kind": "bg", "diagram": "d", "level": 2},
    },
    "systems": {
        "s": {"over": {"kind": "elements-op", "dset": "hb"}, "constant_abelian": {"gens": 1}},
        "ns": {"over": {"kind": "factorization-op", "category": "two"},
               "constant_abelian": {"gens": 1}},
    },
}


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(GOOD_WORKSPACE), encoding="utf-8")
    return str(path)


def test_validate_good_workspace(capsys, ws_file):
    code, out = run(capsys, "validate", ws_file)
    assert code == 0
    assert "two" in out


def test_validate_missing_composite(capsys, tmp_path):
    bad = {
        "objects": ["a", "b", "c"],
        "morphisms": [
            {"id": "f", "dom": "a", "cod": "b"},
            {"id": "g", "dom": "b", "cod": "c"},
        ],
        "composition": [],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "MissingComposite" in err


def test_validate_rejects_unknown_keys(capsys, tmp_path):
    bad = {"objects": ["a"], "morphisms": [], "composition": [], "extra": 1}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    code = main(["validate", str(path)])
    assert code == 1
    assert "unknown keys" in capsys.readouterr().err


MALFORMED = {
    "top-level-array": ([GOOD_WORKSPACE], "must hold a JSON object"),
    "section-not-an-object": ({"categories": []}, "section categories must be a JSON object"),
    "morphisms-not-a-list": (
        {"objects": ["a"], "morphisms": 5, "composition": []},
        "category morphisms must be a JSON array",
    ),
    "system-diagram-key": (
        dict(GOOD_WORKSPACE, systems={"s": {
            "over": {"kind": "factorization-op", "category": "two"}, "diagram": {},
        }}),
        "system has unknown keys: diagram",
    ),
    # bw used to answer Z/2 from the group and drop the abelian value
    "system-group-and-abelian": (
        dict(GOOD_WORKSPACE, systems={"s": {
            "over": {"kind": "factorization-op", "category": "two"},
            "constant_group": {"ref": "z2"}, "constant_abelian": {"gens": 1},
        }}),
        "system gives both constant_group and constant_abelian",
    ),
    "group-not-an-object": (
        dict(GOOD_WORKSPACE, groups={"z2": 5}),
        "group must be a JSON object",
    ),
    "matrix-data-length": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], maps={"u": {"rows": 1, "cols": 1, "data": ["2", "3"]}},
        )}),
        "matrix data has 2 entries, rows*cols is 1",
    ),
    # matrix entries are decimal strings: ASCII digits and an optional minus
    **{"matrix-entry-%s" % case: (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], maps={"u": {"rows": 1, "cols": 1, "data": [entry]}},
        )}),
        "matrix entry must be an integer, not %r" % entry,
    ) for case, entry in (("with-an-underscore", "1_000"), ("with-spaces", " 7 "),
                          ("with-a-non-ascii-digit", "\u0663"))},
    "gens-not-an-integer": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], values={"a": {"gens": "x"}, "b": {"gens": 1}},
        )}),
        "abelian group gens must be an integer",
    ),
    "map-on-object-without-value": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
            GOOD_WORKSPACE["abdiagrams"]["m"], values={"b": {"gens": 1}},
        )}),
        "abelian diagram misses a value at a",
    ),
    "functor-objects-not-an-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects=5)}),
        "functor objects must be a JSON object",
    ),
    "functor-morphisms-not-an-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], morphisms=[])}),
        "functor morphisms must be a JSON object",
    ),
    "dset-sets-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets=5)}),
        "presheaf sets must be a JSON object",
    ),
    "dset-set-not-a-list": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets={"a": 5, "b": ["ib"]})}),
        "presheaf set at a must be a JSON array",
    ),
    "dset-maps-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps=5)}),
        "presheaf maps must be a JSON object",
    ),
    "dset-map-not-an-object": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps={"u": 5})}),
        "presheaf map at u must be a JSON object",
    ),
    "dsetmap-components-not-an-object": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(GOOD_WORKSPACE["dsetmaps"]["idhb"], components=5)}),
        "presheaf morphism components must be a JSON object",
    ),
    "dsetmap-component-not-an-object": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(
            GOOD_WORKSPACE["dsetmaps"]["idhb"], components={"a": 5, "b": {"ib": "ib"}},
        )}),
        "component at a must be a JSON object",
    ),
    "presentation-generators-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], generators=5)}),
        "presentation generators must be a JSON array",
    ),
    "presentation-relators-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], relators=5)}),
        "presentation relators must be a JSON array",
    ),
    "relator-not-a-list": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], relators=[5])}),
        "relator must be a JSON array",
    ),
    **{
        "relator-letter-" + case: (
            dict(GOOD_WORKSPACE, presentations={"p": dict(
                GOOD_WORKSPACE["presentations"]["p"], relators=[["x", letter]],
            )}),
            "relator letter must be a string or a [string, 1 or -1] pair",
        )
        for case, letter in (
            ("a-number", 5),
            ("null", None),
            ("short-pair", ["x"]),
            ("long-pair", ["x", 2, 3]),
            ("boolean-exponent", ["x", True]),
        )
    },
    **{
        "presentation-generator-" + case: (
            dict(GOOD_WORKSPACE, presentations={"p": {
                "kind": "presentation", "generators": [generator], "relators": [],
            }}),
            "presentation generator must be a string",
        )
        for case, generator in (("a-list", ["x"]), ("a-number", 5), ("null", None))
    },
    "group-element-a-list": (
        dict(GOOD_WORKSPACE, groups={"z2": dict(GOOD_WORKSPACE["groups"]["z2"], elements=["0", ["1"]])}),
        'group element must be a string or a number, not ["1"]',
    ),
    "group-table-entry-a-list": (
        dict(GOOD_WORKSPACE, groups={"z2": dict(
            GOOD_WORKSPACE["groups"]["z2"], table=[["0", "1"], ["1", ["0"]]],
        )}),
        'group table entry must be a string or a number, not ["0"]',
    ),
    "dset-set-element-a-list": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], sets={"a": [["u"]], "b": ["ib"]})}),
        'presheaf set element at a must be a string or a number, not ["u"]',
    ),
    **{
        "dset-map-value-" + case: (
            dict(GOOD_WORKSPACE, dsets={"hb": dict(GOOD_WORKSPACE["dsets"]["hb"], maps={"u": {"ib": value}})}),
            "presheaf map at u value must be a string or a number, not " + json.dumps(value),
        )
        for case, value in (("a-list", ["u"]), ("an-object", {"u": 1}))
    },
    "dsetmap-component-value-a-list": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(
            GOOD_WORKSPACE["dsetmaps"]["idhb"], components={"a": {"u": ["u"]}, "b": {"ib": "ib"}},
        )}),
        'component at a value must be a string or a number, not ["u"]',
    ),
    "hom-key-naming-no-letter": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", "1"]], "g": [["A", "1"]]}},
        )}),
        "hom at u has keys naming no letter of its source: g",
    ),
    **{
        "sset-" + case: (dict(GOOD_WORKSPACE, ssets={"pt": dict(POINT, **change)}), message)
        for case, change, message in (
            ("level-not-an-integer", {"level": "two"}, "simplicial set level must be an integer"),
            ("faces-not-an-object", {"faces": []}, "simplicial set faces must be a JSON object"),
            ("face-key-not-n-comma-i", {"faces": {"1": {"sv": "v"}, "1,1": {"sv": "v"}}},
             'simplicial set faces key \'1\' must be "n,i"'),
            ("simplices-not-a-list", {"simplices": 5}, "simplicial set simplices must be a JSON array"),
            ("simplex-not-a-string", {"simplices": [[["v"]], ["sv"]]},
             "simplices of degree 0 must be simplex ids"),
            ("face-value-not-a-string", {"faces": {"1,0": {"sv": ["v"]}, "1,1": {"sv": "v"}}},
             "simplicial set faces 1,0 must map to simplex ids"),
            ("face-key-above-the-level", {"faces": dict(POINT["faces"], **{"7,3": {"zz": "q"}})},
             "simplicial set faces key '7,3' names no map of a level-1 set"),
            ("face-index-above-the-degree", {"faces": dict(POINT["faces"], **{"1,2": {"sv": "v"}})},
             "simplicial set faces key '1,2' names no map of a level-1 set"),
            ("face-key-in-degree-0", {"faces": dict(POINT["faces"], **{"0,0": {"v": "v"}})},
             "simplicial set faces key '0,0' names no map of a level-1 set"),
            ("degeneracy-key-at-the-level", {"degeneracies": {"0,0": {"v": "sv"}, "1,0": {"sv": "s"}}},
             "simplicial set degeneracies key '1,0' names no map of a level-1 set"),
            ("degeneracy-index-above-the-degree", {"degeneracies": {"0,0": {"v": "sv"}, "0,1": {"v": "sv"}}},
             "simplicial set degeneracies key '0,1' names no map of a level-1 set"),
        )
    },
    "free-product-factor-without-label": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], groups={
            "a": {"kind": "free_product", "factors": [{"group": GOOD_WORKSPACE["groups"]["z2"]}]},
            "b": {"ref": "z2", "label": "A"},
        })}),
        "free product factor misses keys: label",
    ),
    "hom-word-not-a-list": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": 5}})}),
        "hom at u must be a JSON array",
    ),
    "hom-letter-not-a-pair": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", ["1"]]]}},
        )}),
        "hom at u letter must be a [label, element] pair",
    ),
    "hom-letter-unknown-element": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(
            GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {"A.1": [["A", "7"]]}},
        )}),
        "unknown element 7 in factor A",
    ),
    "pointed-diagram-map-on-unknown-morphism": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(
            GOOD_WORKSPACE["pointed_diagrams"]["pd"], maps={"zz": [{"v": "v"}, {"sv": "sv"}]},
        )}),
        "pointed diagram references unknown morphism zz",
    ),
    "pointed-diagram-unknown-kind": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(
            GOOD_WORKSPACE["pointed_diagrams"]["pd"], kind="no-such-kind",
        )}),
        'unknown pointed diagram kind "no-such-kind"',
    ),
    "pointed-diagram-level-not-an-integer": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(GOOD_WORKSPACE["pointed_diagrams"]["pd"], level="z")}),
        "pointed diagram level must be an integer",
    ),
    "reference-not-a-string": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], source=["one"])}),
        "categories are named by strings",
    ),
    **{
        "system-" + case: (
            dict(GOOD_WORKSPACE, systems={"s": {"over": over, "constant_abelian": {"gens": 1}}}),
            message,
        )
        for case, over, message in (
            ("elements-op-without-dset", {"kind": "elements-op"},
             "system base over elements misses keys: dset"),
            ("elements-op-with-a-category", {"kind": "elements-op", "dset": "hb", "category": "two"},
             "system base over elements has unknown keys: category"),
            ("factorization-op-with-a-dset", {"kind": "factorization-op", "category": "two", "dset": "hb"},
             "system base over a factorization has unknown keys: dset"),
        )
    },
    "category-object-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], one={
            "objects": [1], "morphisms": [], "composition": [],
        })),
        "category object must be a string, not 1",
    ),
    "morphism-id-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], two=dict(
            GOOD_WORKSPACE["categories"]["two"], morphisms=[{"id": ["u"], "dom": "a", "cod": "b"}],
        ))),
        'morphism id must be a string, not ["u"]',
    ),
    "composition-entry-not-a-string": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], two=dict(
            GOOD_WORKSPACE["categories"]["two"], composition=[{"g": ["u"], "f": "id_a", "eq": "u"}],
        ))),
        'composition entry g must be a string, not ["u"]',
    ),
    "functor-object-image-not-a-target-object": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects={"*": "zz"})}),
        "UnknownObject: object * has no valid image",
    ),
    "group-kind-presentation-by-ref": (
        dict(GOOD_WORKSPACE, groups={"z2": GOOD_WORKSPACE["presentations"]["p"]}),
        "unknown group kind 'presentation'",
    ),
    "group-kind-presentation-inline": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], groups={
            "a": dict(GOOD_WORKSPACE["presentations"]["p"], label="A"),
            "b": {"ref": "z2", "label": "A"},
        })}),
        "unknown group kind 'presentation'",
    ),
    "section-name-with-a-line-break": (
        dict(GOOD_WORKSPACE, **{"cate\ngories": {}}),
        "has unknown sections: cate\\ngories",
    ),
    "category-key-with-a-line-break": (
        dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], one={
            "objects": ["*"], "morphisms": [], "composition": [], "ex\ntra": 1,
        })),
        "category has unknown keys: ex\\ntra",
    ),
    "functor-object-image-not-a-string": (
        dict(GOOD_WORKSPACE, functors={"inc-b": dict(GOOD_WORKSPACE["functors"]["inc-b"], objects={"*": ["b"]})}),
        'functor object image must be a string, not ["b"]',
    ),
}


def diagram_groups(value):
    """GOOD_WORKSPACE with ``value`` as the group of diagram d at a and b."""
    d = dict(GOOD_WORKSPACE["diagrams"]["d"], groups={"a": value, "b": value})
    return dict(GOOD_WORKSPACE, diagrams={"d": d})


# a diagram's group is a reference with an optional label, a free product
# with its factors, or an inline table group: no other key is read
MALFORMED.update({
    "group-reference-with-an-unknown-key": (
        diagram_groups({"ref": "z2", "junk": 1}),
        "group reference has unknown keys: junk",
    ),
    "free-product-with-an-unknown-key": (
        diagram_groups({"kind": "free_product", "junk": 1, "factors": [
            {"label": "A", "group": GOOD_WORKSPACE["groups"]["z2"]}]}),
        "free product has unknown keys: junk",
    ),
})


def with_categories(**categories):
    """GOOD_WORKSPACE with more, or replaced, categories."""
    return dict(GOOD_WORKSPACE, categories=dict(GOOD_WORKSPACE["categories"], **categories))


TWO = GOOD_WORKSPACE["categories"]["two"]
Z2 = GOOD_WORKSPACE["groups"]["z2"]
M = GOOD_WORKSPACE["abdiagrams"]["m"]
HB = GOOD_WORKSPACE["dsets"]["hb"]
# Z/2 as a one-object category, and the monoid {1, e} with e∘e = e
Z2CAT = {"objects": ["*"], "morphisms": [{"id": "x", "dom": "*", "cod": "*"}],
         "composition": [{"g": "x", "f": "x", "eq": "id_*"}]}
IDEMPOTENT = {"objects": ["*"], "morphisms": [{"id": "e", "dom": "*", "cod": "*"}],
              "composition": [{"g": "e", "f": "e", "eq": "e"}]}
# a -> b -> c with its composite a -> c
THREE = {"objects": ["a", "b", "c"],
         "morphisms": [{"id": "u", "dom": "a", "cod": "b"}, {"id": "v", "dom": "b", "cod": "c"},
                       {"id": "w", "dom": "a", "cod": "c"}],
         "composition": [{"g": "v", "f": "u", "eq": "w"}]}
# the point with a loop l beside its degenerate edge
CIRCLE = {"level": 1, "simplices": [["v"], ["sv", "l"]],
          "faces": {"1,0": {"sv": "v", "l": "v"}, "1,1": {"sv": "v", "l": "v"}},
          "degeneracies": {"0,0": {"v": "sv"}}, "basepoint": "v"}


def delta1(level, basepoint="0"):
    """The 1-simplex as a simplicial set through ``level``: the degree-n
    simplices are the nondecreasing words of n + 1 letters in 0 < 1, d_i
    drops letter i and s_i repeats it."""
    simplices = [["0" * (n + 1 - k) + "1" * k for k in range(n + 2)] for n in range(level + 1)]
    out = {
        "level": level,
        "simplices": simplices,
        "faces": {"%d,%d" % (n, i): {x: x[:i] + x[i + 1:] for x in simplices[n]}
                  for n in range(1, level + 1) for i in range(n + 1)},
        "degeneracies": {"%d,%d" % (n, i): {x: x[:i + 1] + x[i:] for x in simplices[n]}
                         for n in range(level) for i in range(n + 1)},
    }
    if basepoint is not None:
        out["basepoint"] = basepoint
    return out


def broken(sset, kind, key, x, y):
    """A copy of ``sset`` whose ``kind`` map ``key`` sends x to y."""
    out = json.loads(json.dumps(sset))
    out[kind][key][x] = y
    return out


def with_functor(source, target, objects, morphisms):
    """GOOD_WORKSPACE with Z2CAT, IDEMPOTENT and the one functor f."""
    return dict(with_categories(z2cat=Z2CAT, idempotent=IDEMPOTENT), functors={"f": {
        "source": source, "target": target, "objects": objects, "morphisms": morphisms}})


def pointed_over_two(a, b, maps):
    """GOOD_WORKSPACE whose pointed diagram pd has values a and b and
    the map ``maps`` at u."""
    return dict(GOOD_WORKSPACE, pointed_diagrams={"pd": {
        "category": "two", "level": 1, "values": {"a": a, "b": b}, "maps": {"u": maps}}})


# every check that a workspace can reach, one input each
MALFORMED.update({
    # validate_category, then FinCat._check
    "composition-entry-on-a-non-composable-pair": (
        with_categories(two=dict(TWO, composition=[{"g": "u", "f": "u", "eq": "u"}])),
        "DanglingId: composition entry for non-composable pair (u, u)",
    ),
    "composition-entry-against-a-unit-law": (
        with_categories(two=dict(TWO, composition=[{"g": "id_b", "f": "u", "eq": "id_a"}])),
        "IdentityViolation: composition table contradicts identity law at ('id_b', 'u')",
    ),
    "conflicting-composition-entries": (
        with_categories(one={"objects": ["*"], "morphisms": [{"id": "x", "dom": "*", "cod": "*"}],
                             "composition": [{"g": "x", "f": "x", "eq": "x"},
                                             {"g": "x", "f": "x", "eq": "id_*"}]}),
        "CategoryError: conflicting composition entries for (x, x)",
    ),
    "composite-with-the-wrong-endpoints": (
        with_categories(three=dict(THREE, composition=[{"g": "v", "f": "u", "eq": "u"}])),
        "AssociativityViolation: composite u of (v, u) has wrong endpoints",
    ),
    "morphism-id-repeating-an-identity": (
        with_categories(two=dict(TWO, morphisms=[{"id": "id_a", "dom": "a", "cod": "b"}])),
        "DanglingId: morphism id id_a duplicates another (identities are reserved)",
    ),
    "morphism-with-an-unknown-endpoint": (
        with_categories(two=dict(TWO, morphisms=[{"id": "u", "dom": "a", "cod": "zz"}])),
        "DanglingId: morphism u references unknown object",
    ),
    "duplicate-object-ids": (
        with_categories(one={"objects": ["*", "*"], "morphisms": [], "composition": []}),
        "CategoryError: duplicate object ids",
    ),
    "composition-entry-with-an-unknown-id": (
        with_categories(two=dict(TWO, composition=[{"g": "zz", "f": "u", "eq": "u"}])),
        "DanglingId: composition entry (zz, u) -> u references unknown ids",
    ),
    # Functor._check
    "functor-morphism-image-unknown": (
        with_functor("two", "two", {"a": "a", "b": "b"}, {"u": "zz"}),
        "UnknownMorphism: morphism u has no valid image",
    ),
    "functor-breaks-endpoints": (
        with_functor("two", "two", {"a": "a", "b": "b"}, {"u": "id_a"}),
        "CategoryError: functor breaks dom/cod at u",
    ),
    "functor-breaks-an-identity": (
        with_functor("one", "z2cat", {"*": "*"}, {"id_*": "x"}),
        "CategoryError: functor breaks identity at *",
    ),
    "functor-breaks-composition": (
        with_functor("z2cat", "idempotent", {"*": "*"}, {"x": "e"}),
        "CategoryError: functor breaks composition at (x, x)",
    ),
    # the group-table axioms
    **{"group-" + case: (dict(GOOD_WORKSPACE, groups={"z2": dict(Z2, **change)}), message)
       for case, change, message in (
           ("unit-not-an-element", {"unit": "7"}, "GroupError: unit is not an element"),
           ("duplicate-elements", {"elements": ["0", "0"], "table": [["0", "0"], ["0", "0"]]},
            "GroupError: duplicate elements"),
           ("table-not-closed", {"table": [["0", "1"], ["1", "2"]]},
            "GroupError: table is not closed at (1, 1)"),
           ("unit-law-fails", {"table": [["1", "0"], ["0", "1"]]}, "GroupError: unit law fails at 0"),
           ("not-associative", {"elements": ["e", "a", "b"], "unit": "e",
                                "table": [["e", "a", "b"], ["a", "a", "e"], ["b", "e", "b"]]},
            "GroupError: associativity fails at (a, a, b)"),
           ("no-inverse", {"table": [["0", "1"], ["1", "1"]]}, "GroupError: no inverse for 1"),
           ("table-not-square", {"table": [["0", "1"]]},
            "InputError: group table must be a square over the elements"),
           ("elements-not-a-list", {"elements": 5},
            "InputError: group elements and table must be JSON arrays"),
       )},
    # TruncSSet: one simplex list per degree, then _check
    **{"sset-" + case: (dict(GOOD_WORKSPACE, ssets={"pt": sset}), "PresheafError: " + message)
       for case, sset, message in (
           ("one-simplex-list-short", dict(POINT, simplices=[["v"]]),
            "need one simplex list per degree 0..N, N >= 0"),
           ("duplicate-simplex", dict(POINT, simplices=[["v", "v"], ["sv"]]),
            "duplicate simplex ids in one degree"),
           ("basepoint-not-a-vertex", dict(POINT, basepoint="w"), "basepoint is not a vertex"),
           ("face-not-total", dict(POINT, faces={"1,0": {}, "1,1": {"sv": "v"}}),
            "face (1, 0) is not total"),
           ("face-leaving-the-set", dict(POINT, faces={"1,0": {"sv": "zz"}, "1,1": {"sv": "v"}}),
            "face (1, 0) leaves the simplicial set"),
           ("breaking-d-d", broken(delta1(2), "faces", "2,0", "001", "00"),
            "d_i d_j identity fails at '001'"),
           ("breaking-s-s", broken(delta1(2), "degeneracies", "1,1", "00", "001"),
            "s_i s_j identity fails at '0'"),
           ("breaking-d-s", broken(delta1(1), "degeneracies", "0,0", "0", "01"),
            "d_i s_j identity fails at '0'"),
       )},
    # SSetMap._check, on a pointed diagram's map
    **{"sset-map-" + case: (pointed_over_two(*values), "PresheafError: " + message)
       for case, values, message in (
           ("one-table-short", (POINT, POINT, [{"v": "v"}]), "level mismatch in simplicial map"),
           ("not-total", (POINT, POINT, [{"v": "v"}, {}]), "map not total in degree 1"),
           ("against-a-face", (delta1(1), delta1(1), [{"0": "0", "1": "0"},
                                                      {"00": "00", "01": "01", "11": "11"}]),
            "map does not commute with d_0"),
           ("against-a-degeneracy", (POINT, CIRCLE, [{"v": "v"}, {"sv": "l"}]),
            "map does not commute with s_0"),
           ("moving-the-basepoint", (delta1(1), delta1(1), [{"0": "1", "1": "1"},
                                                           {"00": "11", "01": "11", "11": "11"}]),
            "map does not preserve the basepoint"),
           ("from-an-unpointed-set", (delta1(1, basepoint=None), delta1(1),
                                      [{"0": "0", "1": "1"}, {"00": "00", "01": "01", "11": "11"}]),
            "pointed map between unpointed simplicial sets"),
       )},
    # DSet and DSetMorphism
    "dset-misses-an-action": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(HB, maps={})}),
        "PresheafError: presheaf misses the action of u",
    ),
    "dset-action-not-a-map": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(HB, maps={"u": {"zz": "u"}})}),
        "PresheafError: action of u is not a map X(b) -> X(a)",
    ),
    # without a system over its elements, which would refuse the repeated
    # object id, this workspace once passed
    "dset-set-repeating-an-element": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(HB, sets={"a": ["u", "u"], "b": ["ib"]})},
             systems={"ns": GOOD_WORKSPACE["systems"]["ns"]}),
        "PresheafError: presheaf set at a repeats an element",
    ),
    "dset-not-contravariant": (
        dict(with_categories(three=THREE), dsets={"hb": HB, "x": {
            "category": "three", "sets": {"a": ["x1", "x2"], "b": ["y"], "c": ["z"]},
            "maps": {"v": {"z": "y"}, "u": {"y": "x1"}, "w": {"z": "x2"}}}}),
        "PresheafError: contravariance fails at (v, u)",
    ),
    "dsetmap-across-bases": (
        dict(GOOD_WORKSPACE, dsets={"hb": HB, "pt": {"category": "one", "sets": {"*": ["p"]},
                                                     "maps": {}}},
             dsetmaps={"idhb": {"source": "hb", "target": "pt", "components": {}}}),
        "PresheafError: presheaf morphism needs a common base",
    ),
    "dsetmap-component-not-total": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(GOOD_WORKSPACE["dsetmaps"]["idhb"],
                                                    components={"a": {}, "b": {"ib": "ib"}})}),
        "NaturalityViolation: component at a is not total",
    ),
    "dsetmap-component-leaving-the-target": (
        dict(GOOD_WORKSPACE, dsetmaps={"idhb": dict(GOOD_WORKSPACE["dsetmaps"]["idhb"],
                                                    components={"a": {"u": "zz"}, "b": {"ib": "ib"}})}),
        "NaturalityViolation: component at a leaves the target",
    ),
    # the readers
    "dset-map-at-an-unknown-morphism": (
        dict(GOOD_WORKSPACE, dsets={"hb": dict(HB, maps={"u": {"ib": "u"}, "zz": {}})}),
        "InputError: presheaf references unknown morphism zz",
    ),
    "diagram-hom-on-unknown-morphism": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"],
                                                 homs={"zz": {"A.1": [["A", "1"]]}})}),
        "InputError: diagram references unknown morphism zz",
    ),
    "hom-letter-unknown-label": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"],
                                                 homs={"u": {"A.1": [["B", "1"]]}})}),
        "UnknownLabel: unknown factor label B",
    ),
    "gens-negative": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, values={"a": {"gens": -1}, "b": {"gens": 1}})}),
        "InputError: abelian group gens must not be negative",
    ),
    "hom-missing-a-letter": (
        dict(GOOD_WORKSPACE, diagrams={"d": dict(GOOD_WORKSPACE["diagrams"]["d"], homs={"u": {}})}),
        "InputError: hom at u misses letter A.1",
    ),
    "abelian-rels-rows-not-gens": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, values={
            "a": {"gens": 1, "rels": {"rows": 2, "cols": 1, "data": ["2", "0"]}}, "b": {"gens": 1}})}),
        "InputError: abelian group rels has 2 rows, gens is 1",
    ),
    "abdiagram-map-on-unknown-morphism": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, maps={"zz": {"rows": 1, "cols": 1, "data": ["2"]}})}),
        "InputError: diagram references unknown morphism zz",
    ),
    "abdiagram-map-of-the-wrong-shape": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, maps={"u": {"rows": 1, "cols": 2,
                                                                  "data": ["1", "0"]}})}),
        "InputError: map at u is 1x2, needs 1x1",
    ),
    "system-without-a-group": (
        dict(GOOD_WORKSPACE, systems={"s": {"over": {"kind": "factorization-op", "category": "two"}}}),
        "InputError: system needs constant_group or constant_abelian",
    ),
    "matrix-data-not-a-list": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, maps={"u": {"rows": 1, "cols": 1, "data": 5}})}),
        "InputError: matrix data must be a JSON array",
    ),
    "presentation-unknown-kind": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"], kind="table")}),
        "InputError: unknown presentation kind 'table'",
    ),
    "presentation-duplicate-generators": (
        dict(GOOD_WORKSPACE, presentations={"p": dict(GOOD_WORKSPACE["presentations"]["p"],
                                                      generators=["x", "x"])}),
        "GroupError: duplicate generators",
    ),
    "free-product-duplicate-labels": (
        diagram_groups({"kind": "free_product", "factors": [{"label": "A", "group": Z2},
                                                            {"label": "A", "group": Z2}]}),
        "GroupError: duplicate factor labels",
    ),
    # AbMap's own check refuses it before AbDiagram's would
    "abelian-action-breaking-the-relations": (
        dict(GOOD_WORKSPACE, abdiagrams={"m": dict(M, values={
            "a": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": ["2"]}}, "b": {"gens": 1}})}),
        "HomalgError: matrix does not respect the source relations",
    ),
})


# errors that a command meets past reading the workspace
MALFORMED_FOR_A_COMMAND = {
    "hocolim-level-above-the-diagram": (
        GOOD_WORKSPACE, ["hocolim", "--pointed-diagram", "bgd", "--level", "3"],
        "LevelMismatch: diagram level 2 below requested 3",
    ),
    "pi1-of-a-level-1-set": (
        GOOD_WORKSPACE, ["pi1", "--sset", "pt"],
        "LevelTooLow: fundamental group needs level >= 2",
    ),
    "pi1-of-an-unpointed-set": (
        dict(GOOD_WORKSPACE, ssets={"pt": delta1(2, basepoint=None)}), ["pi1", "--sset", "pt"],
        "PresheafError: fundamental group needs a basepoint",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FOR_A_COMMAND))
def test_a_command_on_a_malformed_input_is_a_one_line_error(case, capsys, tmp_path):
    data, argv, message = MALFORMED_FOR_A_COMMAND[case]
    code, err = one_line_error(capsys, data, tmp_path, *argv)
    assert code == 1 and message in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_is_a_one_line_error(case, capsys, tmp_path):
    data, message = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def one_line_error(capsys, data, tmp_path, *argv):
    """Exit code and stderr of a command on a workspace file holding
    ``data``, or the text ``data`` when it is a string; ``validate`` when
    no command is given."""
    path = tmp_path / "ws.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    code = main(list(argv) + ["--workspace", str(path)] if argv else ["validate", str(path)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def ab_values(value):
    return dict(GOOD_WORKSPACE, abdiagrams={"m": dict(
        GOOD_WORKSPACE["abdiagrams"]["m"], values={"a": value, "b": {"gens": 1}},
    )})


OVER_LIMIT = {
    "gens": (dict(GOOD_WORKSPACE, systems={"ns": {
        "over": {"kind": "factorization-op", "category": "two"},
        "constant_abelian": {"gens": 200000}}}),
        "abelian group gens is 200000, over the limit of 4096"),
    "matrix-rows": (ab_values({"gens": 1, "rels": {"rows": 5000, "cols": 0, "data": []}}),
                    "matrix rows is 5000, over the limit of 4096"),
    "matrix-cols": (ab_values({"gens": 1, "rels": {"rows": 1, "cols": 10 ** 9, "data": []}}),
                    "matrix cols is 1000000000, over the limit of 4096"),
    "sset-level": (dict(GOOD_WORKSPACE, ssets={"pt": dict(POINT, level=7)}),
                   "simplicial set level is 7, over the limit of 6"),
    "pointed-diagram-level": (
        dict(GOOD_WORKSPACE, pointed_diagrams={"pd": dict(GOOD_WORKSPACE["pointed_diagrams"]["pd"],
                                                          level=7)}),
        "pointed diagram level is 7, over the limit of 6"),
    "bg-level": (dict(GOOD_WORKSPACE, pointed_diagrams={"bgd": {"kind": "bg", "diagram": "d",
                                                                "level": 10 ** 6}}),
                 "pointed diagram level is 1000000, over the limit of 6"),
}


@pytest.mark.parametrize("case", sorted(OVER_LIMIT))
def test_a_size_over_its_limit_is_a_one_line_error(case, capsys, tmp_path):
    data, message = OVER_LIMIT[case]
    code, err = one_line_error(capsys, data, tmp_path)
    assert code == 1 and message in err


def test_check_cofinal_on_a_long_fence(capsys, tmp_path):
    """A fence of 1500 objects onto the point: its one coslice is the
    fence, certified by a collapse of 1497 steps, deeper than Python's
    recursion limit."""
    points = ["p%d" % i for i in range(1500)]
    arrows = [{"id": "e%d" % i, "dom": points[i + i % 2], "cod": points[i + 1 - i % 2]}
              for i in range(1499)]
    data = {
        "categories": {
            "fence": {"objects": points, "morphisms": arrows, "composition": []},
            "point": {"objects": ["*"], "morphisms": [], "composition": []},
        },
        "functors": {"to-point": {
            "source": "fence", "target": "point", "objects": dict.fromkeys(points, "*"),
            "morphisms": {a["id"]: "id_*" for a in arrows},
        }},
    }
    path = tmp_path / "fence.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["check-cofinal", "--workspace", str(path), "--functor", "to-point",
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    verdict = json.loads(out)["per_object"]["*"]
    assert verdict["verdict"] == "CONTRACTIBLE"
    assert verdict["certificate"]["kind"] == "collapse"
    assert len(verdict["certificate"]["steps"]) == 1497


def test_json_nested_too_deeply_is_a_one_line_error(capsys, tmp_path):
    code, err = one_line_error(capsys, "[" * 200000 + "]" * 200000, tmp_path)
    assert code == 1
    assert err == "error: InputError: %s nests too deeply to read\n" % (tmp_path / "ws.json")


def test_a_classifying_space_over_its_cap_is_a_one_line_error(capsys, tmp_path):
    # BZ/8 at level 6 has 8^6 top simplices, over the cap of 10^5
    z8 = {"kind": "table", "elements": [str(i) for i in range(8)], "unit": "0",
          "table": [[str((i + j) % 8) for j in range(8)] for i in range(8)]}
    data = dict(GOOD_WORKSPACE, groups={"z8": z8},
                diagrams={"d8": {"category": "one", "groups": {"*": {"ref": "z8"}}, "homs": {}}},
                pointed_diagrams={"bg8": {"kind": "bg", "diagram": "d8", "level": 6}})
    code, err = one_line_error(capsys, data, tmp_path,
                               "hocolim", "--pointed-diagram", "bg8", "--level", "6")
    assert code == 1
    assert err == "error: CapExceeded: classifying space has 262144 top simplices\n"


def test_sizes_at_their_limits_are_read(capsys, tmp_path):
    data = dict(GOOD_WORKSPACE, systems={"ns": {
        "over": {"kind": "factorization-op", "category": "two"},
        "constant_abelian": {"gens": 4096, "rels": {"rows": 4096, "cols": 0, "data": []}}}},
        pointed_diagrams={"bgd": {"kind": "bg", "diagram": "d", "level": 6}})
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


# derived ids formatted from names that hold separators of the id formats can
# coincide: "[x,y,z:id_*->0]" names both (x,y ; z) and (x ; y,z) in the
# factorization category, and "[u:(a|p)->(b|q)->(b|r)]" two morphisms of a
# category of elements
ZERO_MONOID = {"categories": {"zero": {
    "objects": ["*"],
    "morphisms": [{"id": e, "dom": "*", "cod": "*"} for e in ("x,y", "z", "x", "y,z", "0")],
    "composition": [{"g": a, "f": b, "eq": "0"}
                    for a in ("x,y", "z", "x", "y,z", "0") for b in ("x,y", "z", "x", "y,z", "0")],
}}}
ELEMENTS_THAT_COLLIDE = {
    "categories": {"two": GOOD_WORKSPACE["categories"]["two"]},
    "dsets": {"x": {"category": "two", "sets": {"a": ["p", "p)->(b|q"], "b": ["q)->(b|r", "r"]},
                    "maps": {"u": {"q)->(b|r": "p", "r": "p)->(b|q"}}}},
    "systems": {"s": {"over": {"kind": "elements-op", "dset": "x"},
                      "constant_abelian": {"gens": 1}}},
}


@pytest.mark.parametrize("data, argv, message", [
    (ZERO_MONOID, ["factorization", "--category", "zero"],
     "error: DanglingId: morphism id [x,y,z:id_*->0] duplicates another (identities are reserved)\n"),
    (ELEMENTS_THAT_COLLIDE, [],
     "error: DanglingId: morphism id [u:(a|p)->(b|q)->(b|r)] duplicates another\n"),
    (ELEMENTS_THAT_COLLIDE, ["gz", "--dset", "x", "--system", "s"],
     "error: DanglingId: morphism id [u:(a|p)->(b|q)->(b|r)] duplicates another\n"),
])
def test_derived_ids_that_coincide_are_a_one_line_error(data, argv, message, capsys, tmp_path):
    assert one_line_error(capsys, data, tmp_path, *argv) == (1, message)


def test_workspace_commands(capsys, ws_file):
    code, out = run(capsys, "colim0", "--workspace", ws_file, "--diagram", "d")
    assert code == 0
    code, out = run(capsys, "homology", "--workspace", ws_file, "--diagram", "m",
                    "--abelian", "--nmax", "2")
    assert code == 0
    assert "['Z', '0', '0']" in out
    code, out = run(capsys, "gz", "--workspace", ws_file, "--dset", "hb",
                    "--system", "s", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "bw", "--workspace", ws_file, "--category", "two",
                    "--system", "ns", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "check-cofinal", "--workspace", ws_file, "--functor", "inc-b")
    assert code == 0
    code, out = run(capsys, "fingerprint", "--workspace", ws_file, "--presentation", "p")
    assert code == 0


def workspace_run(capsys, tmp_path, data, *argv):
    """Exit code and stdout of a command on a workspace file holding data."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return run(capsys, *argv, "--workspace", str(path))


def test_an_inline_free_product_is_read_as_the_referenced_group(capsys, tmp_path):
    inline = diagram_groups({"kind": "free_product", "factors": [{"label": "A", "group": Z2}]})
    assert (workspace_run(capsys, tmp_path, inline, "colim0", "--diagram", "d")
            == workspace_run(capsys, tmp_path, GOOD_WORKSPACE, "colim0", "--diagram", "d"))


def test_a_constant_group_system_reports_its_colimit(capsys, tmp_path):
    data = dict(GOOD_WORKSPACE, systems={
        "gs": {"over": {"kind": "factorization-op", "category": "two"}, "constant_group": {"ref": "z2"}},
        "gs-el": {"over": {"kind": "elements-op", "dset": "hb"}, "constant_group": {"ref": "z2"}},
    })
    for argv in (["bw", "--category", "two", "--system", "gs"],
                 ["gz", "--dset", "hb", "--system", "gs-el"]):
        code, out = workspace_run(capsys, tmp_path, data, *argv, "--nmax", "1", "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["abelian"] == ["Z/2", "0"] and report["routes_agree"]
        assert report["n0"]["fingerprint"] == [1, 2, 1, 2, 4, 1, 2, 4, 1, 2, 4, 8, 6, 2]


def test_kan_extend_of_an_abelian_diagram(capsys, tmp_path):
    data = dict(GOOD_WORKSPACE, abdiagrams={"m1": {
        "category": "one", "values": {"*": {"gens": 1, "rels": {"rows": 1, "cols": 1, "data": ["2"]}}},
        "maps": {}}})
    code, out = workspace_run(capsys, tmp_path, data, "kan-extend", "--functor", "inc-b",
                              "--diagram", "m1", "--abelian", "--format", "json")
    assert code == 0 and json.loads(out)["values"] == {"a": "0", "b": "Z/2"}


def test_kan_extend_writes_an_unnamed_factor_by_its_order(capsys, tmp_path):
    """An inline table group has no name; its value at b is Z/2, not 1."""
    for group, value in ((Z2, "2"), ({"ref": "z2"}, "z2")):
        data = dict(GOOD_WORKSPACE, diagrams={"d": {"category": "one", "groups": {"*": group}, "homs": {}}})
        code, out = workspace_run(capsys, tmp_path, data, "kan-extend", "--functor", "inc-b",
                                  "--diagram", "d", "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["values"] == {"a": "1", "b": value}
        assert report["colim0_fingerprint"] == [1, 2, 1, 2, 4, 1, 2, 4, 1, 2, 4, 8, 6, 2]


def test_a_functor_into_the_empty_category_is_vacuously_cofinal(capsys, tmp_path):
    data = dict(with_categories(empty={"objects": [], "morphisms": [], "composition": []}),
                functors={"e": {"source": "empty", "target": "empty", "objects": {}}})
    code, out = workspace_run(capsys, tmp_path, data, "check-cofinal", "--functor", "e",
                              "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["aggregate"] == "CONTRACTIBLE" and report["per_object"] == {}


WRONG_BASE = {
    "bw-system-over-another-factorization": (
        ["bw", "--category", "one", "--system", "ns"],
        "error: system is not over the opposite factorization category of one\n",
    ),
    "bw-system-over-elements": (
        ["bw", "--category", "two", "--system", "s"],
        "error: system is not over the opposite factorization category of two\n",
    ),
    "gz-system-over-a-factorization": (
        ["gz", "--dset", "hb", "--system", "ns"],
        "error: system is not over the opposite category of elements of hb\n",
    ),
    "kan-extend-diagram-off-the-source": (
        ["kan-extend", "--functor", "inc-b", "--diagram", "m", "--abelian"],
        "error: DiagramError: diagram is not over the source category of inc-b\n",
    ),
    "andre-diagram-off-the-base": (
        ["andre", "--dset", "hb", "--diagram", "m1", "--abelian"],
        "error: DiagramError: diagram is not over the base category of hb\n",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_BASE))
def test_coefficients_over_the_wrong_base_are_one_line_errors(case, capsys, tmp_path):
    argv, message = WRONG_BASE[case]
    data = dict(GOOD_WORKSPACE, abdiagrams=dict(
        GOOD_WORKSPACE["abdiagrams"], m1={"category": "one", "values": {"*": {"gens": 1}}, "maps": {}},
    ))
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(argv + ["--workspace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == message


def _nodes(value, path=()):
    """Paths to every node of a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    value = dict(value) if isinstance(value, dict) else list(value)
    value[path[0]] = _replaced(value[path[0]], path[1:], new)
    return value


# small integers only: a size such as gens or level is not capped by the
# reader, and a large one is a resource question, not a malformed input
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3, width=16)
    | st.sampled_from(["a", "b", "*", "u", "id_a", "two", "one", "z2", "A", "0", "1", "hb", "d", "v"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_nodes(GOOD_WORKSPACE))), json_values)
@example(path=(), value={"\n": None})
def test_one_replaced_node_is_accepted_or_one_line_error(path, value):
    data = _replaced(GOOD_WORKSPACE, path, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "ws.json")
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", file])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


def test_workspace_errors_name_one_entry_of_the_section():
    ws = Workspace()
    ws.load_data(GOOD_WORKSPACE)
    with pytest.raises(InputError, match="^unknown category 'nope'$"):
        ws.get("categories", "nope")
    with pytest.raises(InputError, match="^unknown pointed diagram 'nope'$"):
        ws.get("pointed_diagrams", "nope")
    with pytest.raises(InputError, match="^duplicate category name 'two'$"):
        ws.load_data({"categories": {"two": GOOD_WORKSPACE["categories"]["two"]}})


def test_builtin_workspace_loads_everything():
    ws = Workspace()
    fixtures.register_builtins(ws)
    names = ws.validate_all()
    assert names == {section: sorted(table) for section, table in fixtures.BUILTINS.items()}
    for section in ws.SECTIONS:
        for name in names[section]:
            assert ws.get(section, name) is not None


def test_workspace_builds_an_entry_once_and_on_first_use():
    built = []
    ws = Workspace()
    ws.register("groups", "g", lambda: built.append("g") or "G")
    assert built == []
    assert ws.get("groups", "g") == ws.get("groups", "g") == "G"
    assert built == ["g"]


@pytest.mark.parametrize("order", ["file-first", "builtin-first"])
def test_a_name_in_a_file_and_in_the_builtins_is_refused(order, capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"categories": {"two": GOOD_WORKSPACE["categories"]["two"]}}),
                    encoding="utf-8")
    sources = [str(path), "builtin"] if order == "file-first" else ["builtin", str(path)]
    argv = ["factorization", "--category", "two"]
    for source in sources:
        argv += ["--workspace", source]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: InputError: duplicate category name 'two'\n"


def test_two_bare_category_files_clash_on_main(capsys, tmp_path):
    paths = []
    for name in ("one", "two"):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(GOOD_WORKSPACE["categories"][name]), encoding="utf-8")
        paths.append(str(path))
    code, out = run(capsys, "factorization", "--workspace", paths[0], "--category", "main")
    assert code == 0 and "category: main" in out
    code = main(["factorization", "--workspace", paths[0], "--workspace", paths[1],
                 "--category", "main"])
    assert code == 1
    assert capsys.readouterr().err == "error: InputError: duplicate category name 'main'\n"


def test_a_builtin_command_builds_only_what_it_names(capsys, monkeypatch):
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append((name, kwargs.get("name")))
            return original(*args, **kwargs)
        return wrapped

    for name in ("bg_diagram", "factorization", "validate_category"):
        monkeypatch.setattr(fixtures, name, spy(name, getattr(fixtures, name)))
    code, out = run(capsys, "colim0", "--diagram", "span-z2-z3")
    assert code == 0
    assert calls == [("validate_category", "span")]


def test_json_output_round_trips_and_is_stable(capsys):
    code, out1 = run(capsys, "--format", "json", "verify", "--theorem", "corfact",
                     "--fixture", "two")
    assert code == 0
    code, out2 = run(capsys, "--format", "json", "verify", "--theorem", "corfact",
                     "--fixture", "two")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "agree"
    assert payload["defaults"]["fingerprint_bound"] == 8


def test_format_flag_after_subcommand(capsys):
    code, out = run(capsys, "fingerprint", "--presentation", "x2", "--format", "json")
    assert code == 0
    json.loads(out)


def test_exit_codes(capsys):
    assert main(["verify", "--theorem", "main2-n0", "--fixture", "span-z2-z3"]) == 0
    capsys.readouterr()
    assert main(["verify", "--theorem", "homoliso", "--fixture", "noncofinal-a-in-2"]) == 3
    capsys.readouterr()
    assert main([
        "verify", "--theorem", "homoliso", "--fixture", "noncofinal-a-in-2",
        "--assume-hypothesis",
    ]) == 2
    capsys.readouterr()
    assert main(["verify", "--theorem", "main2-n0", "--fixture", "no-such"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "nope", "--fixture", "x"],
    ["verify", "--theorem", "main2-n0"],
    ["colim0"],
    [],
    ["validate", "--workspace", "/nonexistent.json", "demo/workspace.json"],
    ["verify", "--workspace", "builtin", "--theorem", "main2-n0", "--fixture", "two-z2"],
    ["list-fixtures", "--workspace", "builtin"],
    # --nmax is a count (at least 0) and --effort at least 1
    ["homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "-2"],
    ["homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "-1"],
    ["bw", "--category", "z2cat", "--system", "z-nsys-z2cat", "--nmax", "-2"],
    ["bw", "--category", "z2cat", "--system", "z-nsys-z2cat", "--nmax", "x"],
    ["gz", "--dset", "interval-span", "--system", "z-el-interval", "--nmax", "-2"],
    ["andre", "--dset", "hb-two", "--diagram", "two-z2", "--nmax", "-2"],
    ["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", "3", "--nmax", "-2"],
    ["check-cofinal", "--functor", "final-in-two", "--nmax", "-2"],
    ["verify", "--theorem", "homoliso", "--fixture", "cod-z2cat", "--nmax", "-2"],
    ["verify", "--theorem", "dliso", "--fixture", "id-hb", "--nmax", "-2"],
    ["verify", "--theorem", "dhiso", "--fixture", "two-cells-collapse", "--assume-hypothesis",
     "--nmax", "-2"],
    ["check-cofinal", "--functor", "final-in-two", "--effort", "0"],
    ["verify", "--theorem", "wefrac", "--fixture", "z2cat", "--effort", "-1"],
], ids=["bad-choice", "missing-option", "missing-diagram", "no-command",
        "validate-workspace", "verify-workspace", "list-fixtures-workspace",
        "homology-nmax", "homology-nmax-minus-1", "bw-nmax", "bw-nmax-not-an-integer",
        "gz-nmax", "andre-nmax",
        "hocolim-nmax", "check-cofinal-nmax", "verify-homoliso-nmax", "verify-dliso-nmax",
        "verify-dhiso-nmax", "check-cofinal-effort-0", "verify-effort"])
def test_usage_errors_are_one_line_input_errors(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_help_exits_0(capsys):
    for name, command in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name
        assert ("--workspace" in capsys.readouterr().out) == command.workspace, name


def test_theorem_fixtures_name_the_theorems_in_order():
    assert tuple(fixtures.THEOREM_FIXTURES) == cli.THEOREMS


def test_the_reused_parser_keeps_no_state(capsys):
    # a workspace file seen by one call is not seen by the next
    code, out = run(capsys, "colim0", "--workspace", DEMO, "--diagram", "free-amalgam")
    assert code == 0
    assert main(["colim0", "--diagram", "free-amalgam"]) == 1
    assert capsys.readouterr().err == "error: InputError: unknown diagram 'free-amalgam'\n"
    code, out = run(capsys, "colim0", "--diagram", "span-z2-z3")
    assert code == 0
    # --format after the subcommand holds for its own call only
    code, out = run(capsys, "fingerprint", "--presentation", "x2", "--format", "json")
    assert code == 0
    json.loads(out)
    code, out = run(capsys, "fingerprint", "--presentation", "x2")
    assert code == 0 and out.startswith("command: fingerprint\n")
    # --abelian reads abdiagrams for its call only
    code, out = run(capsys, "homology", "--diagram", "ab-z-z2cat", "--abelian", "--nmax", "1")
    assert code == 0
    code, out = run(capsys, "kan-extend", "--functor", "mono-incl-delta1-op",
                    "--diagram", "mono-delta1")
    assert code == 0 and "colim0_fingerprint" in out


def test_demo_workspace(capsys):
    import pathlib

    demo = str(pathlib.Path(__file__).resolve().parent.parent / "demo" / "workspace.json")
    code, out = run(capsys, "validate", demo)
    assert code == 0
    code, out = run(capsys, "colim0", "--workspace", demo, "--diagram", "free-amalgam")
    assert code == 0
    assert "[1, 2, 3, 2, 4, 1, 6, 12, 1, 2, 4, 8, 6, 2]" in out
    code, out = run(capsys, "homology", "--workspace", demo, "--diagram", "ab-amalgam",
                    "--abelian", "--nmax", "2")
    assert code == 0
    assert "['Z/6', '0', '0']" in out
    code, out = run(capsys, "gz", "--workspace", demo, "--dset", "glued-cells",
                    "--system", "z-coefficients")
    assert code == 0


def test_homology_abelianize_path(capsys):
    code, out = run(capsys, "homology", "--diagram", "two-z2", "--abelianize",
                    "--nmax", "2")
    assert code == 0
    assert "['Z/2', '0', '0']" in out
    # a group diagram without either flag is an input error
    code = main(["homology", "--diagram", "two-z2"])
    capsys.readouterr()
    assert code == 1


def test_derived_categories_are_deterministic():
    from hocofin.fincat import factorization, comma_left_fibre
    from hocofin import fixtures as fx

    S = fx.fun_final_in_two()
    a1, _, _ = comma_left_fibre(S, "b")
    a2, _, _ = comma_left_fibre(S, "b")
    assert a1 == a2
    f1 = factorization(fx.cat_span()).category
    f2 = factorization(fx.cat_span()).category
    assert f1 == f2


def test_kan_extend_command(capsys):
    code, out = run(capsys, "kan-extend", "--functor", "mono-incl-delta1-op",
                    "--diagram", "mono-delta1")
    assert code == 0
    assert "colim0_fingerprint" in out


def test_pi1_and_hocolim_commands(capsys):
    code, out = run(capsys, "pi1", "--sset", "bz2-l3")
    assert code == 0
    code, out = run(capsys, "hocolim", "--pointed-diagram", "bg-two-z2",
                    "--level", "3", "--nmax", "2")
    assert code == 0
    assert "Z/2" in out


def test_hocolim_level_is_a_count(capsys):
    # a negative level is a usage error; levels 0..2 are too low for the
    # default --nmax 2, which needs level 3
    assert main(["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "--level: must be at least 0, got -1" in err
    for level in (0, 1, 2):
        assert main(["hocolim", "--pointed-diagram", "bg-span-z2-z3", "--level", str(level)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: LevelTooLow: need level >= 3, have %d\n" % level


def test_andre_command(capsys):
    code, out = run(capsys, "andre", "--dset", "hb-two", "--diagram", "two-z2")
    assert code == 0


def test_the_isomorphism_search_limit_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr(fincat, "ISO_MAX_OBJECTS", 1)
    assert main(["verify", "--theorem", "factfibres", "--fixture", "id-two"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: SizeLimitExceeded: too many objects for isomorphism search\n"


@pytest.mark.parametrize("functor", ["fold-disc2", "mono-incl-delta1-op"])
def test_an_assumed_bw_hypothesis_compares_the_sides(functor, capsys, monkeypatch):
    """Both functors fail the slice hypothesis, and with Z coefficients
    their sides differ (H_0 = Z^2 against Z, H_1 = Z against 0)."""
    def build():
        S = fixtures.FUNCTORS[functor]()
        return {"functor": S, "ab_system": fixtures.const_ab_nsys(S.target, FGAb.free(1))}

    monkeypatch.setitem(fixtures.THEOREM_FIXTURES["confhomolBW"], functor, build)
    argv = ["--format", "json", "verify", "--theorem", "confhomolBW", "--fixture", functor]
    code, out = run(capsys, *argv)
    report = json.loads(out)
    assert code == 3 and report["verdict"] == "not certified"
    assert report["hypothesis_mode"] == "not certified"
    code, out = run(capsys, *argv, "--assume-hypothesis")
    report = json.loads(out)
    assert code == 2 and report["verdict"] == "disagree"
    assert report["hypothesis_mode"] == "assumed"
    assert report["systems"]["ab_system"]["hypothesis"] == "NONCONTRACTIBLE"
    assert report["systems"]["ab_system"]["verdict"] == "disagree"


def test_an_assumed_bw_hypothesis_runs_the_comparison(capsys, monkeypatch):
    computed = []
    real = gz.bw_homology

    def spy(C, system, n_max):
        computed.append(C)
        return real(C, system, n_max)

    monkeypatch.setattr(gz, "bw_homology", spy)
    code, out = run(capsys, "--format", "json", "verify", "--theorem", "confhomolBW",
                    "--fixture", "final-in-two", "--assume-hypothesis")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "agree"
    assert report["hypothesis_mode"] == "assumed"
    assert report["systems"]["ab_system"]["verdict"] == "agree"
    assert len(computed) == 2


def test_an_uncertified_bw_hypothesis_that_does_not_fail_is_conditional(capsys, monkeypatch):
    real = cli.certify_slices

    def evidence_only(*args, **kwargs):
        return {alpha: ContractibilityVerdict("EVIDENCE") for alpha in real(*args, **kwargs)}

    monkeypatch.setattr(cli, "certify_slices", evidence_only)
    code, out = run(capsys, "--format", "json", "verify", "--theorem", "confhomolBW",
                    "--fixture", "id-two")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "agree"
    assert report["hypothesis_mode"] == "conditional"


def test_a_capped_bw_hypothesis_is_not_certified(capsys, monkeypatch):
    """An INCONCLUSIVE slice (a resource cap fired) must not read as
    agreement; assuming the hypothesis still compares the sides."""
    real = cli.certify_slices

    def capped(*args, **kwargs):
        return {alpha: ContractibilityVerdict("INCONCLUSIVE") for alpha in real(*args, **kwargs)}

    monkeypatch.setattr(cli, "certify_slices", capped)
    argv = ["--format", "json", "verify", "--theorem", "confhomolBW", "--fixture", "id-two"]
    code, out = run(capsys, *argv)
    report = json.loads(out)
    assert code == 3 and report["verdict"] == "not certified"
    assert report["hypothesis_mode"] == "not certified"
    assert {o["verdict"] for o in report["systems"].values()} == {"not certified"}
    code, out = run(capsys, *argv, "--assume-hypothesis")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "agree"
    assert report["hypothesis_mode"] == "assumed"


@pytest.mark.parametrize("aggregate, code, mode", [
    ("EVIDENCE", 0, "conditional"),
    ("INCONCLUSIVE", 3, "not certified"),
])
def test_the_homoliso_gate_on_an_uncertified_hypothesis(aggregate, code, mode, capsys, monkeypatch):
    """Negative controls for _hyp_gate: EVIDENCE runs the comparison as a
    conditional answer, INCONCLUSIVE stops before it."""
    real = cli.certify_homotopy_cofinal

    def uncertified(*args, **kwargs):
        return dict(real(*args, **kwargs), aggregate=aggregate)

    monkeypatch.setattr(cli, "certify_homotopy_cofinal", uncertified)
    got, out = run(capsys, "--format", "json", "verify", "--theorem", "homoliso",
                   "--fixture", "cod-z2cat")
    report = json.loads(out)
    assert got == code
    assert report["hypothesis"] == aggregate and report["hypothesis_mode"] == mode
    assert ("verdict" in report) == (code == 0)
    if code == 0:
        assert report["verdict"] == "agree"


def spy_on(monkeypatch, name, *modules):
    """Count the calls of the function ``name`` through each module that
    binds it; returns the list of calls."""
    calls = []
    real = getattr(modules[0], name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("theorem, fixture, sides, assumed", [
    ("dhiso", "two-cells-collapse", "gz_homology", 2),
    ("confhomolBW", "final-in-two", "bw_homology", 0),
])
def test_a_closed_gate_builds_neither_side(theorem, fixture, sides, assumed, capsys,
                                           monkeypatch):
    """Past the gate each side is one homology call; before it, none.
    Assumed, the two cells' sides disagree and final-in-two's agree."""
    calls = spy_on(monkeypatch, sides, gz, cli)
    argv = ["verify", "--theorem", theorem, "--fixture", fixture]
    code, _ = run(capsys, *argv)
    assert code == 3 and calls == []
    code, _ = run(capsys, *argv, "--assume-hypothesis")
    assert code == assumed and len(calls) == 2


def test_the_bw_slices_are_certified_once_per_functor(capsys, monkeypatch):
    # id-two has two systems over the walking arrow, which has 3 morphisms
    calls = spy_on(monkeypatch, "certify_over", gz)
    code, _ = run(capsys, "verify", "--theorem", "confhomolBW", "--fixture", "id-two")
    assert code == 0
    assert len(calls) == len(fixtures.cat_two().morphisms) == 3


@pytest.mark.parametrize("theorem, fixture", [("homoliso", "cod-z2cat"),
                                              ("discvirt", "vdc-id-span")])
def test_an_assumed_hypothesis_reads_assumed_even_when_certified(theorem, fixture, capsys):
    code, out = run(capsys, "--format", "json", "verify", "--theorem", theorem,
                    "--fixture", fixture, "--assume-hypothesis")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "agree"
    assert report["hypothesis_mode"] == "assumed"


def test_an_assumed_discvirt_on_a_non_vdc_is_not_certified(capsys, monkeypatch):
    """is_vdc decides exactly, and the right side is a Kan extension along
    a VDC: assuming the hypothesis cannot build it, so a non-VDC exits 3
    with its witnesses, never 1, and no Kan extension is attempted."""
    calls = spy_on(monkeypatch, "kan_extend_vdc", cli)
    argv = ["--format", "json", "verify", "--theorem", "discvirt", "--fixture",
            "not-vdc-par-fold"]
    code, plain = run(capsys, *argv)
    assumed_code, assumed = run(capsys, *argv, "--assume-hypothesis")
    assert code == assumed_code == 3 and calls == []
    report = json.loads(assumed)
    assert report == json.loads(plain)
    assert report["vdc"] is False and report["hypothesis_mode"] == "not certified"
    assert report["witnesses"]["b"]["finally_discrete"] is False


@pytest.mark.parametrize("aggregate, code, verdict", [
    ("NONCONTRACTIBLE", 2, "disagree"),
    ("INCONCLUSIVE", 3, "not certified"),
])
def test_wefrac_reads_a_failed_or_capped_certificate(aggregate, code, verdict, capsys,
                                                      monkeypatch):
    """Negative controls for wefrac, whose conclusion is the certificate
    itself: a failure disagrees, a cap is not certified."""
    real = cli.certify_homotopy_cofinal

    def patched(*args, **kwargs):
        return dict(real(*args, **kwargs), aggregate=aggregate)

    monkeypatch.setattr(cli, "certify_homotopy_cofinal", patched)
    got, out = run(capsys, "--format", "json", "verify", "--theorem", "wefrac",
                   "--fixture", fixtures.fixture_names("wefrac")[0])
    report = json.loads(out)
    assert got == code
    assert report["aggregate"] == aggregate and report["verdict"] == verdict


def test_dliso_reads_a_disagreeing_side(capsys, monkeypatch):
    """Negative control for dliso: one more Z in degree 0 of the pushed
    side's homology must read as a disagreement."""
    real = gz.gz_homology
    calls = []

    def rhs_off(X, system, n_max):
        res = real(X, system, n_max)
        calls.append(X)
        if len(calls) % 2 == 0:  # direct_image computes lhs, then rhs
            h0 = res["abelian"][0]
            h0 = FGAb.from_invariants(h0.free_rank + 1, h0.torsion)
            res = dict(res, abelian=[h0] + res["abelian"][1:])
        return res

    monkeypatch.setattr(gz, "gz_homology", rhs_off)
    code, out = run(capsys, "--format", "json", "verify", "--theorem", "dliso",
                    "--fixture", "incl-hb-union")
    report = json.loads(out)
    assert code == 2 and report["verdict"] == "disagree"
    assert report["systems"] == {"ab_system": "disagree"}


def constant_z7(diagram):
    """A constant Z/7 diagram of the same kind as diagram, over its base."""
    if isinstance(diagram, AbDiagram):
        return constant_ab_diagram(diagram.base, FGAb.cyclic(7))
    return constant_group_diagram(diagram.base, FreeProduct.from_group("A", cyclic_group(7)))


def z7_lan_route(X, system, elements, real=gz.lan_route_diagram):
    return constant_z7(real(X, system, elements))


def z7_nerve_route(C, M, n_max, fdata, real=gz.nerve_route_complex):
    return real(C, constant_z7(M), n_max, fdata)


@pytest.mark.parametrize("mode", ["json", "text"])
@pytest.mark.parametrize("route, broken, argv, message", [
    ("lan_route_diagram", z7_lan_route,
     "gz --dset interval-span --system z-el-interval --nmax 2", "presheaf"),
    ("lan_route_diagram", z7_lan_route,
     "gz --dset interval-span --system z2grp-el-interval --nmax 2", "presheaf"),
    ("lan_route_diagram", z7_lan_route, "verify --theorem contralan --fixture two-hb", "presheaf"),
    ("nerve_route_complex", z7_nerve_route,
     "bw --category z2cat --system z-nsys-z2cat --nmax 2", "natural-system"),
    ("nerve_route_complex", z7_nerve_route, "verify --theorem corfact --fixture z2cat", "natural-system"),
])
def test_a_broken_route_is_one_route_mismatch_line(route, broken, argv, message, mode, capsys,
                                                    monkeypatch):
    """Negative control: a second route that answers for constant Z/7
    coefficients must fail the cross-check, for every command alike."""
    monkeypatch.setattr(gz, route, broken)
    code = main(["--format", mode] + argv.split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "route mismatch: %s homology differs between routes\n" % message


@pytest.mark.parametrize("theorem", sorted(fixtures.THEOREM_FIXTURES))
def test_verify_all_fixtures(theorem, capsys):
    expected_nonzero = {
        ("homoliso", "noncofinal-a-in-2"): 3,
        ("discvirt", "not-vdc-par-fold"): 3,
        ("cofpointed", "noncofinal-a-in-2"): 3,
        ("dhiso", "two-cells-collapse"): 3,
        ("confhomolBW", "final-in-two"): 3,
    }
    for name in fixtures.fixture_names(theorem):
        code = main(["verify", "--theorem", theorem, "--fixture", name])
        capsys.readouterr()
        assert code == expected_nonzero.get((theorem, name), 0), (theorem, name)
